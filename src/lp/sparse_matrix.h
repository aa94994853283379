// Compressed sparse column (CSC) matrix, the storage format used by the
// simplex engine and LU factorization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace checkmate::lp {

// Triplet (coordinate) entry used while assembling a matrix.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

// CSC matrix with a row-wise (CSR) mirror. Duplicate triplets are summed
// in input order during construction; entries with |value| <= drop_tol
// are dropped.
// Columns are frozen after construction, but rows can be appended
// (append_rows) -- the branch & cut search grows the working LP by cut
// rows against a warm simplex basis.
//
// The mirror exists for hypersparse simplex pricing: the pivot-row
// computation alpha = A' rho only touches the rows where the BTRAN'd rho is
// nonzero, so walking those rows costs O(nnz of the touched rows) instead
// of a dense dot against every column.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(int rows, int cols, std::span<const Triplet> triplets,
               double drop_tol = 0.0);

  // Appends `new_rows` rows whose entries are given as triplets with row
  // indices in [rows(), rows() + new_rows). Column count is unchanged.
  // Cost is O(nnz + new nnz): the CSC arrays are re-merged (new entries
  // splice into their columns) and the CSR mirror gains the new rows at
  // the end. Duplicate triplets within a new row are summed.
  void append_rows(int new_rows, std::span<const Triplet> triplets);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(row_idx_.size()); }

  // Column j as parallel (row index, value) spans.
  std::span<const int> col_rows(int j) const {
    return {row_idx_.data() + col_ptr_[j],
            static_cast<size_t>(col_ptr_[j + 1] - col_ptr_[j])};
  }
  std::span<const double> col_values(int j) const {
    return {values_.data() + col_ptr_[j],
            static_cast<size_t>(col_ptr_[j + 1] - col_ptr_[j])};
  }

  // Row i as parallel (column index, value) spans (the CSR mirror).
  std::span<const int> row_cols(int i) const {
    return {col_idx_.data() + row_ptr_[i],
            static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  std::span<const double> row_values(int i) const {
    return {row_values_.data() + row_ptr_[i],
            static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }

  // y += alpha * A[:, j]  (y is a dense vector of length rows()).
  void axpy_column(int j, double alpha, std::span<double> y) const;

  // Returns A[:, j] . x for a dense x of length rows().
  double dot_column(int j, std::span<const double> x) const;

  // Dense y = A * x (x length cols(), y length rows()).
  std::vector<double> multiply(std::span<const double> x) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> col_ptr_;  // size cols_+1
  std::vector<int> row_idx_;
  std::vector<double> values_;
  // CSR mirror (same entries, row-major).
  std::vector<int> row_ptr_;  // size rows_+1
  std::vector<int> col_idx_;
  std::vector<double> row_values_;
};

}  // namespace checkmate::lp
