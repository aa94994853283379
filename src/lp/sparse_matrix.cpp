#include "lp/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>

#include "robust/fault_injection.h"

namespace checkmate::lp {

SparseMatrix::SparseMatrix(int rows, int cols,
                           std::span<const Triplet> triplets, double drop_tol)
    : rows_(rows), cols_(cols) {
  // Chaos tier: an injected allocation failure surfaces exactly like a
  // real out-of-memory during matrix assembly.
  if (robust::fault(robust::FaultPoint::kSparseAlloc)) throw std::bad_alloc();
  if (rows < 0 || cols < 0)
    throw std::invalid_argument("SparseMatrix: negative dimension");
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols)
      throw std::out_of_range("SparseMatrix: triplet index out of range");
  }

  // Two stable counting passes: by row into `order`, then by column
  // straight into the CSC arrays. Every column's rows then ascend, with
  // duplicates adjacent in input order.
  const int nnz_in = static_cast<int>(triplets.size());
  std::vector<int> order(nnz_in);
  {
    std::vector<int> next(rows + 1, 0);
    for (const Triplet& t : triplets) ++next[t.row + 1];
    for (int i = 0; i < rows; ++i) next[i + 1] += next[i];
    for (int k = 0; k < nnz_in; ++k) order[next[triplets[k].row]++] = k;
  }
  col_ptr_.assign(cols + 1, 0);
  for (const Triplet& t : triplets) ++col_ptr_[t.col + 1];
  for (int j = 0; j < cols; ++j) col_ptr_[j + 1] += col_ptr_[j];
  row_idx_.resize(nnz_in);
  values_.resize(nnz_in);
  {
    std::vector<int> next(col_ptr_.begin(), col_ptr_.end() - 1);
    for (int k : order) {
      const Triplet& t = triplets[k];
      const int slot = next[t.col]++;
      row_idx_[slot] = t.row;
      values_[slot] = t.value;
    }
  }
  // Sum each run of duplicates in that order and compact in place,
  // dropping sums within drop_tol.
  int out = 0;
  for (int j = 0; j < cols; ++j) {
    const int begin = col_ptr_[j];
    const int end = col_ptr_[j + 1];
    col_ptr_[j] = out;
    for (int k = begin; k < end;) {
      const int row = row_idx_[k];
      double sum = values_[k++];
      while (k < end && row_idx_[k] == row) sum += values_[k++];
      if (std::abs(sum) > drop_tol) {
        row_idx_[out] = row;
        values_[out++] = sum;
      }
    }
  }
  col_ptr_[cols] = out;
  row_idx_.resize(out);
  values_.resize(out);

  // Build the CSR mirror from the finalized CSC arrays (counting sort by
  // row; within a row, columns arrive in ascending order for free).
  row_ptr_.assign(rows + 1, 0);
  for (int r : row_idx_) ++row_ptr_[r + 1];
  for (int i = 0; i < rows; ++i) row_ptr_[i + 1] += row_ptr_[i];
  col_idx_.resize(row_idx_.size());
  row_values_.resize(values_.size());
  std::vector<int> next(row_ptr_.begin(), row_ptr_.end() - 1);
  for (int j = 0; j < cols; ++j) {
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      const int slot = next[row_idx_[k]]++;
      col_idx_[slot] = j;
      row_values_[slot] = values_[k];
    }
  }
}

void SparseMatrix::append_rows(int new_rows,
                               std::span<const Triplet> triplets) {
  // Chaos tier: cut-row appends can fail like any other allocation; the
  // strong guarantee holds (the matrix is untouched on a throw here).
  if (robust::fault(robust::FaultPoint::kCutRowAppend)) throw std::bad_alloc();
  if (new_rows < 0) throw std::invalid_argument("append_rows: negative count");
  const int old_rows = rows_;
  const int total_rows = old_rows + new_rows;
  for (const Triplet& t : triplets) {
    if (t.row < old_rows || t.row >= total_rows || t.col < 0 ||
        t.col >= cols_)
      throw std::out_of_range("append_rows: triplet index out of range");
  }

  // Splice the new entries into the CSC arrays. Within each column the new
  // rows sort after every existing row (their indices are larger), so the
  // merge is append-per-column; duplicates among the new triplets are
  // summed, matching the constructor's semantics.
  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.col != b.col) return a.col < b.col;
              return a.row < b.row;
            });

  std::vector<int> new_col_ptr(cols_ + 1, 0);
  std::vector<int> new_row_idx;
  std::vector<double> new_values;
  new_row_idx.reserve(row_idx_.size() + sorted.size());
  new_values.reserve(values_.size() + sorted.size());
  size_t pos = 0;
  for (int j = 0; j < cols_; ++j) {
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      new_row_idx.push_back(row_idx_[k]);
      new_values.push_back(values_[k]);
    }
    while (pos < sorted.size() && sorted[pos].col == j) {
      double sum = sorted[pos].value;
      const int row = sorted[pos].row;
      size_t k2 = pos + 1;
      while (k2 < sorted.size() && sorted[k2].col == j &&
             sorted[k2].row == row)
        sum += sorted[k2++].value;
      if (sum != 0.0) {
        new_row_idx.push_back(row);
        new_values.push_back(sum);
      }
      pos = k2;
    }
    new_col_ptr[j + 1] = static_cast<int>(new_row_idx.size());
  }
  col_ptr_ = std::move(new_col_ptr);
  row_idx_ = std::move(new_row_idx);
  values_ = std::move(new_values);
  rows_ = total_rows;

  // Rebuild the CSR mirror (counting sort, as in the constructor).
  row_ptr_.assign(rows_ + 1, 0);
  for (int r : row_idx_) ++row_ptr_[r + 1];
  for (int i = 0; i < rows_; ++i) row_ptr_[i + 1] += row_ptr_[i];
  col_idx_.resize(row_idx_.size());
  row_values_.resize(values_.size());
  std::vector<int> next(row_ptr_.begin(), row_ptr_.end() - 1);
  for (int j = 0; j < cols_; ++j) {
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      const int slot = next[row_idx_[k]]++;
      col_idx_[slot] = j;
      row_values_[slot] = values_[k];
    }
  }
}

void SparseMatrix::axpy_column(int j, double alpha, std::span<double> y) const {
  auto rows = col_rows(j);
  auto vals = col_values(j);
  for (size_t k = 0; k < rows.size(); ++k) y[rows[k]] += alpha * vals[k];
}

double SparseMatrix::dot_column(int j, std::span<const double> x) const {
  auto rows = col_rows(j);
  auto vals = col_values(j);
  double acc = 0.0;
  for (size_t k = 0; k < rows.size(); ++k) acc += vals[k] * x[rows[k]];
  return acc;
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  std::vector<double> y(rows_, 0.0);
  for (int j = 0; j < cols_; ++j)
    if (x[j] != 0.0) axpy_column(j, x[j], y);
  return y;
}

}  // namespace checkmate::lp
