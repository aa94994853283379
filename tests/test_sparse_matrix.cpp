#include "lp/sparse_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

namespace checkmate::lp {
namespace {

TEST(SparseMatrix, EmptyMatrix) {
  SparseMatrix m(3, 4, {});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 0);
  for (int j = 0; j < 4; ++j) EXPECT_TRUE(m.col_rows(j).empty());
}

TEST(SparseMatrix, BasicConstruction) {
  std::vector<Triplet> t{{0, 0, 1.0}, {2, 0, -2.0}, {1, 1, 3.0}};
  SparseMatrix m(3, 2, t);
  EXPECT_EQ(m.nnz(), 3);
  ASSERT_EQ(m.col_rows(0).size(), 2u);
  EXPECT_EQ(m.col_rows(0)[0], 0);
  EXPECT_EQ(m.col_rows(0)[1], 2);
  EXPECT_DOUBLE_EQ(m.col_values(0)[1], -2.0);
}

TEST(SparseMatrix, DuplicatesSummed) {
  std::vector<Triplet> t{{1, 0, 2.0}, {1, 0, 3.0}};
  SparseMatrix m(2, 1, t);
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.col_values(0)[0], 5.0);
}

TEST(SparseMatrix, DuplicatesCancelToZeroDropped) {
  std::vector<Triplet> t{{0, 0, 1.0}, {0, 0, -1.0}};
  SparseMatrix m(1, 1, t);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(SparseMatrix, RowsSortedWithinColumn) {
  std::vector<Triplet> t{{5, 0, 1.0}, {1, 0, 1.0}, {3, 0, 1.0}};
  SparseMatrix m(6, 1, t);
  auto rows = m.col_rows(0);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST(SparseMatrix, ShuffledTripletsGiveIdenticalArrays) {
  // The CSC and CSR arrays depend only on the entries, not on the order
  // the (duplicate-free) triplets arrive in.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::vector<Triplet> t;
  for (int i = 0; i < 40; ++i)
    for (int j = 0; j < 30; ++j)
      if ((i * 7 + j * 3) % 5 == 0) t.push_back({i, j, val(rng)});
  const SparseMatrix ref(40, 30, t);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(t.begin(), t.end(), rng);
    const SparseMatrix m(40, 30, t);
    ASSERT_EQ(m.nnz(), ref.nnz());
    for (int j = 0; j < 30; ++j) {
      EXPECT_TRUE(std::ranges::equal(m.col_rows(j), ref.col_rows(j)));
      EXPECT_TRUE(std::ranges::equal(m.col_values(j), ref.col_values(j)));
    }
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(std::ranges::equal(m.row_cols(i), ref.row_cols(i)));
      EXPECT_TRUE(std::ranges::equal(m.row_values(i), ref.row_values(i)));
    }
  }
}

TEST(SparseMatrix, DuplicatesSummedInInputOrder) {
  // 1e16 + 1 rounds back to 1e16, so the order of the three summands
  // decides the entry. Both columns also hold 20 other rows, listed in
  // descending order ahead of the interleaved duplicates.
  std::vector<Triplet> t;
  for (int j = 0; j < 2; ++j)
    for (int i = 19; i >= 0; --i) t.push_back({i, j, 1.0 + i});
  t.push_back({21, 0, 1e16});
  t.push_back({22, 1, 1e16});
  t.push_back({21, 0, -1e16});
  t.push_back({22, 1, 1.0});
  t.push_back({21, 0, 1.0});
  t.push_back({22, 1, -1e16});
  const SparseMatrix m(23, 2, t);
  // Column 0: (1e16 - 1e16) + 1 = 1. Column 1: (1e16 + 1) - 1e16 = 0,
  // dropped.
  ASSERT_EQ(m.col_rows(0).size(), 21u);
  EXPECT_EQ(m.col_rows(0)[20], 21);
  EXPECT_EQ(m.col_values(0)[20], 1.0);
  ASSERT_EQ(m.col_rows(1).size(), 20u);
  EXPECT_EQ(m.col_rows(1)[19], 19);
  EXPECT_TRUE(m.row_cols(22).empty());
  ASSERT_EQ(m.row_cols(21).size(), 1u);
  EXPECT_EQ(m.row_values(21)[0], 1.0);
}

TEST(SparseMatrix, OutOfRangeTripletThrows) {
  std::vector<Triplet> t{{0, 7, 1.0}};
  EXPECT_THROW(SparseMatrix(2, 2, t), std::out_of_range);
}

TEST(SparseMatrix, AxpyColumn) {
  std::vector<Triplet> t{{0, 0, 2.0}, {2, 0, -1.0}};
  SparseMatrix m(3, 1, t);
  std::vector<double> y{1.0, 1.0, 1.0};
  m.axpy_column(0, 3.0, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], -2.0);
}

TEST(SparseMatrix, DotColumn) {
  std::vector<Triplet> t{{0, 0, 2.0}, {2, 0, -1.0}};
  SparseMatrix m(3, 1, t);
  std::vector<double> x{1.0, 10.0, 4.0};
  EXPECT_DOUBLE_EQ(m.dot_column(0, x), 2.0 - 4.0);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int rows = 1 + static_cast<int>(rng() % 8);
    const int cols = 1 + static_cast<int>(rng() % 8);
    std::vector<std::vector<double>> dense(rows, std::vector<double>(cols, 0));
    std::vector<Triplet> trips;
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c)
        if (rng() % 3 == 0) {
          const double v = val(rng);
          dense[r][c] = v;
          trips.push_back({r, c, v});
        }
    SparseMatrix m(rows, cols, trips);
    std::vector<double> x(cols);
    for (double& v : x) v = val(rng);
    auto y = m.multiply(x);
    for (int r = 0; r < rows; ++r) {
      double expect = 0;
      for (int c = 0; c < cols; ++c) expect += dense[r][c] * x[c];
      EXPECT_NEAR(y[r], expect, 1e-12);
    }
  }
}

TEST(SparseMatrix, AppendRowsExtendsCscAndCsrMirror) {
  // Branch & cut grows the working matrix by cut rows against a warm
  // basis; both access paths (columns for FTRAN, rows for hypersparse
  // pricing) must agree with a from-scratch build afterwards.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  const int rows = 9, cols = 13, extra = 4;
  std::vector<Triplet> base, appended;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng() % 3 == 0) base.push_back({r, c, val(rng)});
  for (int r = rows; r < rows + extra; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng() % 4 == 0) appended.push_back({r, c, val(rng)});
  // A duplicate triplet in an appended row must be summed like the ctor.
  appended.push_back({rows, 2, 0.5});
  appended.push_back({rows, 2, 0.25});

  SparseMatrix grown(rows, cols, base);
  grown.append_rows(extra, appended);
  std::vector<Triplet> all = base;
  all.insert(all.end(), appended.begin(), appended.end());
  SparseMatrix fresh(rows + extra, cols, all);

  ASSERT_EQ(grown.rows(), fresh.rows());
  ASSERT_EQ(grown.nnz(), fresh.nnz());
  for (int j = 0; j < cols; ++j) {
    auto gr = grown.col_rows(j), fr = fresh.col_rows(j);
    auto gv = grown.col_values(j), fv = fresh.col_values(j);
    ASSERT_EQ(gr.size(), fr.size()) << "col " << j;
    for (size_t k = 0; k < gr.size(); ++k) {
      EXPECT_EQ(gr[k], fr[k]);
      EXPECT_EQ(gv[k], fv[k]);
    }
  }
  for (int i = 0; i < rows + extra; ++i) {
    auto gc = grown.row_cols(i), fc = fresh.row_cols(i);
    auto gv = grown.row_values(i), fv = fresh.row_values(i);
    ASSERT_EQ(gc.size(), fc.size()) << "row " << i;
    for (size_t k = 0; k < gc.size(); ++k) {
      EXPECT_EQ(gc[k], fc[k]);
      EXPECT_EQ(gv[k], fv[k]);
    }
  }
}

TEST(SparseMatrix, AppendRowsRejectsOutOfRangeTriplets) {
  SparseMatrix m(2, 2, std::vector<Triplet>{{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(m.append_rows(1, std::vector<Triplet>{{0, 0, 1.0}}),
               std::out_of_range);  // touches an existing row
  EXPECT_THROW(m.append_rows(1, std::vector<Triplet>{{3, 0, 1.0}}),
               std::out_of_range);  // beyond the appended range
}

}  // namespace
}  // namespace checkmate::lp
