#include "lp/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "robust/fault_injection.h"

namespace checkmate::lp {

// Pins a factorization to its sparse (reach-based) or dense solve loops,
// bypassing the density switch, so the two can be compared bit for bit.
struct LuTestAccess {
  static void pin_sparse(LuFactorization& lu) {
    lu.path_ = LuFactorization::Path::kSparse;
  }
  static void pin_dense(LuFactorization& lu) {
    lu.path_ = LuFactorization::Path::kDense;
  }
};

namespace {

// Lists exactly the nonzeros of x.val, so tests hand the solves sparse
// index lists.
void index_nonzeros(WorkVector& x) {
  x.idx.clear();
  for (int i = 0; i < static_cast<int>(x.val.size()); ++i)
    if (x.val[i] != 0.0) x.idx.push_back(i);
}

void expect_valid_index(const WorkVector& x, const char* what) {
  EXPECT_TRUE(std::is_sorted(x.idx.begin(), x.idx.end())) << what;
  EXPECT_TRUE(std::adjacent_find(x.idx.begin(), x.idx.end()) == x.idx.end())
      << what;
  std::vector<char> listed(x.val.size(), 0);
  for (int i : x.idx) listed[i] = 1;
  int unlisted = 0;
  for (size_t i = 0; i < x.val.size(); ++i)
    if (x.val[i] != 0.0 && !listed[i]) ++unlisted;
  EXPECT_EQ(unlisted, 0) << what;
}

// Dense-vector adapters over the work-vector solves.
WorkVector work(const std::vector<double>& v) {
  WorkVector x;
  x.val = v;
  index_nonzeros(x);
  return x;
}
void ftran(const LuFactorization& lu, std::vector<double>& v) {
  WorkVector x = work(v);
  lu.ftran(x);
  v = x.val;
}
void btran(const LuFactorization& lu, std::vector<double>& v) {
  WorkVector x = work(v);
  lu.btran(x);
  v = x.val;
}
void ftran_spike(LuFactorization& lu, std::vector<double>& v) {
  WorkVector x = work(v);
  lu.ftran_spike(x);
  v = x.val;
}
void ftran_finish(const LuFactorization& lu, std::vector<double>& v) {
  WorkVector x = work(v);
  lu.ftran_finish(x);
  v = x.val;
}

// Helper owning column storage for factorize().
struct ColumnSet {
  std::vector<std::vector<int>> rows;
  std::vector<std::vector<double>> vals;

  void add(std::vector<int> r, std::vector<double> v) {
    rows.push_back(std::move(r));
    vals.push_back(std::move(v));
  }
  std::vector<BasisColumn> view() const {
    std::vector<BasisColumn> cols;
    for (size_t i = 0; i < rows.size(); ++i)
      cols.push_back({rows[i], vals[i]});
    return cols;
  }
};

std::vector<std::vector<double>> to_dense(const ColumnSet& cs, int m) {
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  for (int j = 0; j < m; ++j)
    for (size_t k = 0; k < cs.rows[j].size(); ++k)
      a[cs.rows[j][k]][j] = cs.vals[j][k];
  return a;
}

TEST(LuFactorization, Identity) {
  ColumnSet cs;
  for (int j = 0; j < 4; ++j) cs.add({j}, {1.0});
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(4, cs.view()));
  std::vector<double> x{1, 2, 3, 4};
  ftran(lu, x);
  EXPECT_NEAR(x[0], 1, 1e-12);
  EXPECT_NEAR(x[3], 4, 1e-12);
  std::vector<double> y{5, 6, 7, 8};
  btran(lu, y);
  EXPECT_NEAR(y[2], 7, 1e-12);
}

TEST(LuFactorization, NegatedIdentity) {
  // The all-slack simplex basis is -I.
  ColumnSet cs;
  for (int j = 0; j < 3; ++j) cs.add({j}, {-1.0});
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(3, cs.view()));
  std::vector<double> x{2, -4, 6};
  ftran(lu, x);
  EXPECT_NEAR(x[0], -2, 1e-12);
  EXPECT_NEAR(x[1], 4, 1e-12);
  EXPECT_NEAR(x[2], -6, 1e-12);
}

TEST(LuFactorization, Permutation) {
  // B = permutation matrix: column j has a 1 in row (j+1) mod 3.
  ColumnSet cs;
  cs.add({1}, {1.0});
  cs.add({2}, {1.0});
  cs.add({0}, {1.0});
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(3, cs.view()));
  // Solve B x = b where b = (b0,b1,b2): x_j must satisfy x appears at
  // row (j+1)%3, i.e. x = (b1, b2, b0).
  std::vector<double> x{10, 20, 30};
  ftran(lu, x);
  EXPECT_NEAR(x[0], 20, 1e-12);
  EXPECT_NEAR(x[1], 30, 1e-12);
  EXPECT_NEAR(x[2], 10, 1e-12);
}

TEST(LuFactorization, SingularDetected) {
  ColumnSet cs;
  cs.add({0, 1}, {1.0, 1.0});
  cs.add({0, 1}, {2.0, 2.0});  // linearly dependent
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(2, cs.view()));
}

TEST(LuFactorization, ZeroColumnSingular) {
  ColumnSet cs;
  cs.add({0}, {1.0});
  cs.add({}, {});
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(2, cs.view()));
}

// Checks a failed factorization behaves as the identity on a 1-nonzero
// RHS in every solve, through both the sparse and the dense loops.
void expect_identity_solves(LuFactorization& lu, int m) {
  ASSERT_EQ(lu.dim(), m);
  EXPECT_EQ(lu.updates(), 0);
  for (bool sparse : {true, false}) {
    if (sparse) {
      LuTestAccess::pin_sparse(lu);
    } else {
      LuTestAccess::pin_dense(lu);
    }
    for (int i = 0; i < m; ++i) {
      for (int solve = 0; solve < 3; ++solve) {
        WorkVector x;
        x.reset(m);
        x.val[i] = 2.5;
        x.idx.push_back(i);
        if (solve == 0) lu.ftran(x);
        if (solve == 1) lu.btran(x);
        if (solve == 2) {
          lu.ftran_spike(x);
          lu.ftran_finish(x);
        }
        for (int k = 0; k < m; ++k)
          EXPECT_EQ(x.val[k], k == i ? 2.5 : 0.0) << "solve " << solve;
        expect_valid_index(x, "identity solve");
      }
    }
  }
}

TEST(LuFactorization, FailedFactorizationIsMemorySafe) {
  // Regression: a singular basis used to leave pivot_row_ half-filled with
  // -1, and a subsequent solve wrote out of bounds. After failure the
  // factors must behave as a benign identity.
  ColumnSet cs;
  cs.add({0, 1}, {1.0, 1.0});
  cs.add({0, 1}, {2.0, 2.0});
  LuFactorization lu;
  ASSERT_FALSE(lu.factorize(2, cs.view()));
  std::vector<double> x{3.0, 4.0};
  ftran(lu, x);  // must not crash
  std::vector<double> y{5.0, 6.0};
  btran(lu, y);  // must not crash
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(y[1], 6.0, 1e-12);
  expect_identity_solves(lu, 2);
}

// A larger factorization with Forrest-Tomlin state, so a later failure has
// stale L, U, transposed structures and etas to discard.
void factorize_with_updates(LuFactorization& lu) {
  const int m = 6;
  ColumnSet cs;
  for (int j = 0; j < m; ++j)
    cs.add({j, (j + 1) % m, (j + 3) % m}, {4.0, 1.0, -1.0});
  ASSERT_TRUE(lu.factorize(m, cs.view()));
  std::vector<double> w{1.0, 0.5, 0.0, 0.0, 2.0, 0.0};
  ftran_spike(lu, w);
  ASSERT_TRUE(lu.update(4));
}

TEST(LuFactorization, SingularAfterUpdatesResetsEveryStructure) {
  LuFactorization lu;
  factorize_with_updates(lu);
  ColumnSet cs;
  cs.add({0, 1}, {1.0, 1.0});
  cs.add({0, 1}, {2.0, 2.0});
  ColumnSet wide = cs;  // a third column so m = 3 differs from both sizes
  wide.add({2}, {0.0});
  ASSERT_FALSE(lu.factorize(3, wide.view()));
  expect_identity_solves(lu, 3);
}

TEST(LuFactorization, InjectedFaultResetsEveryStructure) {
#ifdef CHECKMATE_FAULT_INJECTION
  LuFactorization lu;
  factorize_with_updates(lu);
  ColumnSet cs;
  for (int j = 0; j < 4; ++j) cs.add({j}, {1.0});
  auto& inj = robust::FaultInjector::instance();
  inj.arm(robust::FaultPoint::kLuFactorize, 1, 1, 1);
  const bool ok = lu.factorize(4, cs.view());
  inj.disarm_all();
  ASSERT_FALSE(ok);
  expect_identity_solves(lu, 4);
#else
  GTEST_SKIP() << "needs -DCHECKMATE_FAULT_INJECTION=ON";
#endif
}

TEST(LuFactorization, RandomDenseRoundTrip) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = 1 + static_cast<int>(rng() % 12);
    ColumnSet cs;
    for (int j = 0; j < m; ++j) {
      std::vector<int> rows;
      std::vector<double> vals;
      for (int r = 0; r < m; ++r) {
        if (rng() % 3 != 0) continue;
        rows.push_back(r);
        vals.push_back(val(rng));
      }
      // Guarantee nonsingularity odds with a strong diagonal entry.
      bool has_diag = false;
      for (size_t k = 0; k < rows.size(); ++k)
        if (rows[k] == j) {
          vals[k] += 5.0;
          has_diag = true;
        }
      if (!has_diag) {
        rows.push_back(j);
        vals.push_back(5.0 + val(rng));
      }
      cs.add(std::move(rows), std::move(vals));
    }
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(m, cs.view())) << "trial " << trial;
    const auto dense = to_dense(cs, m);

    // FTRAN: pick x*, compute b = B x*, solve, compare.
    std::vector<double> x_star(m), b(m, 0.0);
    for (double& v : x_star) v = val(rng);
    for (int r = 0; r < m; ++r)
      for (int j = 0; j < m; ++j) b[r] += dense[r][j] * x_star[j];
    std::vector<double> x = b;
    ftran(lu, x);
    for (int j = 0; j < m; ++j)
      EXPECT_NEAR(x[j], x_star[j], 1e-7) << "ftran trial " << trial;

    // BTRAN: pick y*, compute c = B' y*, solve, compare.
    std::vector<double> y_star(m), c(m, 0.0);
    for (double& v : y_star) v = val(rng);
    for (int j = 0; j < m; ++j)
      for (int r = 0; r < m; ++r) c[j] += dense[r][j] * y_star[r];
    std::vector<double> y = c;
    btran(lu, y);
    for (int r = 0; r < m; ++r)
      EXPECT_NEAR(y[r], y_star[r], 1e-7) << "btran trial " << trial;
  }
}

// Shared driver for the Forrest-Tomlin corpus: factorize a random basis,
// replace random columns via ftran_spike + update, and after every step
// check FTRAN/BTRAN against a fresh factorization of the updated column set.
void run_ft_trials(std::mt19937& rng, int trials, int max_m, int updates) {
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  auto random_column = [&](int m, int diag) {
    std::vector<int> rows;
    std::vector<double> vals;
    for (int r = 0; r < m; ++r) {
      if (rng() % 3 != 0) continue;
      rows.push_back(r);
      vals.push_back(val(rng));
    }
    bool has_diag = false;
    for (size_t k = 0; k < rows.size(); ++k)
      if (rows[k] == diag) {
        vals[k] += 5.0;
        has_diag = true;
      }
    if (!has_diag) {
      rows.push_back(diag);
      vals.push_back(5.0 + val(rng));
    }
    return std::make_pair(std::move(rows), std::move(vals));
  };
  for (int trial = 0; trial < trials; ++trial) {
    const int m = 2 + static_cast<int>(rng() % (max_m - 1));
    ColumnSet cs;
    for (int j = 0; j < m; ++j) {
      auto [rows, vals] = random_column(m, j);
      cs.add(std::move(rows), std::move(vals));
    }
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(m, cs.view())) << "trial " << trial;

    int applied = 0;
    for (int step = 0; step < updates; ++step) {
      const int pos = static_cast<int>(rng() % m);
      auto [rows, vals] = random_column(m, pos);

      // Candidate column through the partial solve; update consumes the
      // stashed spike. An unstable rejection leaves the factors usable.
      std::vector<double> w(m, 0.0);
      for (size_t k = 0; k < rows.size(); ++k) w[rows[k]] = vals[k];
      ftran_spike(lu, w);
      if (!lu.update(pos)) continue;
      ++applied;
      cs.rows[pos] = rows;
      cs.vals[pos] = vals;

      // Reference: a fresh factorization of the same updated column set.
      LuFactorization fresh;
      ASSERT_TRUE(fresh.factorize(m, cs.view()))
          << "trial " << trial << " step " << step;

      std::vector<double> b(m), x1(m), x2(m);
      for (double& v : b) v = val(rng);
      x1 = b;
      x2 = b;
      ftran(lu, x1);
      ftran(fresh, x2);
      for (int j = 0; j < m; ++j)
        EXPECT_NEAR(x1[j], x2[j], 1e-7)
            << "ftran trial " << trial << " step " << step;

      std::vector<double> c(m), y1(m), y2(m);
      for (double& v : c) v = val(rng);
      y1 = c;
      y2 = c;
      btran(lu, y1);
      btran(fresh, y2);
      for (int r = 0; r < m; ++r)
        EXPECT_NEAR(y1[r], y2[r], 1e-7)
            << "btran trial " << trial << " step " << step;

      // ftran_spike + ftran_finish must compose to exactly ftran (the
      // engine relies on this to reuse the entering column's solve).
      std::vector<double> x3 = b;
      ftran_spike(lu, x3);
      ftran_finish(lu, x3);
      for (int j = 0; j < m; ++j)
        EXPECT_NEAR(x3[j], x1[j], 1e-12)
            << "spike/finish trial " << trial << " step " << step;
    }
    EXPECT_EQ(lu.updates(), applied);
  }
}

TEST(LuFactorization, ForrestTomlinRandomReplacements) {
  std::mt19937 rng(7);
  run_ft_trials(rng, 20, 10, 12);
}

TEST(LuFactorization, ForrestTomlinLongSequences) {
  // More updates than dimensions: every slot gets respiked repeatedly, so
  // the logical order churns and the eta list grows past m.
  std::mt19937 rng(11);
  run_ft_trials(rng, 8, 6, 24);
}

TEST(LuFactorization, ForrestTomlinUnstableUpdateRejected) {
  // Replacing column 1 of the identity with a column that has a zero in the
  // pivot position and no way to eliminate it must be rejected, and the
  // factors must remain the (unchanged) identity.
  ColumnSet cs;
  for (int j = 0; j < 3; ++j) cs.add({j}, {1.0});
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(3, cs.view()));
  std::vector<double> w{1.0, 0.0, 0.0};  // new column 1 == old column 0
  ftran_spike(lu, w);
  EXPECT_FALSE(lu.update(1));
  EXPECT_EQ(lu.updates(), 0);
  std::vector<double> x{2.0, 3.0, 4.0};
  ftran(lu, x);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuFactorization, UpdateWithoutSpikeIsRejected) {
  ColumnSet cs;
  for (int j = 0; j < 2; ++j) cs.add({j}, {1.0});
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(2, cs.view()));
  EXPECT_FALSE(lu.update(0));  // no pending spike
  std::vector<double> w{0.5, 0.25};
  ftran_spike(lu, w);
  EXPECT_TRUE(lu.update(0));
  EXPECT_FALSE(lu.update(0));  // spike already consumed
}

TEST(LuFactorization, RefactorizeDiscardsUpdates) {
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  ColumnSet cs;
  for (int j = 0; j < 4; ++j) cs.add({j}, {2.0});
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(4, cs.view()));
  std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  ftran_spike(lu, w);
  ASSERT_TRUE(lu.update(2));
  EXPECT_EQ(lu.updates(), 1);
  ASSERT_TRUE(lu.factorize(4, cs.view()));
  EXPECT_EQ(lu.updates(), 0);
  std::vector<double> x{2.0, 4.0, 6.0, 8.0};
  ftran(lu, x);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(LuFactorization, LargeSparseSystem) {
  // Tridiagonal-ish system of size 500: verifies scalability and fill
  // handling.
  const int m = 500;
  ColumnSet cs;
  for (int j = 0; j < m; ++j) {
    std::vector<int> rows{j};
    std::vector<double> vals{4.0};
    if (j > 0) {
      rows.push_back(j - 1);
      vals.push_back(-1.0);
    }
    if (j + 1 < m) {
      rows.push_back(j + 1);
      vals.push_back(-1.0);
    }
    cs.add(std::move(rows), std::move(vals));
  }
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(m, cs.view()));
  std::vector<double> ones(m, 1.0);
  std::vector<double> x = ones;
  ftran(lu, x);
  // Verify B x == 1 by residual.
  std::vector<double> residual(m, 0.0);
  for (int j = 0; j < m; ++j)
    for (size_t k = 0; k < cs.rows[j].size(); ++k)
      residual[cs.rows[j][k]] += cs.vals[j][k] * x[j];
  for (int r = 0; r < m; ++r) EXPECT_NEAR(residual[r], 1.0, 1e-8);
}

// ---- Sparse vs dense cross-check. Three factorizations of the same random
// sparse basis -- one pinned to the reach-based sparse loops, one to the
// dense loops, one on the density switch -- must agree bit for bit (+0 and
// -0 compare equal) on every solve, fresh and after each Forrest-Tomlin
// update, and every returned index list must be sorted, free of repeats,
// and cover every nonzero.

void expect_same_values(const WorkVector& a, const WorkVector& b,
                        const char* what) {
  ASSERT_EQ(a.val.size(), b.val.size());
  int mismatches = 0;
  for (size_t i = 0; i < a.val.size(); ++i)
    if (!(a.val[i] == b.val[i])) ++mismatches;
  EXPECT_EQ(mismatches, 0) << what;
}

// Simplex-like basis column for position `pos`: a unit slack column with
// probability 0.4, else a strong entry in row `pos` plus 1-3 others.
std::pair<std::vector<int>, std::vector<double>> sparse_column(
    std::mt19937& rng, int m, int pos) {
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  if (rng() % 5 < 2) return {{pos}, {-1.0}};
  std::vector<int> rows{pos};
  std::vector<double> vals{4.0 + std::abs(val(rng))};
  const int extra = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < extra; ++e) {
    const int r = static_cast<int>(rng() % m);
    if (std::find(rows.begin(), rows.end(), r) != rows.end()) continue;
    rows.push_back(r);
    vals.push_back(val(rng));
  }
  return {rows, vals};
}

// Random RHS with `count` distinct nonzeros.
WorkVector random_rhs(std::mt19937& rng, int m, int count) {
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  WorkVector x;
  x.reset(m);
  std::vector<int> rows(m);
  for (int i = 0; i < m; ++i) rows[i] = i;
  std::shuffle(rows.begin(), rows.end(), rng);
  for (int k = 0; k < count; ++k) x.val[rows[k]] = val(rng);
  index_nonzeros(x);
  return x;
}

// Runs ftran, btran and ftran_spike + ftran_finish on every path for RHS
// with 1 nonzero, 1%, 30% and all entries nonzero.
void expect_paths_agree(std::vector<LuFactorization>& lus, std::mt19937& rng,
                        int m) {
  for (int count : {1, std::max(1, m / 100), (3 * m) / 10, m}) {
    const WorkVector rhs = random_rhs(rng, m, count);
    for (int solve = 0; solve < 3; ++solve) {
      std::vector<WorkVector> out(lus.size(), rhs);
      for (size_t p = 0; p < lus.size(); ++p) {
        if (solve == 0) lus[p].ftran(out[p]);
        if (solve == 1) lus[p].btran(out[p]);
        if (solve == 2) {
          lus[p].ftran_spike(out[p]);
          lus[p].ftran_finish(out[p]);
        }
        expect_valid_index(out[p], "index list");
      }
      const char* what[] = {"ftran", "btran", "ftran_spike+ftran_finish"};
      for (size_t p = 1; p < lus.size(); ++p)
        expect_same_values(out[0], out[p], what[solve]);
    }
  }
}

TEST(LuFactorization, SparseSolvesMatchDenseLoops) {
  std::mt19937 rng(17);
  for (int m : {40, 400, 2000}) {
    SCOPED_TRACE(m);
    ColumnSet cs;
    for (int j = 0; j < m; ++j) {
      auto [rows, vals] = sparse_column(rng, m, j);
      cs.add(std::move(rows), std::move(vals));
    }
    std::vector<LuFactorization> lus(3);  // dense, sparse, density switch
    LuTestAccess::pin_dense(lus[0]);
    LuTestAccess::pin_sparse(lus[1]);
    for (auto& lu : lus) ASSERT_TRUE(lu.factorize(m, cs.view()));
    expect_paths_agree(lus, rng, m);

    int applied = 0;
    for (int step = 0; step < 400 && applied < 192; ++step) {
      const int pos = static_cast<int>(rng() % m);
      auto [rows, vals] = sparse_column(rng, m, pos);
      std::vector<WorkVector> spikes(lus.size());
      bool accepted[3];
      for (size_t p = 0; p < lus.size(); ++p) {
        spikes[p].reset(m);
        for (size_t k = 0; k < rows.size(); ++k) {
          spikes[p].val[rows[k]] = vals[k];
          spikes[p].idx.push_back(rows[k]);
        }
        std::sort(spikes[p].idx.begin(), spikes[p].idx.end());
        lus[p].ftran_spike(spikes[p]);
        accepted[p] = lus[p].update(pos);
      }
      expect_same_values(spikes[0], spikes[1], "spike");
      expect_same_values(spikes[0], spikes[2], "spike");
      ASSERT_EQ(accepted[0], accepted[1]);
      ASSERT_EQ(accepted[0], accepted[2]);
      if (!accepted[0]) continue;
      ++applied;
      ASSERT_EQ(lus[0].updates(), applied);
      expect_paths_agree(lus, rng, m);
    }
    EXPECT_EQ(applied, 192);
  }
}

}  // namespace
}  // namespace checkmate::lp
