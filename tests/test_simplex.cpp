#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/scheduler.h"
#include "dense_simplex.h"
#include "milp/milp.h"

namespace checkmate::lp {
namespace {

std::vector<std::pair<int, double>> terms(
    std::initializer_list<std::pair<int, double>> t) {
  return t;
}

TEST(DualSimplex, TrivialBoundsOnly) {
  LinearProgram lp;
  lp.add_var(1.0, 5.0, 1.0);
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-8);
}

TEST(DualSimplex, ClassicTwoVariable) {
  LinearProgram lp;
  int x = lp.add_var(0, kInf, -3.0);
  int y = lp.add_var(0, kInf, -5.0);
  lp.add_le(terms({{x, 1.0}}), 4.0);
  lp.add_le(terms({{y, 2.0}}), 12.0);
  lp.add_le(terms({{x, 3.0}, {y, 2.0}}), 18.0);
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -36.0, 1e-6);
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);
  EXPECT_NEAR(res.x[1], 6.0, 1e-6);
}

TEST(DualSimplex, EqualityConstraint) {
  LinearProgram lp;
  int x = lp.add_var(0, kInf, 1.0);
  int y = lp.add_var(0, kInf, 2.0);
  lp.add_eq(terms({{x, 1.0}, {y, 1.0}}), 3.0);
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, 1e-8);
}

TEST(DualSimplex, InfeasibleDetected) {
  LinearProgram lp;
  int x = lp.add_var(0, 1, 1.0);
  lp.add_ge(terms({{x, 1.0}}), 5.0);
  auto res = solve_lp(lp);
  EXPECT_EQ(res.status, LpStatus::kInfeasible);
}

TEST(DualSimplex, InfeasibleBoundVsEquality) {
  LinearProgram lp;
  int x = lp.add_var(0, 2, 0.0);
  int y = lp.add_var(0, 2, 0.0);
  lp.add_eq(terms({{x, 1.0}, {y, 1.0}}), 10.0);
  auto res = solve_lp(lp);
  EXPECT_EQ(res.status, LpStatus::kInfeasible);
}

TEST(DualSimplex, RangedRow) {
  LinearProgram lp;
  int x = lp.add_var(0, 10, 1.0);
  int y = lp.add_var(0, 1, 0.0);
  lp.add_constraint(terms({{x, 1.0}, {y, 1.0}}), 2.0, 5.0);
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-8);
}

TEST(DualSimplex, NegativeCostBoundedAbove) {
  // min -x - 2y, x in [0,3], y in [0,4], x + y <= 5 => x=1? No:
  // maximize x + 2y: y=4, x=1, obj = -9.
  LinearProgram lp;
  int x = lp.add_var(0, 3, -1.0);
  int y = lp.add_var(0, 4, -2.0);
  lp.add_le(terms({{x, 1.0}, {y, 1.0}}), 5.0);
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -9.0, 1e-7);
}

TEST(DualSimplex, WarmStartAfterBoundChange) {
  LinearProgram lp;
  int x = lp.add_var(0, 10, 1.0);
  int y = lp.add_var(0, 10, 1.0);
  lp.add_ge(terms({{x, 1.0}, {y, 1.0}}), 4.0);
  DualSimplex solver(lp);
  auto res = solver.solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 4.0, 1e-8);

  // Force x >= 3: still optimal at obj 4 (x=3, y=1 or x=4).
  solver.set_var_bounds(x, 3.0, 10.0);
  res = solver.solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 4.0, 1e-8);
  EXPECT_GE(res.x[0], 3.0 - 1e-9);

  // Force x == 0 and y <= 1: infeasible (x + y <= 1 < 4).
  solver.set_var_bounds(x, 0.0, 0.0);
  solver.set_var_bounds(y, 0.0, 1.0);
  res = solver.solve();
  EXPECT_EQ(res.status, LpStatus::kInfeasible);

  // Relax back: optimal again.
  solver.set_var_bounds(x, 0.0, 10.0);
  solver.set_var_bounds(y, 0.0, 10.0);
  res = solver.solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 4.0, 1e-8);
}

TEST(DualSimplex, FixedVariableNeverEnters) {
  LinearProgram lp;
  int x = lp.add_var(2.0, 2.0, 1.0);  // fixed
  int y = lp.add_var(0, kInf, 1.0);
  lp.add_ge(terms({{x, 1.0}, {y, 1.0}}), 5.0);
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-9);
  EXPECT_NEAR(res.objective, 5.0, 1e-7);
}

// Randomized cross-validation against the dense reference solver. Random
// LPs with bounded variables are always either optimal or infeasible, and
// the two solvers must agree on status and objective.
TEST(DualSimplex, MatchesDenseReferenceOnRandomLps) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_real_distribution<double> cost(-2.0, 2.0);
  int optimal_count = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 6);
    const int m = 1 + static_cast<int>(rng() % 6);
    LinearProgram lp;
    for (int j = 0; j < n; ++j) {
      double lo = (rng() % 4 == 0) ? -static_cast<double>(rng() % 3) : 0.0;
      double hi = lo + 1.0 + static_cast<double>(rng() % 5);
      lp.add_var(lo, hi, cost(rng));
    }
    for (int r = 0; r < m; ++r) {
      std::vector<std::pair<int, double>> t;
      for (int j = 0; j < n; ++j)
        if (rng() % 2) t.emplace_back(j, coef(rng));
      const double rhs = coef(rng) * 2.0;
      switch (rng() % 3) {
        case 0: lp.add_le(t, rhs); break;
        case 1: lp.add_ge(t, rhs); break;
        default: lp.add_constraint(t, rhs, rhs + (rng() % 3)); break;
      }
    }
    auto sparse = solve_lp(lp);
    auto dense = solve_dense_reference(lp);
    ASSERT_EQ(sparse.status, dense.status) << "trial " << trial;
    if (sparse.status == LpStatus::kOptimal) {
      ++optimal_count;
      EXPECT_NEAR(sparse.objective, dense.objective, 1e-5)
          << "trial " << trial;
      EXPECT_LE(lp.max_violation(sparse.x), 1e-6) << "trial " << trial;
    }
  }
  // The generator should produce a healthy mix of feasible instances.
  EXPECT_GT(optimal_count, 30);
}

// ---------------------------------------------------------------------
// Snapshot / clone API: the substrate of the parallel branch & bound
// (children warm-start from the parent basis on whichever worker picks
// them up).

LinearProgram clone_test_lp(int n, uint32_t seed) {
  std::mt19937 rng(seed);
  LinearProgram lp;
  for (int j = 0; j < n; ++j)
    lp.add_var(0.0, 4.0 + (rng() % 4), 1.0 + static_cast<double>(rng() % 7));
  for (int r = 0; r < n; ++r) {
    std::vector<std::pair<int, double>> t{{r, 1.0}};
    if (r + 1 < n) t.emplace_back(r + 1, 0.5 + (rng() % 2));
    if (r + 5 < n) t.emplace_back(r + 5, 0.25);
    lp.add_ge(t, 2.0 + (rng() % 3));
  }
  return lp;
}

TEST(DualSimplex, CloneResolvesToIdenticalObjectiveAndBasis) {
  // After an arbitrary set_var_bounds sequence, a clone must re-solve to
  // the identical objective and primal point: the original sits at an
  // optimal basis, the clone restores that basis (lazy refactorize) and
  // its first solve must accept it without further pivoting.
  LinearProgram lp = clone_test_lp(24, 3u);
  DualSimplex original(lp);
  ASSERT_EQ(original.solve().status, LpStatus::kOptimal);

  std::mt19937 rng(17);
  LpResult last;
  for (int step = 0; step < 12; ++step) {
    const int j = static_cast<int>(rng() % 24);
    const double lo = static_cast<double>(rng() % 3);
    original.set_var_bounds(j, lo, lo + 1.0 + (rng() % 3));
    last = original.solve();
  }
  ASSERT_EQ(last.status, LpStatus::kOptimal);

  // The clone adopts the same optimal basis and re-solves to the same
  // optimum. (Not bitwise vs the original: the clone refactorizes fresh
  // while the original accumulated an eta file, so the numerics differ at
  // the last ulp -- what IS bitwise is clone-vs-clone, below.)
  DualSimplex copy = original.clone();
  const LpResult re = copy.solve();
  ASSERT_EQ(re.status, LpStatus::kOptimal);
  EXPECT_NEAR(re.objective, last.objective, 1e-9);
  ASSERT_EQ(re.x.size(), last.x.size());
  for (size_t j = 0; j < re.x.size(); ++j)
    EXPECT_NEAR(re.x[j], last.x[j], 1e-9);
  // Identical bound state came along with the basis.
  for (int j = 0; j < lp.num_vars(); ++j) {
    EXPECT_EQ(copy.var_lower(j), original.var_lower(j));
    EXPECT_EQ(copy.var_upper(j), original.var_upper(j));
  }

  // Two clones of the same engine are bit-identical to each other: the
  // post-restore trajectory is a pure function of the snapshot, which is
  // the determinism contract the parallel branch & bound relies on.
  DualSimplex twin_a = original.clone();
  DualSimplex twin_b = original.clone();
  const LpResult ra = twin_a.solve();
  const LpResult rb = twin_b.solve();
  ASSERT_EQ(ra.status, LpStatus::kOptimal);
  EXPECT_EQ(ra.objective, rb.objective);
  EXPECT_EQ(ra.iterations, rb.iterations);
  for (size_t j = 0; j < ra.x.size(); ++j) EXPECT_EQ(ra.x[j], rb.x[j]);
}

TEST(DualSimplex, CloneDivergesIndependentlyAfterTheFork) {
  // Post-fork bound changes on one engine must not leak into the other.
  LinearProgram lp = clone_test_lp(16, 9u);
  DualSimplex a(lp);
  ASSERT_EQ(a.solve().status, LpStatus::kOptimal);
  DualSimplex b = a.clone();

  a.set_var_bounds(0, 3.0, 3.0);
  const LpResult ra = a.solve();
  const LpResult rb = b.solve();  // b still solves the unrestricted LP
  ASSERT_EQ(ra.status, LpStatus::kOptimal);
  ASSERT_EQ(rb.status, LpStatus::kOptimal);
  EXPECT_GE(ra.objective, rb.objective - 1e-9);  // a is more constrained
  EXPECT_NEAR(ra.x[0], 3.0, 1e-9);

  // And the same fork applied to the clone reconverges exactly.
  b.set_var_bounds(0, 3.0, 3.0);
  const LpResult rb2 = b.solve();
  ASSERT_EQ(rb2.status, LpStatus::kOptimal);
  EXPECT_NEAR(rb2.objective, ra.objective, 1e-7);
}

TEST(DualSimplex, SnapshotRestoreRoundTripOnSameEngine) {
  LinearProgram lp = clone_test_lp(12, 21u);
  DualSimplex solver(lp);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  solver.set_var_bounds(2, 1.0, 2.0);
  const LpResult at_snap = solver.solve();
  ASSERT_EQ(at_snap.status, LpStatus::kOptimal);
  const auto snap = solver.snapshot();

  // Wander off...
  solver.set_var_bounds(2, 0.0, 0.0);
  solver.set_var_bounds(5, 2.0, 2.0);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

  // ...and come back: bounds and optimum are the snapshot's (the re-solve
  // runs on a fresh factorization, so equality is numerical, and a second
  // restore reproduces the first bit-for-bit).
  solver.restore(snap);
  const LpResult back = solver.solve();
  ASSERT_EQ(back.status, LpStatus::kOptimal);
  EXPECT_NEAR(back.objective, at_snap.objective, 1e-9);
  EXPECT_EQ(solver.var_lower(2), 1.0);
  EXPECT_EQ(solver.var_upper(2), 2.0);
  solver.restore(snap);
  const LpResult again = solver.solve();
  ASSERT_EQ(again.status, LpStatus::kOptimal);
  EXPECT_EQ(again.objective, back.objective);
  EXPECT_EQ(again.iterations, back.iterations);
}

TEST(DualSimplex, InvalidSnapshotRestoresFreshEngine) {
  // A default-constructed snapshot (or one taken before the first solve)
  // resets the engine: next solve rebuilds from the slack basis and any
  // bound overrides are gone.
  LinearProgram lp = clone_test_lp(8, 33u);
  DualSimplex never_solved(lp);
  const auto unsolved = never_solved.snapshot();
  EXPECT_FALSE(unsolved->valid());

  DualSimplex solver(lp);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  const double clean_obj = solve_lp(lp).objective;
  solver.set_var_bounds(1, 3.0, 3.0);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  solver.restore(nullptr);
  const LpResult fresh = solver.solve();
  ASSERT_EQ(fresh.status, LpStatus::kOptimal);
  EXPECT_NEAR(fresh.objective, clean_obj, 1e-9);
  EXPECT_EQ(solver.var_lower(1), lp.lb[1]);
  EXPECT_EQ(solver.var_upper(1), lp.ub[1]);
}

TEST(DualSimplex, CloneBeforeFirstSolveKeepsBoundOverrides) {
  // A clone taken after set_var_bounds but before any solve() has no basis
  // to carry, but it must still see the same feasible region.
  LinearProgram lp = clone_test_lp(10, 55u);
  DualSimplex original(lp);
  original.set_var_bounds(0, 3.0, 3.0);
  DualSimplex copy = original.clone();
  EXPECT_EQ(copy.var_lower(0), 3.0);
  EXPECT_EQ(copy.var_upper(0), 3.0);
  const LpResult a = original.solve();
  const LpResult b = copy.solve();
  ASSERT_EQ(a.status, b.status);
  if (a.status == LpStatus::kOptimal) {
    EXPECT_EQ(a.objective, b.objective);  // identical fresh-engine path
    EXPECT_NEAR(b.x[0], 3.0, 1e-9);
  }
}

TEST(DualSimplex, IterationAccountingMonotonePerEngine) {
  // iterations_total() only ever grows on a given engine, clones start
  // from zero, and restore() never rewinds the counter.
  LinearProgram lp = clone_test_lp(20, 41u);
  DualSimplex solver(lp);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  int64_t prev = solver.iterations_total();
  EXPECT_GT(prev, 0);

  std::mt19937 rng(5);
  const auto snap = solver.snapshot();
  for (int step = 0; step < 8; ++step) {
    const int j = static_cast<int>(rng() % 20);
    solver.set_var_bounds(j, 1.0, 2.0 + (rng() % 2));
    (void)solver.solve();
    EXPECT_GE(solver.iterations_total(), prev) << "step " << step;
    prev = solver.iterations_total();
    if (step == 4) {
      solver.restore(snap);  // rewind the state, never the meter
      EXPECT_EQ(solver.iterations_total(), prev);
    }
  }
  DualSimplex fork = solver.clone();
  EXPECT_EQ(fork.iterations_total(), 0);
  (void)fork.solve();
  EXPECT_GE(fork.iterations_total(), 0);
  EXPECT_GE(solver.iterations_total(), prev);
}

// ---------------------------------------------------------------------
// PR 4 hot path: steepest-edge pricing, bound-flipping ratio test,
// truncated-solve dual bounds, objective-limit early exit.

// Random boxed LPs -- every variable carries finite bounds on both sides,
// the shape of the 0/1 scheduling relaxations, so the long-step ratio
// test's bound flips fire constantly. Cross-checked against the dense
// reference solver for status and objective.
TEST(DualSimplex, BoxedCorpusMatchesDenseReference) {
  std::mt19937 rng(311);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_real_distribution<double> cost(-2.0, 2.0);
  int optimal_count = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 10);
    const int m = 1 + static_cast<int>(rng() % 8);
    LinearProgram lp;
    for (int j = 0; j < n; ++j) {
      // Mostly unit boxes (binary relaxations), some wider.
      const double lo = (rng() % 5 == 0) ? -1.0 : 0.0;
      const double hi = lo + ((rng() % 4 == 0) ? 3.0 : 1.0);
      lp.add_var(lo, hi, cost(rng));
    }
    for (int r = 0; r < m; ++r) {
      std::vector<std::pair<int, double>> t;
      for (int j = 0; j < n; ++j)
        if (rng() % 3) t.emplace_back(j, coef(rng));
      const double rhs = coef(rng);
      switch (rng() % 3) {
        case 0: lp.add_le(t, rhs); break;
        case 1: lp.add_ge(t, rhs); break;
        default: lp.add_constraint(t, rhs, rhs + (rng() % 2)); break;
      }
    }
    auto sparse = solve_lp(lp);
    auto dense = solve_dense_reference(lp);
    ASSERT_EQ(sparse.status, dense.status) << "trial " << trial;
    if (sparse.status == LpStatus::kOptimal) {
      ++optimal_count;
      EXPECT_NEAR(sparse.objective, dense.objective, 1e-5)
          << "trial " << trial;
      EXPECT_LE(lp.max_violation(sparse.x), 1e-6) << "trial " << trial;
      EXPECT_EQ(sparse.dual_bound, sparse.objective) << "trial " << trial;
    }
  }
  EXPECT_GT(optimal_count, 40);
}

TEST(DualSimplex, TruncatedSolveReportsSoundDualBound) {
  // A truncated solve must surface a valid lower bound on the optimum so
  // branch & bound can keep the work of an abandoned node solve.
  LinearProgram lp = clone_test_lp(40, 7u);
  const double optimum = solve_lp(lp).objective;

  SimplexOptions opts;
  opts.max_iterations = 3;  // guaranteed truncation
  DualSimplex solver(lp, opts);
  const LpResult res = solver.solve();
  ASSERT_EQ(res.status, LpStatus::kIterationLimit);
  EXPECT_GT(res.dual_bound, -kInf);
  EXPECT_LE(res.dual_bound, optimum + 1e-6);
}

TEST(DualSimplex, ObjectiveLimitStopsEarlyWithSoundBound) {
  LinearProgram lp = clone_test_lp(40, 19u);
  const LpResult full = solve_lp(lp);
  ASSERT_EQ(full.status, LpStatus::kOptimal);

  // A cutoff below the optimum: the dual ascent must cross it and stop.
  SimplexOptions opts;
  opts.objective_limit = full.objective - 0.5;
  const LpResult cut = solve_lp(lp, opts);
  ASSERT_EQ(cut.status, LpStatus::kObjectiveLimit);
  EXPECT_GE(cut.dual_bound, opts.objective_limit);
  EXPECT_LE(cut.dual_bound, full.objective + 1e-6);
  EXPECT_LE(cut.iterations, full.iterations);

  // A cutoff above the optimum never triggers.
  opts.objective_limit = full.objective + 1.0;
  const LpResult clear = solve_lp(lp, opts);
  ASSERT_EQ(clear.status, LpStatus::kOptimal);
  EXPECT_NEAR(clear.objective, full.objective, 1e-9);
}

TEST(DualSimplex, SnapshotCarriesSteepestEdgeWeights) {
  // The steepest-edge weights ride the snapshot, and the post-restore
  // trajectory is a pure function of the snapshot: an engine that wandered
  // arbitrarily far and a fresh clone must re-solve bit-identically.
  LinearProgram lp = clone_test_lp(24, 13u);
  DualSimplex original(lp);
  ASSERT_EQ(original.solve().status, LpStatus::kOptimal);
  original.set_var_bounds(3, 1.0, 2.0);
  ASSERT_EQ(original.solve().status, LpStatus::kOptimal);

  const auto snap = original.snapshot();
  // The engine's first capture is a keyframe: every row's weight.
  ASSERT_TRUE(snap->valid());
  ASSERT_TRUE(snap->is_keyframe());
  ASSERT_EQ(snap->num_rows(), lp.num_rows());

  // Wander the original far away from the snapshot state.
  std::mt19937 rng(3);
  for (int step = 0; step < 10; ++step) {
    original.set_var_bounds(static_cast<int>(rng() % 24), 0.0,
                            1.0 + (rng() % 4));
    (void)original.solve();
  }

  DualSimplex fresh(lp);
  fresh.restore(snap);
  original.restore(snap);
  original.set_var_bounds(5, 2.0, 3.0);
  fresh.set_var_bounds(5, 2.0, 3.0);
  const LpResult a = original.solve();
  const LpResult b = fresh.solve();
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
  for (size_t j = 0; j < a.x.size(); ++j) EXPECT_EQ(a.x[j], b.x[j]);
}

// ---------------------------------------------------------------------
// Dynamic row append: the branch & cut search appends cut rows to the
// working LP mid-search, and parent snapshots captured before the append
// must restore cleanly into the grown LP.

TEST(DualSimplex, SyncRowsReoptimizesAfterAppendedRow) {
  LinearProgram lp = clone_test_lp(16, 29u);
  DualSimplex solver(lp);
  const LpResult before = solver.solve();
  ASSERT_EQ(before.status, LpStatus::kOptimal);

  // Append a valid-but-binding row: force the two cheapest activities up.
  lp.add_ge(std::vector<std::pair<int, double>>{{0, 1.0}, {1, 1.0}},
            before.x[0] + before.x[1] + 1.0);
  const LpResult after = solver.solve();  // sync happens inside solve()
  ASSERT_EQ(after.status, LpStatus::kOptimal);
  EXPECT_GE(after.objective, before.objective - 1e-9);
  EXPECT_NEAR(after.x[0] + after.x[1], before.x[0] + before.x[1] + 1.0, 1e-6);
  // And the warm re-solve agrees with a cold engine over the grown LP.
  const LpResult cold = solve_lp(lp);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(after.objective, cold.objective, 1e-6);
}

TEST(DualSimplex, SnapshotRestoresAcrossRowCounts) {
  // Parent snapshot at m rows, child LP with appended cut rows: restore
  // adopts the parent basis for the old rows and slack-bases the new ones.
  LinearProgram lp = clone_test_lp(20, 31u);
  DualSimplex parent(lp);
  parent.set_var_bounds(2, 1.0, 3.0);  // a "branching path" override
  ASSERT_EQ(parent.solve().status, LpStatus::kOptimal);
  const auto snap = parent.snapshot();
  const int rows_at_capture = lp.num_rows();
  ASSERT_EQ(snap->num_rows(), rows_at_capture);

  lp.add_ge(std::vector<std::pair<int, double>>{{4, 1.0}, {5, 1.0}}, 3.0);
  lp.add_ge(std::vector<std::pair<int, double>>{{6, 1.0}, {7, 2.0}}, 4.0);

  DualSimplex child(lp);  // fresh engine already sees the grown LP
  child.restore(snap);
  const LpResult res = child.solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  // The snapshot's bound override survived the cross-row-count restore.
  EXPECT_GE(res.x[2], 1.0 - 1e-9);
  EXPECT_LE(res.x[2], 3.0 + 1e-9);
  LpResult cold;
  {
    DualSimplex fresh(lp);
    fresh.set_var_bounds(2, 1.0, 3.0);
    cold = fresh.solve();
  }
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, cold.objective, 1e-6);

  // The parent engine itself syncs on its next solve and agrees.
  const LpResult parent_res = parent.solve();
  ASSERT_EQ(parent_res.status, LpStatus::kOptimal);
  EXPECT_NEAR(parent_res.objective, cold.objective, 1e-6);
}

TEST(DualSimplex, CrossRowCountRestoreIsBitIdenticalAndCarriesWeights) {
  // Two engines restored from the same pre-append snapshot over the grown
  // LP must follow bit-identical trajectories -- including the carried
  // steepest-edge weights (the snapshot's weights cover the OLD rows; the
  // appended rows deterministically start at the unit frame).
  LinearProgram lp = clone_test_lp(24, 37u);
  DualSimplex original(lp);
  ASSERT_EQ(original.solve().status, LpStatus::kOptimal);
  const auto snap = original.snapshot();
  ASSERT_TRUE(snap->is_keyframe());

  lp.add_ge(std::vector<std::pair<int, double>>{{0, 1.0}, {3, 1.0}}, 4.0);

  DualSimplex a(lp), b(lp);
  a.restore(snap);
  b.restore(snap);
  a.set_var_bounds(9, 2.0, 4.0);
  b.set_var_bounds(9, 2.0, 4.0);
  const LpResult ra = a.solve();
  const LpResult rb = b.solve();
  ASSERT_EQ(ra.status, LpStatus::kOptimal);
  EXPECT_EQ(ra.objective, rb.objective);
  EXPECT_EQ(ra.iterations, rb.iterations);
  ASSERT_EQ(ra.x.size(), rb.x.size());
  for (size_t j = 0; j < ra.x.size(); ++j) EXPECT_EQ(ra.x[j], rb.x[j]);
}

TEST(DualSimplex, RestoreOfSnapshotOverMoreRowsColdStarts) {
  // Branch & cut only appends rows, so a snapshot over MORE rows than the
  // engine's LP has no prefix to adopt: restore() cold-starts from the
  // slack basis, keeping the structural bound override, and the solve is
  // the fresh engine's solve bit for bit.
  LinearProgram small = clone_test_lp(10, 41u);
  LinearProgram big = small;
  big.add_ge(std::vector<std::pair<int, double>>{{0, 1.0}}, 1.0);
  DualSimplex big_engine(big);
  big_engine.set_var_bounds(1, 0.5, 2.0);
  ASSERT_EQ(big_engine.solve().status, LpStatus::kOptimal);
  const auto snap = big_engine.snapshot();
  ASSERT_TRUE(snap->valid());
  ASSERT_GT(snap->num_rows(), small.num_rows());

  DualSimplex small_engine(small);
  small_engine.restore(snap);
  EXPECT_EQ(small_engine.var_lower(1), 0.5);
  EXPECT_EQ(small_engine.var_upper(1), 2.0);
  const LpResult warm = small_engine.solve();
  DualSimplex fresh(small);
  fresh.set_var_bounds(1, 0.5, 2.0);
  const LpResult cold = fresh.solve();
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.x, cold.x);
  EXPECT_GE(warm.x[1], 0.5);
  EXPECT_LE(warm.x[1], 2.0);
}

// ---------------------------------------------------------------------
// Delta snapshots: a capture stores only what differs from the snapshot
// the engine last restored or captured, so what restore() rebuilds from a
// chain must be a keyframe of the same state, bit for bit.

// The restored state as an engine exposes it: bounds, statuses, and the
// basis and steepest-edge weights by position.
void expect_same_state(const DualSimplex& a, const DualSimplex& b, int n) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  int mismatches = 0;
  for (int j = 0; j < n; ++j)
    mismatches += a.var_lower(j) != b.var_lower(j) ||
                  a.var_upper(j) != b.var_upper(j);
  for (int c = 0; c < n + a.num_rows(); ++c)
    mismatches += a.col_status(c) != b.col_status(c);
  for (int p = 0; p < a.num_rows(); ++p)
    mismatches += a.basic_col(p) != b.basic_col(p) ||
                  a.edge_weight(p) != b.edge_weight(p);
  EXPECT_EQ(mismatches, 0);
}

// Two engines restored to one state must solve identically in every
// observable: status, objective, point and engine counters.
void expect_same_solve(DualSimplex& a, DualSimplex& b) {
  const LpResult ra = a.solve();
  const LpResult rb = b.solve();
  EXPECT_EQ(ra.status, rb.status);
  EXPECT_EQ(ra.objective, rb.objective);
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.x, rb.x);
  EXPECT_EQ(a.stats(), b.stats());
}

// Raises the lower bound of every step-th variable by one: a primal
// infeasibility the dual simplex needs many pivots to repair, so the
// steepest-edge weights steer the trajectory.
void raise_every(DualSimplex& eng, int n, int step) {
  for (int j = 0; j < n; j += step)
    eng.set_var_bounds(j, eng.var_lower(j) + 1.0, eng.var_upper(j) + 1.0);
}

TEST(DualSimplex, LongDeltaChainRestoresLikeAKeyframe) {
  // One link per "node": a bound change (every fifth one resets an
  // earlier override to the LP's bounds, which the delta records as a
  // cleared override; the others push a basic variable past its value), a
  // re-solve cut off after two pivots (so statuses, basis positions and
  // weights all move), and a capture against the previous snapshot. Every
  // third link then restores that capture, as a branch-and-bound slot
  // restores its start node, so the next capture diffs against a restored
  // chain. The tail, restored into a fresh engine, must be a keyframe of
  // the same state.
  const int n = 6000;
  LinearProgram lp = clone_test_lp(n, 43u);
  DualSimplex eng(lp);
  ASSERT_EQ(eng.solve().status, LpStatus::kOptimal);
  std::shared_ptr<const BasisSnapshot> tail = eng.snapshot();
  EXPECT_TRUE(tail->is_keyframe());
  eng.set_iteration_limit(2);
  std::mt19937 rng(7);
  std::vector<int> moved;
  int64_t pivots = 0;
  for (int link = 0; link < 110; ++link) {
    if (link % 5 == 4) {
      const int j = moved[rng() % moved.size()];
      eng.set_var_bounds(j, lp.lb[j], lp.ub[j]);
    } else {
      int pos = 0, j = n;
      while (j >= n) {
        pos = static_cast<int>(rng() % n);
        j = eng.basic_col(pos);
      }
      const double lo = std::floor(eng.basic_value(pos)) + 1.0;
      eng.set_var_bounds(j, lo, std::max(lo, eng.var_upper(j)) + 1.0);
      moved.push_back(j);
    }
    pivots += eng.solve().iterations;
    tail = eng.snapshot();
    if (link % 3 == 0) eng.restore(tail);
  }
  ASSERT_GE(tail->depth(), 100);
  EXPECT_GT(pivots, 100);
  const std::shared_ptr<const BasisSnapshot> key = eng.keyframe();
  ASSERT_TRUE(key->is_keyframe());

  DualSimplex from_tail(lp), from_key(lp);
  from_tail.restore(tail);
  from_key.restore(key);
  expect_same_state(from_tail, from_key, n);
  raise_every(from_tail, n, 97);
  raise_every(from_key, n, 97);
  expect_same_solve(from_tail, from_key);
  EXPECT_GT(from_key.iterations_total(), 20);
}

TEST(DualSimplex, DeltaAcrossAppendedCutRowsRestoresLikeAKeyframe) {
  // Cut rows appended between a parent capture and its child's: the child
  // delta covers more rows than its parent, and the parent (captured
  // before the append) still restores into the grown LP with the new
  // rows' slacks basic.
  const int n = 300;
  LinearProgram lp = clone_test_lp(n, 47u);
  DualSimplex eng(lp);
  ASSERT_EQ(eng.solve().status, LpStatus::kOptimal);
  const auto root = eng.snapshot();
  ASSERT_TRUE(root->is_keyframe());
  eng.set_var_bounds(3, 1.0, 2.0);
  const LpResult at_parent = eng.solve();
  ASSERT_EQ(at_parent.status, LpStatus::kOptimal);
  const auto parent = eng.snapshot();
  const auto parent_key = eng.keyframe();
  ASSERT_EQ(parent->depth(), 1);

  const int rows = lp.num_rows();
  lp.add_ge(terms({{0, 1.0}, {3, 1.0}}),
            at_parent.x[0] + at_parent.x[3] + 1.0);
  lp.add_ge(terms({{7, 1.0}, {8, 2.0}}), 5.0);
  lp.add_ge(terms({{20, 1.0}, {21, 1.0}}), 0.0);  // slack at its bound
  eng.set_var_bounds(9, 2.0, 4.0);
  ASSERT_EQ(eng.solve().status, LpStatus::kOptimal);  // adopts the rows
  const auto child = eng.snapshot();
  ASSERT_EQ(child->depth(), 2);
  ASSERT_EQ(child->num_rows(), rows + 3);

  DualSimplex a(lp), b(lp);
  a.restore(child);
  b.restore(eng.keyframe());
  expect_same_state(a, b, n);
  raise_every(a, n, 7);
  raise_every(b, n, 7);
  expect_same_solve(a, b);

  DualSimplex c(lp), d(lp);
  c.restore(parent);
  d.restore(parent_key);
  expect_same_state(c, d, n);
  for (int i = rows; i < rows + 3; ++i) {
    EXPECT_EQ(c.basic_col(i), n + i);
    EXPECT_EQ(c.col_status(n + i), DualSimplex::kBasic);
    EXPECT_EQ(c.edge_weight(i), 1.0);
  }
  raise_every(c, n, 7);
  raise_every(d, n, 7);
  expect_same_solve(c, d);
}

TEST(DualSimplex, ForeignFrameAndInvalidSnapshotsRestoreAsBefore) {
  // A snapshot restored into an engine with other scale factors adopts
  // the basis and bounds but resets the steepest-edge weights to the unit
  // frame, whether it is a delta or a keyframe; that engine's next capture
  // is a keyframe. Badly ranged rows make the scale factors non-trivial;
  // scaling_rows = 0 turns them off in the other engine.
  LinearProgram lp;
  const int n = 400;
  for (int j = 0; j < n; ++j) {
    const double s = std::pow(10.0, static_cast<double>(j % 9) - 4.0);
    lp.add_var(0.0, 10.0 / s, s);
  }
  for (int r = 0; r + 1 < n; ++r) {
    const double sr = std::pow(10.0, static_cast<double>(r % 5) - 2.0);
    const double cr = std::pow(10.0, static_cast<double>(r % 9) - 4.0);
    const double cn = std::pow(10.0, static_cast<double>((r + 1) % 9) - 4.0);
    lp.add_ge(terms({{r, sr * cr}, {r + 1, 0.5 * sr * cn}}), 2.0 * sr);
  }
  LinearProgram unscaled = lp;
  unscaled.scaling_rows = 0;

  DualSimplex eng(lp);
  ASSERT_EQ(eng.solve().status, LpStatus::kOptimal);
  (void)eng.snapshot();
  eng.set_var_bounds(5, 0.0, 0.5 * eng.var_upper(5));
  eng.set_var_bounds(12, 0.0, 0.5 * eng.var_upper(12));
  ASSERT_EQ(eng.solve().status, LpStatus::kOptimal);
  const auto delta = eng.snapshot();
  ASSERT_FALSE(delta->is_keyframe());

  DualSimplex a(unscaled), b(unscaled), same_frame(lp);
  a.restore(delta);
  b.restore(eng.keyframe());
  same_frame.restore(delta);
  for (int p = 0; p < a.num_rows(); ++p) ASSERT_EQ(a.edge_weight(p), 1.0);
  EXPECT_TRUE(a.snapshot()->is_keyframe());
  EXPECT_FALSE(same_frame.snapshot()->is_keyframe());
  a.set_var_bounds(20, 0.0, 0.25 * a.var_upper(20));
  b.set_var_bounds(20, 0.0, 0.25 * b.var_upper(20));
  expect_same_solve(a, b);

  // Invalid snapshots (null, or captured before any solve) cold-start:
  // the bound overrides they carry stay, and the solve is the fresh
  // engine's; the first capture after a cold start is a keyframe.
  DualSimplex never_solved(lp);
  never_solved.set_var_bounds(7, 1.0, 2.0);
  const auto unsolved = never_solved.snapshot();
  ASSERT_FALSE(unsolved->valid());
  DualSimplex cold(lp), fresh(lp);
  cold.restore(delta);
  cold.restore(unsolved);
  fresh.set_var_bounds(7, 1.0, 2.0);
  expect_same_solve(cold, fresh);
  EXPECT_TRUE(cold.snapshot()->is_keyframe());
  eng.restore(nullptr);
  DualSimplex plain(lp);
  const LpResult r_eng = eng.solve();
  const LpResult r_plain = plain.solve();
  EXPECT_EQ(r_eng.status, r_plain.status);
  EXPECT_EQ(r_eng.objective, r_plain.objective);
  EXPECT_EQ(r_eng.x, r_plain.x);
  EXPECT_TRUE(eng.snapshot()->is_keyframe());
}

TEST(DualSimplex, OnePivotDeltaIsSmall) {
  // A child one pivot from its parent stores a few statuses, one basis
  // position and the weights that pivot touched: well under an eighth of
  // a full copy.
  const int n = 2000;
  LinearProgram lp = clone_test_lp(n, 53u);
  DualSimplex eng(lp);
  const LpResult opt = eng.solve();
  ASSERT_EQ(opt.status, LpStatus::kOptimal);
  ASSERT_TRUE(eng.snapshot()->is_keyframe());
  int j = 0;
  while (j < n && opt.x[j] < 0.5) ++j;
  ASSERT_LT(j, n);
  eng.set_var_bounds(j, 0.0, 0.0);
  eng.set_iteration_limit(1);
  ASSERT_EQ(eng.solve().iterations, 1);
  const auto child = eng.snapshot();
  ASSERT_FALSE(child->is_keyframe());
  const size_t full = eng.keyframe()->bytes();
  EXPECT_LT(child->bytes() * 8, full)
      << child->bytes() << " of " << full << " bytes";
}

TEST(DualSimplex, ModeratelyLargeStructuredLp) {
  // Staircase LP with 200 variables / 200 rows; verifies the sparse path
  // and refactorization cadence.
  LinearProgram lp;
  const int n = 200;
  for (int j = 0; j < n; ++j) lp.add_var(0.0, 10.0, 1.0 + (j % 3));
  for (int r = 0; r < n; ++r) {
    std::vector<std::pair<int, double>> t{{r, 1.0}};
    if (r + 1 < n) t.emplace_back(r + 1, 0.5);
    lp.add_ge(t, 2.0);
  }
  auto res = solve_lp(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_LE(lp.max_violation(res.x), 1e-6);
  // Cross-check with the dense reference.
  auto dense = solve_dense_reference(lp);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, dense.objective, 1e-4);
}

// ---------------------------------------------------------------------
// Forrest-Tomlin updates and Curtis-Reid scaling (the PR-10 engine work).

TEST(DualSimplex, ForrestTomlinMatchesDenseReference) {
  // Pivot-heavy staircase: the FT-updated engine must reach the dense
  // reference optimum, and the observability counters must show that
  // updates were actually absorbed between refactorizations.
  LinearProgram lp;
  const int n = 200;
  for (int j = 0; j < n; ++j) lp.add_var(0.0, 10.0, 1.0 + (j % 3));
  for (int r = 0; r < n; ++r) {
    std::vector<std::pair<int, double>> t{{r, 1.0}};
    if (r + 1 < n) t.emplace_back(r + 1, 0.5);
    if (r + 7 < n) t.emplace_back(r + 7, 0.25);
    lp.add_ge(t, 2.0 + (r % 3));
  }
  DualSimplex engine(lp);
  auto res = engine.solve();
  auto dense = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, dense.objective, 1e-6);
  EXPECT_LE(lp.max_violation(res.x), 1e-6);
  EXPECT_GT(engine.stats().lp_ft_updates, 0);
}

TEST(DualSimplex, ForrestTomlinMatchesDenseReferenceOnRandomCorpus) {
  // Status and objective agreement with the dense reference across a
  // random corpus (same generator family as the small dense-reference
  // corpus, skewed a little larger so updates actually accumulate).
  std::mt19937 rng(41);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_real_distribution<double> cost(-2.0, 2.0);
  int optimal_count = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 12);
    const int m = 4 + static_cast<int>(rng() % 12);
    LinearProgram lp;
    for (int j = 0; j < n; ++j) {
      double lo = (rng() % 4 == 0) ? -static_cast<double>(rng() % 3) : 0.0;
      lp.add_var(lo, lo + 1.0 + static_cast<double>(rng() % 5), cost(rng));
    }
    for (int r = 0; r < m; ++r) {
      std::vector<std::pair<int, double>> t;
      for (int j = 0; j < n; ++j)
        if (rng() % 2) t.emplace_back(j, coef(rng));
      const double rhs = coef(rng) * 2.0;
      if (rng() % 2) {
        lp.add_le(t, rhs);
      } else {
        lp.add_ge(t, rhs);
      }
    }
    auto res = solve_lp(lp);
    auto dense = solve_dense_reference(lp);
    ASSERT_EQ(res.status, dense.status) << "trial " << trial;
    if (res.status == LpStatus::kOptimal) {
      ++optimal_count;
      EXPECT_NEAR(res.objective, dense.objective, 1e-5) << "trial " << trial;
    }
  }
  EXPECT_GT(optimal_count, 10);
}

TEST(DualSimplex, ScalingSolvesBadlyRangedLp) {
  // Columns spanning ~12 orders of magnitude. Curtis-Reid scaling keeps
  // the factorization well-conditioned; the solution must come back in
  // the ORIGINAL frame (bounds/violations checked unscaled) and agree
  // with the dense reference.
  LinearProgram lp;
  const int n = 30;
  for (int j = 0; j < n; ++j) {
    const double s = std::pow(10.0, static_cast<double>(j % 13) - 6.0);
    lp.add_var(0.0, 10.0 / s, s);
  }
  for (int r = 0; r + 1 < n; ++r) {
    const double sr = std::pow(10.0, static_cast<double>(r % 7) - 3.0);
    const double cr = std::pow(10.0, static_cast<double>(r % 13) - 6.0);
    const double cn = std::pow(10.0, static_cast<double>((r + 1) % 13) - 6.0);
    lp.add_ge(terms({{r, sr * cr}, {r + 1, 0.5 * sr * cn}}), 2.0 * sr);
  }
  // The equivalent unit-frame LP (y_j = col_scale_j * x_j) is what the
  // dense reference can solve reliably -- running it on the badly-ranged
  // original makes it pick degenerate pivots and report an infeasible
  // "optimum", which is exactly the failure mode scaling exists to avoid.
  LinearProgram unit;
  for (int j = 0; j < n; ++j) unit.add_var(0.0, 10.0, 1.0);
  for (int r = 0; r + 1 < n; ++r)
    unit.add_ge(terms({{r, 1.0}, {r + 1, 0.5}}), 2.0);
  auto ra = solve_lp(lp);
  auto dense = solve_dense_reference(unit);
  ASSERT_EQ(ra.status, LpStatus::kOptimal);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);
  const double rel = std::max(1.0, std::abs(dense.objective));
  EXPECT_NEAR(ra.objective, dense.objective, 1e-6 * rel);
  EXPECT_LE(lp.max_violation(ra.x), 1e-6);
}


TEST(DualSimplex, UnitChainRootTrajectoryIsPinned) {
  // Fast-tier pin of the deep-chain hot path (the regime of the nightly
  // IntervalBig suite and the deep_interval benchmark), end to end through
  // the interval backend: at budget 6 the chain proves at the root in
  // exactly 2n pivots. The refactorization and Forrest-Tomlin update counts
  // pin the LP trajectory itself, so a change to the LU solves or the pivot
  // loop that moves any pivot shows here (and runs under the sanitizer
  // stages with this suite).
  struct Pin {
    int n;
    int64_t refactorizations, ft_updates;
  };
  for (const Pin& pin : {Pin{60, 2, 118}, Pin{120, 3, 238}}) {
    SCOPED_TRACE(pin.n);
    auto p = RematProblem::unit_chain(pin.n);
    Scheduler sched(p);
    IlpSolveOptions o;
    o.formulation = IlpFormulationKind::kInterval;
    o.relative_gap = 5e-4;
    o.time_limit_sec = 60.0;
    o.num_threads = 1;
    auto r = sched.solve_optimal_ilp(6.0, o);
    ASSERT_EQ(r.milp_status, milp::MilpStatus::kOptimal);
    EXPECT_EQ(r.nodes, 1);
    EXPECT_EQ(r.lp_iterations, 2 * pin.n);
    EXPECT_EQ(r.cost, pin.n);
    EXPECT_EQ(r.lp_refactorizations, pin.refactorizations);
    EXPECT_EQ(r.lp_ft_updates, pin.ft_updates);
  }
}

}  // namespace
}  // namespace checkmate::lp
