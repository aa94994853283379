#include "milp/milp.h"

#include <gtest/gtest.h>

#include "milp/branch_and_bound.h"

#include <chrono>
#include <cmath>
#include <optional>
#include <random>
#include <string>

namespace checkmate::milp {
namespace {

using lp::kInf;
using lp::LinearProgram;

std::vector<std::pair<int, double>> terms(
    std::initializer_list<std::pair<int, double>> t) {
  return t;
}

// Every MILP-solving test passes an explicit wall-clock limit so a solver
// regression surfaces as a status assertion, never as a wedged test runner.
MilpOptions bounded(double time_limit_sec = 30.0) {
  MilpOptions opts;
  opts.time_limit_sec = time_limit_sec;
  return opts;
}

TEST(Milp, PureLpPassThrough) {
  LinearProgram lp;
  int x = lp.add_var(0, 4, -1.0);  // continuous
  lp.add_le(terms({{x, 1.0}}), 2.5);
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -2.5, 1e-7);
}

TEST(Milp, SingleIntegerRoundsDown) {
  // max x, x integer, x <= 2.5 => 2.
  LinearProgram lp;
  int x = lp.add_var(0, 10, -1.0, /*integer=*/true);
  lp.add_le(terms({{x, 1.0}}), 2.5);
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -2.0, 1e-7);
  EXPECT_NEAR(res.x[x], 2.0, 1e-6);
}

TEST(Milp, Knapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary). Optimum: a+b = 16.
  LinearProgram lp;
  int a = lp.add_binary(-10.0);
  int b = lp.add_binary(-6.0);
  int c = lp.add_binary(-4.0);
  lp.add_le(terms({{a, 1.0}, {b, 1.0}, {c, 1.0}}), 2.0);
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -16.0, 1e-6);
}

TEST(Milp, WeightedKnapsack) {
  // Weights {6,5,4}, values {10,9,9}, capacity 10. The LP relaxation is
  // fractional (fills the leftover capacity with 1/6 of item a: -19.67);
  // optimum is items a+c = -19.
  LinearProgram lp;
  int a = lp.add_binary(-10.0);
  int b = lp.add_binary(-9.0);
  int c = lp.add_binary(-9.0);
  lp.add_le(terms({{a, 6.0}, {b, 5.0}, {c, 4.0}}), 10.0);
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -19.0, 1e-6);
  // Gomory root cuts can close the gap entirely, so the reported root
  // bound is <= the optimum; the PURE relaxation stays strictly better.
  EXPECT_LE(res.root_relaxation, -19.0 + 1e-6);
  auto pure = lp::solve_lp(lp);
  ASSERT_EQ(pure.status, lp::LpStatus::kOptimal);
  EXPECT_LT(pure.objective, -19.0);  // relaxation strictly better
}

TEST(Milp, InfeasibleIntegrality) {
  // 0.4 <= x <= 0.6 with x integer: infeasible.
  LinearProgram lp;
  int x = lp.add_var(0, 1, 1.0, /*integer=*/true);
  lp.add_constraint(terms({{x, 1.0}}), 0.4, 0.6);
  auto res = solve_milp(lp, bounded());
  EXPECT_EQ(res.status, MilpStatus::kInfeasible);
  EXPECT_FALSE(res.has_solution());
}

TEST(Milp, EqualityWithIntegers) {
  // x + y == 3, x,y binary-ish integers in [0,2]: solutions exist; minimize
  // 2x + y => x=1,y=2 cost 4.
  LinearProgram lp;
  int x = lp.add_var(0, 2, 2.0, true);
  int y = lp.add_var(0, 2, 1.0, true);
  lp.add_eq(terms({{x, 1.0}, {y, 1.0}}), 3.0);
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 4.0, 1e-6);
}

TEST(Milp, MixedIntegerContinuous) {
  // min -y - 0.5 x, y integer <= 3.7 - x/2, x in [0,1] continuous.
  LinearProgram lp;
  int x = lp.add_var(0, 1, -0.5, false);
  int y = lp.add_var(0, 10, -1.0, true);
  lp.add_le(terms({{x, 0.5}, {y, 1.0}}), 3.7);
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  // y=3, x=1 => obj -3.5.
  EXPECT_NEAR(res.objective, -3.5, 1e-6);
}

TEST(Milp, StopAtFirstIncumbent) {
  LinearProgram lp;
  for (int i = 0; i < 8; ++i) lp.add_binary(-1.0 - 0.1 * i);
  std::vector<std::pair<int, double>> all;
  for (int i = 0; i < 8; ++i) all.emplace_back(i, 1.0);
  lp.add_le(all, 4.0);
  MilpOptions opts = bounded();
  opts.stop_at_first_incumbent = true;
  auto res = solve_milp(lp, opts);
  EXPECT_TRUE(res.has_solution());
  EXPECT_EQ(res.status, MilpStatus::kFeasible);
}

TEST(Milp, IncumbentHeuristicAccepted) {
  // The heuristic immediately supplies the optimum; search should accept it
  // and prune everything. (The root relaxation must be fractional or the
  // heuristic is never needed -- same instance as WeightedKnapsack.)
  LinearProgram lp;
  int a = lp.add_binary(-10.0);
  int b = lp.add_binary(-9.0);
  int c = lp.add_binary(-9.0);
  lp.add_le(terms({{a, 6.0}, {b, 5.0}, {c, 4.0}}), 10.0);
  bool called = false;
  auto heuristic = [&](const std::vector<double>&)
      -> std::optional<std::vector<double>> {
    called = true;
    return std::vector<double>{1.0, 0.0, 1.0};
  };
  auto res = solve_milp(lp, bounded(), heuristic);
  EXPECT_TRUE(called);
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -19.0, 1e-6);
}

TEST(Milp, InvalidHeuristicCandidateRejected) {
  LinearProgram lp;
  int a = lp.add_binary(-1.0);
  lp.add_le(terms({{a, 1.0}}), 1.0);
  auto heuristic = [&](const std::vector<double>&)
      -> std::optional<std::vector<double>> {
    return std::vector<double>{7.0};  // violates binary bound
  };
  auto res = solve_milp(lp, bounded(), heuristic);
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -1.0, 1e-6);
}

TEST(Milp, BranchPriorityRespectedForCorrectness) {
  // Priorities must not change the optimum, only the search order.
  LinearProgram lp;
  int a = lp.add_binary(-3.0);
  int b = lp.add_binary(-2.0);
  int c = lp.add_binary(-1.0);
  lp.add_le(terms({{a, 2.0}, {b, 2.0}, {c, 2.0}}), 3.0);
  MilpOptions opts = bounded();
  opts.branch_priority = {0, 5, 1};
  auto res = solve_milp(lp, opts);
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -3.0, 1e-6);
}

// Brute-force cross-validation on random binary programs.
TEST(Milp, MatchesBruteForceOnRandomBinaryPrograms) {
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 6);  // up to 7 binaries
    const int m = 1 + static_cast<int>(rng() % 4);
    LinearProgram lp;
    for (int j = 0; j < n; ++j) lp.add_binary(coef(rng));
    std::vector<std::vector<double>> rows(m, std::vector<double>(n, 0.0));
    std::vector<double> rhs(m);
    for (int r = 0; r < m; ++r) {
      std::vector<std::pair<int, double>> t;
      for (int j = 0; j < n; ++j)
        if (rng() % 2) {
          rows[r][j] = coef(rng);
          t.emplace_back(j, rows[r][j]);
        }
      rhs[r] = coef(rng);
      lp.add_le(t, rhs[r]);
    }
    // Brute force over 2^n assignments.
    double best = lp::kInf;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double obj = 0.0;
      bool ok = true;
      for (int r = 0; r < m && ok; ++r) {
        double act = 0.0;
        for (int j = 0; j < n; ++j)
          if (mask & (1 << j)) act += rows[r][j];
        if (act > rhs[r] + 1e-9) ok = false;
      }
      if (!ok) continue;
      for (int j = 0; j < n; ++j)
        if (mask & (1 << j)) obj += lp.obj[j];
      best = std::min(best, obj);
    }
    auto res = solve_milp(lp, bounded());
    if (best == lp::kInf) {
      EXPECT_EQ(res.status, MilpStatus::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(res.status, MilpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(res.objective, best, 1e-5) << "trial " << trial;
    }
  }
}

TEST(Milp, RootReducedCostFixingFiresAndKeepsOptimum) {
  // Six binaries, pick at least three: the root LP is integral (three
  // cheapest at 1), so the incumbent lands immediately and every expensive
  // column's reduced cost exceeds the remaining gap -- those variables
  // must be permanently fixed to zero, and the optimum must be untouched.
  LinearProgram lp;
  for (int j = 0; j < 6; ++j) lp.add_binary(1.0 + j);
  lp.add_ge(terms({{0, 1.0},
                   {1, 1.0},
                   {2, 1.0},
                   {3, 1.0},
                   {4, 1.0},
                   {5, 1.0}}),
            3.0);
  // The search runs on the raw LP, without presolve, so the root LP stays
  // nontrivial for the fixing.
  auto res = branch_and_bound(lp, bounded(), {});
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0 + 2.0 + 3.0, 1e-6);
  EXPECT_GT(res.root_fixings, 0);
}

TEST(Milp, RootReducedCostFixingMatchesBruteForceOnCorpus) {
  // The fixing must never cut off the optimum: random binary programs
  // solved with fixing on (tight gap, so the fixing threshold is as
  // aggressive as it gets) against brute force.
  std::mt19937 rng(91);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 5);
    const int m = 1 + static_cast<int>(rng() % 3);
    LinearProgram lp;
    for (int j = 0; j < n; ++j) lp.add_binary(coef(rng));
    std::vector<std::vector<double>> rows(m, std::vector<double>(n, 0.0));
    std::vector<double> rhs(m);
    for (int r = 0; r < m; ++r) {
      std::vector<std::pair<int, double>> t;
      for (int j = 0; j < n; ++j)
        if (rng() % 2) {
          rows[r][j] = coef(rng);
          t.emplace_back(j, rows[r][j]);
        }
      rhs[r] = coef(rng);
      lp.add_le(t, rhs[r]);
    }
    double best = lp::kInf;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double obj = 0.0;
      bool ok = true;
      for (int r = 0; r < m && ok; ++r) {
        double act = 0.0;
        for (int j = 0; j < n; ++j)
          if (mask & (1 << j)) act += rows[r][j];
        if (act > rhs[r] + 1e-9) ok = false;
      }
      if (!ok) continue;
      for (int j = 0; j < n; ++j)
        if (mask & (1 << j)) obj += lp.obj[j];
      best = std::min(best, obj);
    }
    auto res = solve_milp(lp, bounded());
    if (best == lp::kInf) {
      EXPECT_EQ(res.status, MilpStatus::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(res.status, MilpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(res.objective, best, 1e-5) << "trial " << trial;
    }
  }
}

TEST(Milp, NodeLimitReturnsFeasibleOrNoSolution) {
  LinearProgram lp;
  std::mt19937 rng(5);
  const int n = 14;
  for (int j = 0; j < n; ++j) lp.add_binary(-1.0 - 0.01 * (rng() % 50));
  std::vector<std::pair<int, double>> t;
  for (int j = 0; j < n; ++j) t.emplace_back(j, 1.0 + (rng() % 3));
  lp.add_le(t, 9.5);
  MilpOptions opts = bounded();
  opts.max_nodes = 3;
  auto res = solve_milp(lp, opts);
  EXPECT_TRUE(res.status == MilpStatus::kFeasible ||
              res.status == MilpStatus::kNoSolution);
  // Bound must be sound: no better than the root relaxation.
  EXPECT_GE(res.best_bound, res.root_relaxation - 1e-6);
}

// ---------------------------------------------------------------------
// Search machinery: brute-force oracles, warm starts, and the
// deterministic/wall-clock limit semantics.

// A family of random binary programs that is non-trivial for branch &
// bound (fractional relaxations, several constraints).
LinearProgram random_binary_program(uint32_t seed, int n, int m) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(0.5, 3.0);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) lp.add_binary(-coef(rng));
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> t;
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      const double w = coef(rng);
      t.emplace_back(j, w);
      total += w;
    }
    lp.add_le(t, 0.47 * total);  // roughly half the items fit
  }
  return lp;
}

TEST(Milp, OptimumMatchesBruteForceEnumeration) {
  // Oracle check of the tree search: enumerate all 2^n assignments of
  // each program and require the solver to prove the same optimum. The
  // tree must also stay far below enumeration scale.
  struct Case {
    uint32_t seed;
    int n, m;
  };
  for (const Case& c : {Case{3u, 14, 2}, Case{9u, 14, 2}, Case{27u, 14, 2},
                        Case{11u, 16, 3}, Case{17u, 16, 3}, Case{23u, 16, 3},
                        Case{31u, 16, 3}, Case{47u, 16, 3}}) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    LinearProgram lp = random_binary_program(c.seed, c.n, c.m);
    double best = kInf;
    std::vector<double> x(c.n);
    for (uint32_t mask = 0; mask < (1u << c.n); ++mask) {
      for (int j = 0; j < c.n; ++j) x[j] = (mask >> j) & 1u;
      if (lp.max_violation(x) <= 1e-9)
        best = std::min(best, lp.objective_value(x));
    }
    ASSERT_LT(best, kInf);
    auto res = solve_milp(lp, bounded());
    ASSERT_EQ(res.status, MilpStatus::kOptimal);
    EXPECT_NEAR(res.objective, best, 1e-6);
    EXPECT_LE(res.nodes, 1 << 12);
  }
}

TEST(Milp, WarmStartIncumbentPrunesFromNodeOne) {
  // Same instance as WeightedKnapsack; the optimum is a+c = -19 and the
  // root relaxation is fractional (-19.67).
  LinearProgram lp;
  int a = lp.add_binary(-10.0);
  int b = lp.add_binary(-9.0);
  int c = lp.add_binary(-9.0);
  lp.add_le(terms({{a, 6.0}, {b, 5.0}, {c, 4.0}}), 10.0);

  // With a node budget of 1 the incumbent can only come from the warm
  // start: it must be validated and reported even though the search never
  // reached an integral leaf.
  MilpOptions opts = bounded();
  opts.initial_solutions = {{1.0, 0.0, 1.0}};
  opts.max_nodes = 1;
  auto res = solve_milp(lp, opts);
  ASSERT_TRUE(res.has_solution());
  EXPECT_NEAR(res.objective, -19.0, 1e-9);

  // A full run seeded with the optimum needs only bound pruning: the tree
  // collapses to a handful of nodes.
  MilpOptions full = bounded();
  full.initial_solutions = {{1.0, 0.0, 1.0}};
  auto res_full = solve_milp(lp, full);
  ASSERT_EQ(res_full.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res_full.objective, -19.0, 1e-9);
  EXPECT_LE(res_full.nodes, 8);

  // An infeasible warm start must be rejected, not blindly trusted.
  MilpOptions bad = bounded();
  bad.initial_solutions = {{1.0, 1.0, 1.0}};  // weight 15 > 10
  auto res_bad = solve_milp(lp, bad);
  ASSERT_EQ(res_bad.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res_bad.objective, -19.0, 1e-6);
}

TEST(Milp, KnownLowerBoundTerminatesWithoutProof) {
  // Same knapsack; optimum -19. A caller-guaranteed lower bound plus a
  // matching warm start must terminate the search before the first node.
  LinearProgram lp;
  int a = lp.add_binary(-10.0);
  (void)lp.add_binary(-9.0);
  int c = lp.add_binary(-9.0);
  lp.add_le(terms({{a, 6.0}, {1, 5.0}, {c, 4.0}}), 10.0);

  MilpOptions opts = bounded();
  opts.initial_solutions = {{1.0, 0.0, 1.0}};
  opts.known_lower_bound = -19.0;
  auto res = solve_milp(lp, opts);
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -19.0, 1e-9);
  EXPECT_EQ(res.nodes, 0);
  // The reported bound is the external certificate, not the incumbent.
  EXPECT_NEAR(res.best_bound, -19.0, 1e-9);

  // A conservative (far-too-low) bound must not trigger the shortcut or
  // change the answer.
  MilpOptions loose = bounded();
  loose.known_lower_bound = -1000.0;
  auto res_loose = solve_milp(lp, loose);
  ASSERT_EQ(res_loose.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res_loose.objective, -19.0, 1e-6);
  EXPECT_GT(res_loose.nodes, 0);
}

TEST(Milp, TimeLimitHonoredWithoutHalfSecondFloor) {
  // Regression for the per-node simplex floor: the old code granted every
  // node LP at least 0.5 s even when the global budget was exhausted, so a
  // tiny time limit could overshoot by an order of magnitude.
  LinearProgram lp = random_binary_program(99u, 140, 12);
  MilpOptions opts = bounded();
  opts.time_limit_sec = 0.05;
  const auto start = std::chrono::steady_clock::now();
  auto res = solve_milp(lp, opts);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(secs, 0.45);
  // Truncated run: never claims optimality it did not prove.
  EXPECT_NE(res.status, MilpStatus::kOptimal);
}

TEST(Milp, DeterministicLpIterationLimitIsReproducible) {
  LinearProgram lp = random_binary_program(7u, 30, 4);
  MilpOptions opts = bounded();
  opts.max_lp_iterations = 200;
  auto r1 = solve_milp(lp, opts);
  auto r2 = solve_milp(lp, opts);
  // The limit truncates the run (this instance needs far more iterations)...
  EXPECT_NE(r1.status, MilpStatus::kOptimal);
  // ...and two runs with the same limit do identical work.
  EXPECT_EQ(r1.nodes, r2.nodes);
  EXPECT_EQ(r1.lp_iterations, r2.lp_iterations);
  EXPECT_EQ(r1.objective, r2.objective);
}

TEST(Milp, PresolveStatsReportedThroughResult) {
  LinearProgram lp;
  int x = lp.add_binary(-1.0);
  int y = lp.add_binary(-1.0);
  lp.add_le(terms({{x, 1.0}}), 0.0);              // fixes x = 0
  lp.add_le(terms({{x, 1.0}, {y, 1.0}}), 5.0);    // redundant
  auto res = solve_milp(lp, bounded());
  ASSERT_EQ(res.status, MilpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -1.0, 1e-9);
  EXPECT_GE(res.presolve.vars_fixed, 1);
  EXPECT_GE(res.presolve.rows_removed, 2);
}

}  // namespace
}  // namespace checkmate::milp
