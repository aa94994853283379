// Branch & cut subsystem (milp/cuts.h): separator validity against brute
// force, cut-pool lifecycle (hashing, activity aging, deterministic
// selection), and the end-to-end guarantee that cuts never change the
// proven optimum -- only the work needed to prove it. Also a TSan target
// of the CHECK_TIER=full CI stage (scripts/check.sh), so the suite ends
// with a multi-threaded cut-enabled solve.
#include "milp/cuts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "core/ilp_builder.h"
#include "core/remat_problem.h"
#include "milp/milp.h"

namespace checkmate::milp {
namespace {

using lp::LinearProgram;

// Builds an LP of `weights.size()` binaries plus one continuous capacity
// column whose upper bound is `cap + offset`, and the matching one-row
// FormulationStructure. The binaries' x-values are supplied per test.
struct KnapsackFixture {
  LinearProgram lp;
  FormulationStructure structure;

  KnapsackFixture(const std::vector<double>& weights, double cap,
                  double offset = 0.0) {
    KnapsackRow row;
    for (double w : weights) {
      const int v = lp.add_binary(0.0);
      row.items.push_back({v, w});
    }
    row.capacity_var = lp.add_var(0.0, cap + offset, 0.0);
    row.capacity_offset = offset;
    structure.knapsacks.push_back(std::move(row));
  }

  std::vector<Cut> separate(std::vector<double> x,
                            SeparationOptions opt = {}) const {
    x.push_back(0.0);  // the capacity column's value (unused)
    std::vector<Cut> out;
    separate_knapsack_cuts(structure, lp, x, opt, &out);
    return out;
  }
};

// Every emitted cut must hold at every 0/1 point satisfying the knapsack.
void expect_valid_for_knapsack(const std::vector<double>& weights, double cap,
                               const Cut& cut) {
  const int n = static_cast<int>(weights.size());
  ASSERT_LE(n, 20) << "brute force harness";
  for (int mask = 0; mask < (1 << n); ++mask) {
    double w = 0.0;
    for (int j = 0; j < n; ++j)
      if (mask & (1 << j)) w += weights[j];
    if (w > cap + 1e-9) continue;  // infeasible for the knapsack
    double lhs = 0.0;
    for (const auto& [var, coef] : cut.terms)
      if (var < n && (mask & (1 << var))) lhs += coef;
    EXPECT_LE(lhs, cut.rhs + 1e-9)
        << "cut violated by feasible mask " << mask;
  }
}

TEST(CutSeparation, CoverCutFoundAndValid) {
  // Three items of weight 2 under capacity 5: any two fit, all three do
  // not. The all-5/6 fractional point violates the cover x0+x1+x2 <= 2.
  const std::vector<double> w{2.0, 2.0, 2.0};
  KnapsackFixture fx(w, 5.0);
  auto cuts = fx.separate({5.0 / 6, 5.0 / 6, 5.0 / 6});
  ASSERT_FALSE(cuts.empty());
  bool found_cover = false;
  for (const Cut& c : cuts) {
    expect_valid_for_knapsack(w, 5.0, c);
    if (c.terms.size() == 3 && c.rhs == 2.0) found_cover = true;
    EXPECT_GT(c.violation, 0.0);
    EXPECT_NE(c.hash, 0u);
  }
  EXPECT_TRUE(found_cover);
}

TEST(CutSeparation, IntegerFeasiblePointSeparatesNothing) {
  const std::vector<double> w{2.0, 2.0, 2.0};
  KnapsackFixture fx(w, 5.0);
  EXPECT_TRUE(fx.separate({1.0, 1.0, 0.0}).empty());
  EXPECT_TRUE(fx.separate({0.0, 0.0, 0.0}).empty());
}

TEST(CutSeparation, LiftedCoefficientExceedsOneAndStaysValid) {
  // Cover {1,1,1,1} under cap 3 gives sum <= 3... use a heavy outsider: an
  // item of weight 3 next to four weight-1 items under cap 3.9: the cover
  // over the light items is x1+..+x4 <= 3; lifting the weight-3 item gives
  // it coefficient 3 - (max light items fitting beside it) = 3 - 0 = 3.
  const std::vector<double> w{3.0, 1.0, 1.0, 1.0, 1.0};
  KnapsackFixture fx(w, 3.9);
  auto cuts = fx.separate({0.4, 0.95, 0.95, 0.95, 0.95});
  ASSERT_FALSE(cuts.empty());
  bool lifted = false;
  for (const Cut& c : cuts) {
    expect_valid_for_knapsack(w, 3.9, c);
    for (const auto& [var, coef] : c.terms)
      if (var == 0 && coef >= 2.0) lifted = true;
  }
  EXPECT_TRUE(lifted);
}

TEST(CutSeparation, CliqueCutDominatesPairwiseConflicts) {
  // Three items of weight 3 under capacity 5: pairwise conflicting, so the
  // maximal clique inequality x0+x1+x2 <= 1 must be found at the uniform
  // half point (violation 0.5).
  const std::vector<double> w{3.0, 3.0, 3.0};
  KnapsackFixture fx(w, 5.0);
  auto cuts = fx.separate({0.5, 0.5, 0.5});
  ASSERT_FALSE(cuts.empty());
  bool clique = false;
  for (const Cut& c : cuts) {
    expect_valid_for_knapsack(w, 5.0, c);
    if (c.terms.size() == 3 && c.rhs == 1.0) clique = true;
  }
  EXPECT_TRUE(clique);
}

TEST(CutSeparation, FixedVariablesShrinkTheKnapsack) {
  // Fixing item 0 to 1 consumes its weight: the remaining two weight-2
  // items under residual capacity 2.5 conflict pairwise.
  const std::vector<double> w{2.0, 2.0, 2.0};
  KnapsackFixture fx(w, 4.5);
  fx.lp.lb[0] = fx.lp.ub[0] = 1.0;
  auto cuts = fx.separate({1.0, 0.7, 0.7});
  ASSERT_FALSE(cuts.empty());
  for (const Cut& c : cuts)
    for (const auto& [var, coef] : c.terms) EXPECT_NE(var, 0) << coef;
}

TEST(CutSeparation, CapacityReadFromLiveUpperBound) {
  // The same fractional point separates nothing at a loose budget and a
  // cover at a tight one -- capacity comes from the capacity column's
  // CURRENT upper bound (what presolve and root fixings tighten).
  const std::vector<double> w{2.0, 2.0, 2.0};
  KnapsackFixture fx(w, 20.0);
  const auto x = std::vector<double>{0.85, 0.85, 0.85};
  EXPECT_TRUE(fx.separate(x).empty());
  fx.lp.ub[fx.structure.knapsacks[0].capacity_var] = 5.0;
  EXPECT_FALSE(fx.separate(x).empty());
}

TEST(CutSeparation, RandomizedBruteForceValidity) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> wdist(0.5, 4.0);
  std::uniform_real_distribution<double> xdist(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 8);
    std::vector<double> w(n), x(n);
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      w[j] = wdist(rng);
      x[j] = xdist(rng);
      total += w[j];
    }
    const double cap = total * (0.3 + 0.4 * xdist(rng));
    KnapsackFixture fx(w, cap);
    for (const Cut& c : fx.separate(x)) expect_valid_for_knapsack(w, cap, c);
  }
}

TEST(CutSeparation, DeterministicAcrossCalls) {
  const std::vector<double> w{2.0, 3.0, 1.5, 2.5, 2.0};
  KnapsackFixture fx(w, 6.0);
  const std::vector<double> x{0.8, 0.6, 0.9, 0.7, 0.5};
  const auto a = fx.separate(x);
  const auto b = fx.separate(x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].terms, b[i].terms);
    EXPECT_EQ(a[i].rhs, b[i].rhs);
    EXPECT_EQ(a[i].hash, b[i].hash);
  }
}

// ------------------------------------------------------------------ pool

Cut make_cut(std::vector<std::pair<int, double>> terms, double rhs,
             double violation) {
  Cut c;
  c.terms = std::move(terms);
  c.rhs = rhs;
  c.violation = violation;
  c.hash = cut_hash(c);
  return c;
}

TEST(CutPool, OfferDeduplicatesByContent) {
  CutPool pool;
  EXPECT_TRUE(pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.3)));
  EXPECT_TRUE(pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.5)));
  EXPECT_EQ(pool.size(), 1u);
  // The refreshed entry carries the stronger violation.
  auto sel = pool.select(8);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0].violation, 0.5);
}

TEST(CutPool, SelectionOrderIsViolationThenDeterministicTieBreak) {
  CutPool pool;
  pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.2));
  pool.offer(make_cut({{2, 1.0}, {3, 1.0}}, 1.0, 0.7));
  pool.offer(make_cut({{4, 1.0}, {5, 1.0}}, 1.0, 0.4));
  auto sel = pool.select(2);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0].violation, 0.7);
  EXPECT_EQ(sel[1].violation, 0.4);
  // Selected cuts are in the LP now: re-offering them is a no-op and they
  // never come back from select().
  EXPECT_FALSE(pool.offer(make_cut({{2, 1.0}, {3, 1.0}}, 1.0, 0.9)));
  auto rest = pool.select(8);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].violation, 0.2);
  EXPECT_EQ(pool.cuts_selected(), 3);
}

TEST(CutPool, AgingEvictsStalePooledCuts) {
  CutPoolOptions opts;
  opts.max_age = 2;
  CutPool pool(opts);
  pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.2));
  pool.age_tick();
  pool.age_tick();
  // Re-separation resets the clock (activity-based aging).
  pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.2));
  pool.age_tick();
  pool.age_tick();
  EXPECT_EQ(pool.size(), 1u);
  pool.age_tick();
  EXPECT_EQ(pool.size(), 0u);
}

TEST(CutPool, InLpEntriesSurviveAging) {
  CutPoolOptions opts;
  opts.max_age = 1;
  CutPool pool(opts);
  pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.2));
  ASSERT_EQ(pool.select(1).size(), 1u);
  for (int i = 0; i < 5; ++i) pool.age_tick();
  EXPECT_EQ(pool.size(), 1u);  // anchors dedup against re-separation
  EXPECT_FALSE(pool.offer(make_cut({{0, 1.0}, {1, 1.0}}, 1.0, 0.9)));
}

// -------------------------------------------------- gomory mixed-integer

// Oracle for the Gomory separator: every emitted cut must hold at every
// integer-feasible point of a (pure-integer, bounded) instance. Points
// are enumerated brute-force over the variable boxes and filtered through
// the LP rows, exactly like the knapsack validity harness above.
TEST(GomorySeparation, BruteForceValidityOnRandomIps) {
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> cost(-3.0, 3.0);
  int cuts_checked = 0;
  int trials_with_cuts = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 4);
    LinearProgram lp;
    std::vector<int> ub(n);
    for (int j = 0; j < n; ++j) {
      ub[j] = 1 + static_cast<int>(rng() % 2);
      lp.add_var(0.0, ub[j], cost(rng), /*integer=*/true);
    }
    const int m = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < m; ++r) {
      std::vector<std::pair<int, double>> t;
      double mass = 0.0;
      for (int j = 0; j < n; ++j) {
        if (rng() % 3 == 0) continue;
        const double w = 1.0 + static_cast<double>(rng() % 7);
        t.emplace_back(j, w);
        mass += w * ub[j];
      }
      if (t.empty()) t.emplace_back(static_cast<int>(rng() % n), 2.0);
      lp.add_le(t, std::max(1.0, std::floor(mass * 0.45)));
    }
    lp::DualSimplex engine(lp);
    auto res = engine.solve();
    if (res.status != lp::LpStatus::kOptimal) continue;
    std::vector<Cut> cuts;
    separate_gomory_cuts(lp, engine, res.x, SeparationOptions{}, &cuts);
    if (cuts.empty()) continue;
    ++trials_with_cuts;
    for (const Cut& cut : cuts) {
      EXPECT_GT(cut.violation, 0.0) << "trial " << trial;
      EXPECT_EQ(cut.source, Cut::kGomory) << "trial " << trial;
    }
    // Mixed-radix enumeration of the integer box.
    std::vector<double> pt(n, 0.0);
    for (;;) {
      if (lp.max_violation(pt) <= 1e-9) {
        for (const Cut& cut : cuts) {
          double lhs = 0.0;
          for (const auto& [var, coef] : cut.terms) lhs += coef * pt[var];
          EXPECT_LE(lhs, cut.rhs + 1e-7)
              << "trial " << trial << " cut invalid at integer point";
          ++cuts_checked;
        }
      }
      int j = 0;
      while (j < n && pt[j] >= ub[j]) pt[j++] = 0.0;
      if (j == n) break;
      pt[j] += 1.0;
    }
  }
  // The generator must actually exercise the separator.
  EXPECT_GT(trials_with_cuts, 10);
  EXPECT_GT(cuts_checked, 100);
}

// ------------------------------------------------------------ end to end

TEST(BranchAndCut, CutsPreserveOptimumAndShrinkTree) {
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 5.0;  // tight: a real search
  IlpFormulation f(p, build);
  const FormulationStructure structure = f.cut_structure();
  ASSERT_FALSE(structure.empty());

  MilpOptions base;
  base.time_limit_sec = 30.0;
  base.branch_priority = f.branch_priorities();
  base.reliability_branching = false;  // isolate the cut effect
  base.gomory_cuts = false;  // knapsack separators only in both runs

  MilpOptions with_cuts = base;
  with_cuts.cut_structure = &structure;
  auto on = solve_milp(f.lp(), with_cuts);
  auto off = solve_milp(f.lp(), base);
  ASSERT_EQ(on.status, MilpStatus::kOptimal);
  ASSERT_EQ(off.status, MilpStatus::kOptimal);
  EXPECT_NEAR(on.objective, off.objective, 1e-6);
  EXPECT_GT(on.cuts_added, 0);
  EXPECT_EQ(off.cuts_added, 0);
  // The point of the subsystem: fewer nodes to the same proof.
  EXPECT_LE(on.nodes, off.nodes);
}

TEST(BranchAndCut, ReliabilityBranchingPreservesOptimum) {
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 5.0;
  IlpFormulation f(p, build);
  const FormulationStructure structure = f.cut_structure();

  MilpOptions rel;
  rel.time_limit_sec = 30.0;
  rel.branch_priority = f.branch_priorities();
  rel.cut_structure = &structure;
  rel.reliability_branching = true;
  MilpOptions norel = rel;
  norel.reliability_branching = false;
  auto a = solve_milp(f.lp(), rel);
  auto b = solve_milp(f.lp(), norel);
  ASSERT_EQ(a.status, MilpStatus::kOptimal);
  ASSERT_EQ(b.status, MilpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  EXPECT_GT(a.strong_branches, 0);
  EXPECT_EQ(b.strong_branches, 0);
}

TEST(BranchAndCut, WorkerCountInvariantWithCutsAndReliability) {
  // The acceptance bar of the branch & cut refactor: node counts,
  // incumbents, bounds, cut counts and probe counts are bit-identical for
  // any worker count with separation AND reliability branching enabled.
  // (Also the TSan scenario for this suite.)
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 5.0;
  IlpFormulation f(p, build);
  const FormulationStructure structure = f.cut_structure();

  std::optional<MilpResult> reference;
  for (int threads : {1, 2, 4}) {
    MilpOptions opts;
    opts.time_limit_sec = 30.0;
    opts.branch_priority = f.branch_priorities();
    opts.cut_structure = &structure;
    opts.num_threads = threads;
    auto res = solve_milp(f.lp(), opts);
    ASSERT_EQ(res.status, MilpStatus::kOptimal) << "threads " << threads;
    EXPECT_GT(res.cuts_added, 0);
    if (!reference) {
      reference = res;
      continue;
    }
    // Every counter, LP-engine ones included, is part of the deterministic
    // contract: slot trajectories are snapshot-pure.
    EXPECT_EQ(static_cast<const lp::SolveStats&>(*reference),
              static_cast<const lp::SolveStats&>(res))
        << threads;
    EXPECT_EQ(reference->objective, res.objective) << threads;
    EXPECT_EQ(reference->best_bound, res.best_bound) << threads;
    EXPECT_EQ(reference->root_relaxation, res.root_relaxation) << threads;
    ASSERT_EQ(reference->x.size(), res.x.size());
    for (size_t j = 0; j < res.x.size(); ++j)
      EXPECT_EQ(reference->x[j], res.x[j]) << "x[" << j << "]";
  }
}

}  // namespace
}  // namespace checkmate::milp
