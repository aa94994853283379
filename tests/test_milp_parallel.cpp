// Determinism contract of the epoch-lockstep parallel branch & bound
// (milp/branch_and_bound.h): for ANY worker count the explored tree, node
// counts, incumbents, objectives and deterministic work-limit semantics are
// bit-identical -- num_threads is purely a wall-clock knob. This suite is
// also the ThreadSanitizer target of the CHECK_TIER=full CI stage
// (scripts/check.sh builds it with -DCHECKMATE_TSAN=ON), so it
// deliberately exercises multi-threaded epochs.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/ilp_builder.h"
#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "milp/branch_and_bound.h"
#include "milp/milp.h"

namespace checkmate::milp {
namespace {

using lp::LinearProgram;

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
    lp.add_le(t, 0.47 * total);
  }
  return lp;
}

MilpOptions bounded(double time_limit_sec = 30.0) {
  MilpOptions opts;
  opts.time_limit_sec = time_limit_sec;
  return opts;
}

// The full bit-identity check between two runs of the same instance.
void expect_identical(const MilpResult& a, const MilpResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  // Every counter: nodes, pivots, cuts, probes, fixings, engine counters.
  EXPECT_EQ(static_cast<const lp::SolveStats&>(a),
            static_cast<const lp::SolveStats&>(b))
      << what;
  EXPECT_EQ(a.objective, b.objective) << what;  // bitwise, not NEAR
  EXPECT_EQ(a.best_bound, b.best_bound) << what;
  EXPECT_EQ(a.root_relaxation, b.root_relaxation) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (size_t j = 0; j < a.x.size(); ++j)
    EXPECT_EQ(a.x[j], b.x[j]) << what << " x[" << j << "]";
}

TEST(MilpParallel, WorkerCountInvariantOnRandomPrograms) {
  for (uint32_t seed : {11u, 23u, 47u}) {
    LinearProgram lp = random_binary_program(seed, 16, 3);
    std::optional<MilpResult> reference;
    for (int threads : {1, 2, 4}) {
      MilpOptions opts = bounded();
      opts.num_threads = threads;
      auto res = solve_milp(lp, opts);
      ASSERT_EQ(res.status, MilpStatus::kOptimal)
          << "seed " << seed << " threads " << threads;
      if (!reference)
        reference = res;
      else
        expect_identical(*reference, res,
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
    }
  }
}

TEST(MilpParallel, WorkerCountInvariantOnRematInstance) {
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 5.0;  // tight budget: a real multi-epoch search
  IlpFormulation f(p, build);
  std::optional<MilpResult> reference;
  for (int threads : {1, 2, 4}) {
    MilpOptions opts = bounded();
    opts.branch_priority = f.branch_priorities();
    opts.num_threads = threads;
    auto res = solve_milp(f.lp(), opts);
    ASSERT_EQ(res.status, MilpStatus::kOptimal) << "threads " << threads;
    if (!reference)
      reference = res;
    else
      expect_identical(*reference, res,
                       "remat threads " + std::to_string(threads));
  }
  EXPECT_GT(reference->nodes, 4);  // genuinely searched, not a root solve
}

TEST(MilpParallel, RootFixingAndSteepestEdgeInvariantAcrossWorkerCounts) {
  // PR 4 hot path under the bit-identity contract: steepest-edge weights
  // ride the basis snapshots between workers and root reduced-cost fixing
  // mutates the shared working LP at epoch barriers -- node counts,
  // iteration counts, objectives AND the number of fixings must be
  // identical for every worker count.
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 5.0;
  IlpFormulation f(p, build);
  std::optional<MilpResult> reference;
  for (int threads : {1, 2, 4}) {
    MilpOptions opts = bounded();
    opts.branch_priority = f.branch_priorities();
    opts.num_threads = threads;
    auto res = solve_milp(f.lp(), opts);
    ASSERT_EQ(res.status, MilpStatus::kOptimal) << "threads " << threads;
    if (!reference) {
      reference = res;
    } else {
      expect_identical(*reference, res,
                       "rcfix threads " + std::to_string(threads));
    }
  }
}

TEST(MilpParallel, DeterministicIterationLimitAcrossWorkerCounts) {
  // The deterministic work limit must truncate the SAME tree at the SAME
  // point for every worker count (the limit is projected from epoch-start
  // committed totals plus slot-local work only).
  LinearProgram lp = random_binary_program(7u, 30, 4);
  std::optional<MilpResult> reference;
  for (int threads : {1, 2, 4}) {
    MilpOptions opts = bounded();
    opts.max_lp_iterations = 200;
    opts.num_threads = threads;
    auto res = solve_milp(lp, opts);
    EXPECT_NE(res.status, MilpStatus::kOptimal) << "threads " << threads;
    if (!reference)
      reference = res;
    else
      expect_identical(*reference, res,
                       "iter-limit threads " + std::to_string(threads));
  }
}

TEST(MilpParallel, IterationLimitBindsRootLpAndCutRounds) {
  // The deterministic work limit caps the root LP and the root cut rounds,
  // not only the tree. Without the caps the root epoch alone runs 960
  // pivots on the chain (one root LP) and 394 on the training chain (root
  // LP, probes and cut rounds), whatever the limit. Limits 1 and 100 stop
  // inside the root LP. On the training chain the root LP takes ~212
  // pivots, so 220 stops inside the root's strong-branch probes and 300
  // inside its cut rounds; 400 and 500 stop in the tree, where an epoch's
  // four slots together would cross the limit (406 and 519 pivots) unless
  // the epoch is replayed slot by slot. A run must stop at the limit -- at
  // the same point for every worker count, with a sound bound under the
  // seeded incumbent.
  struct Case {
    const char* name;
    RematProblem problem;
    IlpFormulationKind formulation;
    double budget;
    std::vector<int64_t> limits;
  };
  const Case cases[] = {
      {"unit_chain(480) interval", RematProblem::unit_chain(480),
       IlpFormulationKind::kInterval, 6.0, {1, 100}},
      {"unit_training_chain(6) dense", RematProblem::unit_training_chain(6),
       IlpFormulationKind::kDense, 5.0, {1, 100, 220, 300, 400, 500}},
  };
  for (const Case& c : cases) {
    Scheduler sched(c.problem);
    for (int64_t limit : c.limits) {
      std::optional<ScheduleResult> reference;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(c.name) + " limit " + std::to_string(limit) +
                     " threads " + std::to_string(threads));
        IlpSolveOptions opts;
        opts.time_limit_sec = 60.0;
        opts.formulation = c.formulation;
        opts.max_lp_iterations = limit;
        opts.num_threads = threads;
        const auto res = sched.solve_optimal_ilp(c.budget, opts);
        ASSERT_TRUE(res.feasible) << res.message;
        EXPECT_LE(res.lp_iterations, limit);
        EXPECT_LE(res.best_bound, res.cost);
        if (!reference) {
          reference = res;
          continue;
        }
        EXPECT_EQ(static_cast<const lp::SolveStats&>(*reference),
                  static_cast<const lp::SolveStats&>(res));
        EXPECT_EQ(reference->cost, res.cost);
        EXPECT_EQ(reference->best_bound, res.best_bound);
      }
    }
  }
}

TEST(MilpParallel, HeuristicAndSeedsInvariantAcrossWorkerCounts) {
  // Incumbent heuristics run on the coordinator at epoch commit and seeds
  // are offered before the search; neither may perturb the tree shape
  // across worker counts.
  LinearProgram lp = random_binary_program(31u, 14, 2);
  auto heuristic = [&](const std::vector<double>& x)
      -> std::optional<std::vector<double>> {
    std::vector<double> rounded(x.size());
    for (size_t j = 0; j < x.size(); ++j) rounded[j] = std::round(x[j]);
    return rounded;
  };
  std::optional<MilpResult> reference;
  for (int threads : {1, 2, 4}) {
    MilpOptions opts = bounded();
    opts.num_threads = threads;
    opts.initial_solutions = {std::vector<double>(14, 0.0)};
    auto res = solve_milp(lp, opts, heuristic);
    ASSERT_EQ(res.status, MilpStatus::kOptimal) << "threads " << threads;
    if (!reference)
      reference = res;
    else
      expect_identical(*reference, res,
                       "heuristic threads " + std::to_string(threads));
  }
}

TEST(MilpParallel, MatchesBruteForceWithFourWorkers) {
  // The parallel search must stay exact, not merely self-consistent.
  std::mt19937 rng(101);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 5);
    const int m = 1 + static_cast<int>(rng() % 3);
    LinearProgram lp;
    std::vector<std::vector<double>> rows(m, std::vector<double>(n, 0.0));
    std::vector<double> rhs(m);
    for (int j = 0; j < n; ++j) lp.add_binary(coef(rng));
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
    MilpOptions opts = bounded();
    opts.num_threads = 4;
    auto res = solve_milp(lp, opts);
    if (best == lp::kInf) {
      EXPECT_EQ(res.status, MilpStatus::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(res.status, MilpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(res.objective, best, 1e-5) << "trial " << trial;
    }
  }
}

TEST(MilpParallel, ResolveTreeThreadsAlwaysPositive) {
  MilpOptions opts;
  opts.num_threads = 0;  // auto: hardware count, but never 0
  EXPECT_GE(resolve_tree_threads(opts), 1);
  EXPECT_LE(resolve_tree_threads(opts), 4);
  opts.num_threads = 64;  // clamped to the epoch width, 4
  EXPECT_EQ(resolve_tree_threads(opts), 4);
  opts.num_threads = -3;
  EXPECT_GE(resolve_tree_threads(opts), 1);
}

TEST(MilpParallel, SchedulerEndToEndInvariantAcrossWorkerCounts) {
  // Through the full Checkmate stack (formulation, baseline seeding,
  // rounding heuristic): identical schedule cost and node count for every
  // worker count.
  auto p = RematProblem::unit_training_chain(6);
  Scheduler sched(p);
  std::optional<ScheduleResult> reference;
  for (int threads : {1, 2, 4}) {
    IlpSolveOptions opts;
    opts.time_limit_sec = 30.0;
    opts.num_threads = threads;
    auto res = sched.solve_optimal_ilp(5.0, opts);
    ASSERT_EQ(res.milp_status, milp::MilpStatus::kOptimal)
        << "threads " << threads;
    if (!reference) {
      reference = res;
    } else {
      EXPECT_EQ(static_cast<const lp::SolveStats&>(*reference),
                static_cast<const lp::SolveStats&>(res))
          << "threads " << threads;
      EXPECT_EQ(reference->cost, res.cost) << "threads " << threads;
      EXPECT_EQ(reference->best_bound, res.best_bound)
          << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace checkmate::milp
