// Plan service: problem fingerprints, fresh builds for every solve,
// history independence, concurrent queries on one model, the in-memory
// budget staircase and the thread budget.
#include "service/plan_service.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "milp/milp.h"

namespace checkmate {
namespace {

IlpSolveOptions fast_opts() {
  IlpSolveOptions opts;
  opts.time_limit_sec = 30.0;
  return opts;
}

TEST(Fingerprint, CanonicalOverContentNotNames) {
  auto a = RematProblem::unit_training_chain(5);
  auto b = RematProblem::unit_training_chain(5);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Names are cosmetic: same formulation, same fingerprint.
  b.name = "renamed";
  b.node_names[0] = "other";
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Size, costs, memories, overhead and topology all key the hash.
  EXPECT_NE(a.fingerprint(),
            RematProblem::unit_training_chain(6).fingerprint());
  auto cost_bumped = a;
  cost_bumped.cost[2] += 0.5;
  EXPECT_NE(a.fingerprint(), cost_bumped.fingerprint());
  auto mem_bumped = a;
  mem_bumped.memory[3] *= 2.0;
  EXPECT_NE(a.fingerprint(), mem_bumped.fingerprint());
  auto overhead_bumped = a;
  overhead_bumped.fixed_overhead += 1.0;
  EXPECT_NE(a.fingerprint(), overhead_bumped.fingerprint());
  auto rewired = a;
  ASSERT_FALSE(rewired.graph.has_edge(0, 5));
  rewired.graph.add_edge(0, 5);
  EXPECT_NE(a.fingerprint(), rewired.fingerprint());
}

// Every solve builds and presolves fresh; nothing else is counted.
void expect_fresh_builds(const service::ServiceStats& st) {
  EXPECT_EQ(st.formulation_misses, st.queries);
  EXPECT_EQ(st.presolve_runs, st.queries);
  EXPECT_EQ(st.formulation_hits, 0);
  EXPECT_EQ(st.budget_rebinds, 0);
  EXPECT_EQ(st.presolve_reuses, 0);
}

TEST(PlanService, SweepMatchesColdSolvesAndIsMonotone) {
  auto p = RematProblem::unit_training_chain(6);
  Scheduler sched(p);
  const std::vector<double> budgets = {5.0, 6.0, 8.0, 11.0};

  service::PlanService svc;
  const auto swept = svc.sweep_robust(p, budgets, fast_opts());
  ASSERT_EQ(swept.size(), budgets.size());

  double prev_cost = lp::kInf;
  for (size_t i = 0; i < budgets.size(); ++i) {
    const auto cold = sched.solve_optimal_ilp(budgets[i], fast_opts());
    const ScheduleResult& got = swept[i].result;
    ASSERT_TRUE(got.feasible) << got.message;
    ASSERT_EQ(swept[i].provenance, service::PlanProvenance::kProvenOptimal);
    ASSERT_EQ(got.milp_status, milp::MilpStatus::kOptimal);
    ASSERT_EQ(cold.milp_status, milp::MilpStatus::kOptimal);
    // Identical proven-optimal objective at every point.
    EXPECT_NEAR(got.cost, cold.cost, 1e-6) << "budget " << budgets[i];
    // The staircase must preserve monotonicity: more memory never costs
    // more.
    EXPECT_LE(got.cost, prev_cost + 1e-9);
    prev_cost = got.cost;
  }

  // The same four answers, each either solved or served by the staircase.
  const auto st = svc.stats();
  EXPECT_EQ(st.queries + st.warm_start_shortcuts, 4);
  EXPECT_GE(st.queries, 1);
  expect_fresh_builds(st);
}

TEST(PlanService, SweepResultsComeBackInCallerOrder) {
  auto p = RematProblem::unit_training_chain(5);
  const std::vector<double> shuffled = {9.0, 5.0, 12.0, 6.0};
  service::PlanService svc;
  const auto res = svc.sweep_robust(p, shuffled, fast_opts());
  ASSERT_EQ(res.size(), shuffled.size());
  Scheduler sched(p);
  for (size_t i = 0; i < shuffled.size(); ++i) {
    ASSERT_EQ(res[i].result.milp_status, milp::MilpStatus::kOptimal);
    EXPECT_NEAR(res[i].result.cost,
                sched.solve_optimal_ilp(shuffled[i], fast_opts()).cost, 1e-6);
  }
}

TEST(PlanService, EverySolveBuildsFresh) {
  auto p = RematProblem::unit_training_chain(5);
  service::PlanService svc;
  const auto a = svc.plan_robust(p, 12.0, fast_opts()).result;
  const auto b = svc.plan_robust(p, 6.0, fast_opts()).result;
  ASSERT_EQ(a.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_GE(b.cost, a.cost);

  const auto st = svc.stats();
  EXPECT_EQ(st.queries, 2);
  expect_fresh_builds(st);

  Scheduler sched(p);
  EXPECT_NEAR(b.cost, sched.solve_optimal_ilp(6.0, fast_opts()).cost, 1e-6);
}

TEST(PlanService, CostCapIsPartOfTheStoreShape) {
  auto p = RematProblem::unit_training_chain(4);
  service::PlanService svc;
  IlpSolveOptions capped = fast_opts();
  capped.cost_cap = 2.0 * p.forward_cost() + p.backward_cost();
  (void)svc.plan_robust(p, 9.0, fast_opts());
  (void)svc.plan_robust(p, 9.0, capped);
  // The uncapped optimum is not served to the capped query: it solves.
  const auto st = svc.stats();
  EXPECT_EQ(st.queries, 2);
  EXPECT_EQ(st.warm_start_shortcuts, 0);
  expect_fresh_builds(st);
}

TEST(PlanService, BelowFloorBudgetIsInfeasibleWithoutABuild) {
  auto p = RematProblem::unit_training_chain(4);
  service::PlanService svc;
  const auto out = svc.plan_robust(p, 0.5 * p.memory_floor(), fast_opts());
  EXPECT_EQ(out.provenance, service::PlanProvenance::kInfeasible);
  EXPECT_FALSE(out.result.feasible);
  EXPECT_EQ(out.result.milp_status, milp::MilpStatus::kInfeasible);
  EXPECT_EQ(svc.stats().queries, 0);
  EXPECT_EQ(svc.stats().formulation_misses, 0);
}

TEST(PlanService, GenerousBudgetsShareOneStaircaseStep) {
  // At generous budgets the optimum sits at the compute floor; once one
  // point is solved, its schedule is provably optimal for the rest of the
  // flat region and the solver is skipped outright.
  auto p = RematProblem::unit_training_chain(6);
  const double total = p.total_memory();
  service::PlanService svc;
  const auto res =
      svc.sweep_robust(p, {0.7 * total, 0.8 * total, 0.9 * total, total},
                       fast_opts());
  for (const auto& r : res) {
    ASSERT_EQ(r.result.milp_status, milp::MilpStatus::kOptimal);
    EXPECT_NEAR(r.result.overhead, 1.0, 1e-9);
  }
  EXPECT_GE(svc.stats().warm_start_shortcuts, 3);
}

TEST(PlanService, StaircaseServesRepeatsAcrossModels) {
  const auto pa = RematProblem::unit_training_chain(4);
  const auto pb = RematProblem::unit_training_chain(5);
  service::PlanService svc;
  const auto a1 = svc.plan_robust(pa, 9.0, fast_opts()).result;
  const auto b1 = svc.plan_robust(pb, 11.0, fast_opts()).result;
  // A solve of another model in between does not lose pa's answer: the
  // staircase serves the repeat with zero solver work.
  const auto a2 = svc.plan_robust(pa, 9.0, fast_opts()).result;
  ASSERT_EQ(a1.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b1.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(a2.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(a1.cost, a2.cost, 1e-9);
  EXPECT_EQ(a2.nodes, 0);
  EXPECT_EQ(svc.stats().queries, 2);
  EXPECT_EQ(svc.stats().formulation_misses, 2);

  // Below a1's peak the staircase cannot serve: pa is built and solved.
  const double tight = pa.memory_floor();
  ASSERT_LT(tight, a1.peak_memory);
  const auto a3 = svc.plan_robust(pa, tight, fast_opts()).result;
  ASSERT_EQ(a3.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(a3.cost, Scheduler(pa).solve_optimal_ilp(tight, fast_opts()).cost,
              1e-6);
  const auto st = svc.stats();
  EXPECT_EQ(st.queries, 3);
  expect_fresh_builds(st);
}

TEST(PlanService, SolveWorkDoesNotDependOnQueryHistory) {
  // A Figure-5 descent through one service, from the compute-everything
  // budget down to the structural floor. Every solved point must return the
  // cold Scheduler cost with no more nodes or pivots than the cold solve:
  // the staircase's carried dual bound may only stop the same search
  // earlier, and nothing else an earlier query left behind may steer it.
  const auto p = RematProblem::unit_training_chain(7);
  const Scheduler sched(p);
  const double lo = p.memory_floor();
  const double hi = p.total_memory();
  service::PlanService svc;
  int solved = 0;
  for (int i = 0; i < 12; ++i) {
    const double budget = hi - (hi - lo) * i / 11.0;
    const int64_t queries_before = svc.stats().queries;
    const auto out = svc.plan_robust(p, budget, fast_opts());
    ASSERT_EQ(out.provenance, service::PlanProvenance::kProvenOptimal)
        << "budget " << budget << ": " << out.why_degraded;
    if (svc.stats().queries == queries_before) continue;  // staircase answer
    ++solved;
    const auto cold = sched.solve_optimal_ilp(budget, fast_opts());
    ASSERT_EQ(cold.milp_status, milp::MilpStatus::kOptimal);
    EXPECT_EQ(out.result.cost, cold.cost) << "budget " << budget;
    EXPECT_LE(out.result.nodes, cold.nodes) << "budget " << budget;
    EXPECT_LE(out.result.lp_iterations, cold.lp_iterations)
        << "budget " << budget;
  }
  EXPECT_GE(solved, 5);
  expect_fresh_builds(svc.stats());
}

TEST(PlanService, ConcurrentQueriesOnOneModelMatchColdSolves) {
  // Four clients ask one model at four budgets with pairwise distinct
  // optima, so no answer can serve another from the staircase: all four
  // solve, concurrently, whatever order they finish in.
  const auto p = RematProblem::unit_training_chain(7);
  const std::vector<double> budgets = {5.0, 6.0, 7.0, 8.0};
  service::PlanServiceOptions solo;
  solo.num_threads = 1;
  service::PlanService svc(solo);
  std::vector<service::PlanOutcome> outs(budgets.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < budgets.size(); ++i)
    clients.emplace_back([&, i] {
      outs[i] = svc.plan_robust(p, budgets[i], fast_opts());
    });
  for (auto& c : clients) c.join();

  const Scheduler sched(p);
  for (size_t i = 0; i < budgets.size(); ++i) {
    const auto cold = sched.solve_optimal_ilp(budgets[i], fast_opts());
    ASSERT_EQ(cold.milp_status, milp::MilpStatus::kOptimal);
    ASSERT_EQ(outs[i].provenance, service::PlanProvenance::kProvenOptimal)
        << outs[i].why_degraded;
    EXPECT_EQ(outs[i].result.cost, cold.cost) << "budget " << budgets[i];
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.queries, 4);
  EXPECT_EQ(st.warm_start_shortcuts, 0);
  expect_fresh_builds(st);
}

TEST(PlanService, StaircaseKeepsEveryStepNotJustTheLastSolve) {
  // Without a store directory the service still keeps every proven step:
  // re-asking a small budget after a larger one whose plan does not fit it
  // is served, not re-solved.
  const auto p = RematProblem::unit_training_chain(6);
  const double small = 5.0;
  const double large = p.total_memory();
  service::PlanService svc;
  const auto first = svc.plan_robust(p, small, fast_opts()).result;
  const auto big = svc.plan_robust(p, large, fast_opts()).result;
  ASSERT_EQ(first.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(big.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_GT(big.peak_memory, small) << "the large plan must not fit small";
  const auto again = svc.plan_robust(p, small, fast_opts());
  ASSERT_EQ(again.provenance, service::PlanProvenance::kProvenOptimal);
  EXPECT_DOUBLE_EQ(again.result.cost, first.cost);
  EXPECT_EQ(again.result.nodes, 0);
  const auto st = svc.stats();
  EXPECT_EQ(st.queries, 2);
  EXPECT_EQ(st.warm_start_shortcuts, 1);
  EXPECT_EQ(st.store_hits, 0);
  EXPECT_EQ(svc.plan_store(), nullptr);
}

TEST(PlanService, NonFiniteBudgetThrowsAndLeavesTheServiceClean) {
  // An infinite budget would build a formulation with every memory
  // coefficient zeroed; a NaN budget would "prove" a plan optimal. Both are
  // rejected before any flight or store is touched, and a finite query on
  // the same service still solves.
  const auto p = RematProblem::unit_training_chain(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  service::PlanService svc;
  for (double b : {inf, -inf, nan})
    EXPECT_THROW(svc.plan_robust(p, b, fast_opts()), std::invalid_argument)
        << b;
  EXPECT_THROW(svc.sweep_robust(p, {6.0, nan}, fast_opts()),
               std::invalid_argument);
  EXPECT_EQ(svc.stats().queries, 0);
  EXPECT_EQ(svc.stats().formulation_misses, 0);
  const auto out = svc.plan_robust(p, 5.0, fast_opts());
  EXPECT_EQ(out.provenance, service::PlanProvenance::kProvenOptimal)
      << out.why_degraded;
  EXPECT_GT(out.result.nodes, 0);

  const Scheduler sched(p);
  for (double b : {inf, nan})
    EXPECT_THROW(sched.solve_optimal_ilp(b, fast_opts()),
                 std::invalid_argument)
        << b;
}

TEST(PlanService, NegativeQueryThreadCountGetsTheServiceBudget) {
  // A query that explicitly asks for a negative worker count must get the
  // service's thread budget, not resolve_tree_threads' auto-all-cores path
  // (outside the budget, and on hardware_concurrency()==0 platforms
  // nondeterministically sized). Both services fresh: a repeat query would
  // answer from the staircase (nodes == 0) instead of solving.
  const auto p = RematProblem::unit_training_chain(6);
  const double budget = 8.0;  // tight-ish but feasible
  service::PlanService svc_neg;
  IlpSolveOptions neg = fast_opts();
  neg.num_threads = -3;
  const auto n = svc_neg.plan_robust(p, budget, neg).result;
  service::PlanServiceOptions solo;
  solo.num_threads = 1;
  service::PlanService svc_ref(solo);
  const auto r = svc_ref.plan_robust(p, budget, fast_opts()).result;
  ASSERT_EQ(n.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_EQ(n.cost, r.cost);
  EXPECT_EQ(n.nodes, r.nodes);
  EXPECT_EQ(n.lp_iterations, r.lp_iterations);
}

TEST(PlanService, ThreadBudgetDoesNotChangeAnswers) {
  // The thread budget sizes each query's in-solve tree search;
  // epoch-lockstep determinism means every budget returns bit-identical
  // plans and node counts.
  auto p = RematProblem::unit_training_chain(6);
  service::PlanServiceOptions solo;
  solo.num_threads = 1;
  service::PlanService svc_solo(solo);
  service::PlanServiceOptions wide;
  wide.num_threads = 4;
  service::PlanService svc_wide(wide);

  const auto a = svc_solo.plan_robust(p, 5.0, fast_opts()).result;
  const auto b = svc_wide.plan_robust(p, 5.0, fast_opts()).result;
  ASSERT_EQ(a.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);

  // An explicit per-query num_threads overrides the budget and still
  // changes nothing. (Fresh service: a repeat query against svc_wide would
  // legitimately answer from the staircase without solving.)
  service::PlanService svc_pinned;
  IlpSolveOptions pinned = fast_opts();
  pinned.num_threads = 2;
  const auto c = svc_pinned.plan_robust(p, 5.0, pinned).result;
  ASSERT_EQ(c.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_EQ(a.cost, c.cost);
  EXPECT_EQ(a.nodes, c.nodes);
}

}  // namespace
}  // namespace checkmate
