// Plan service: problem fingerprints, formulation-cache budget rebinds,
// presolve-artifact clamping, the in-memory budget staircase and the
// thread budget.
#include "service/plan_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/ilp_builder.h"
#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "milp/milp.h"
#include "milp/presolve.h"

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

TEST(FormulationRebind, SetBudgetMovesOnlyUVariableBounds) {
  auto p = RematProblem::unit_training_chain(4);
  IlpBuildOptions build;
  build.budget_bytes = 8.0;
  IlpFormulation rebound(p, build);
  rebound.set_budget(5.0);

  IlpBuildOptions fresh_build;
  fresh_build.budget_bytes = 5.0;
  IlpFormulation fresh(p, fresh_build);

  // Same variable space; non-U bounds untouched by the rebind.
  ASSERT_EQ(rebound.lp().num_vars(), fresh.lp().num_vars());
  const auto& u_vars = rebound.u_var_indices();
  EXPECT_FALSE(u_vars.empty());
  for (int j = 0; j < rebound.lp().num_vars(); ++j) {
    if (std::find(u_vars.begin(), u_vars.end(), j) != u_vars.end()) {
      EXPECT_DOUBLE_EQ(rebound.lp().ub[j], rebound.scale_budget(5.0));
    } else {
      EXPECT_DOUBLE_EQ(rebound.lp().lb[j], fresh.lp().lb[j]);
      EXPECT_DOUBLE_EQ(rebound.lp().ub[j], fresh.lp().ub[j]);
    }
  }
  EXPECT_DOUBLE_EQ(rebound.options().budget_bytes, 5.0);
}

TEST(FormulationRebind, RebindEquivalentToFreshBuild) {
  // The scaling differs (frozen at construction) but the feasible set and
  // optimum must be identical: solve both MILPs and compare unscaled cost.
  auto p = RematProblem::unit_training_chain(5);
  IlpBuildOptions build;
  build.budget_bytes = 10.0;
  IlpFormulation rebound(p, build);
  rebound.set_budget(6.0);

  IlpBuildOptions fresh_build;
  fresh_build.budget_bytes = 6.0;
  IlpFormulation fresh(p, fresh_build);

  milp::MilpOptions mopts;
  mopts.time_limit_sec = 30.0;
  const auto res_rebound = milp::solve_milp(rebound.lp(), mopts);
  const auto res_fresh = milp::solve_milp(fresh.lp(), mopts);
  ASSERT_EQ(res_rebound.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(res_fresh.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(rebound.unscale_cost(res_rebound.objective),
              fresh.unscale_cost(res_fresh.objective), 1e-6);
}

TEST(PresolveRebind, ClampUpperBounds) {
  lp::LinearProgram prog;
  prog.add_var(0.0, 10.0, 1.0);
  prog.add_var(2.0, 10.0, 1.0);
  prog.add_var(0.0, 1.0, 1.0);
  const int vars[] = {0, 1};
  EXPECT_TRUE(milp::clamp_upper_bounds(prog, vars, 4.0));
  EXPECT_DOUBLE_EQ(prog.ub[0], 4.0);
  EXPECT_DOUBLE_EQ(prog.ub[1], 4.0);
  EXPECT_DOUBLE_EQ(prog.ub[2], 1.0);  // not listed: untouched
  // Clamping below a lower bound proves infeasibility.
  EXPECT_FALSE(milp::clamp_upper_bounds(prog, vars, 1.0));
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
  EXPECT_EQ(st.formulation_misses, 1);
  EXPECT_EQ(st.presolve_runs, 1);  // once, at the largest budget
  EXPECT_GE(st.presolve_reuses + st.warm_start_shortcuts, 3);
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

TEST(PlanService, RepeatedPlansHitTheFormulationCache) {
  auto p = RematProblem::unit_training_chain(5);
  service::PlanService svc;
  const auto a = svc.plan_robust(p, 12.0, fast_opts()).result;
  const auto b = svc.plan_robust(p, 6.0, fast_opts()).result;
  ASSERT_EQ(a.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_GE(b.cost, a.cost);

  const auto st = svc.stats();
  EXPECT_EQ(st.formulation_misses, 1);
  EXPECT_EQ(st.formulation_hits, 1);
  EXPECT_EQ(svc.cache_size(), 1u);

  Scheduler sched(p);
  EXPECT_NEAR(b.cost, sched.solve_optimal_ilp(6.0, fast_opts()).cost, 1e-6);
}

TEST(PlanService, CostCapIsPartOfTheCacheKey) {
  auto p = RematProblem::unit_training_chain(4);
  service::PlanService svc;
  IlpSolveOptions capped = fast_opts();
  capped.cost_cap = 2.0 * p.forward_cost() + p.backward_cost();
  (void)svc.plan_robust(p, 9.0, fast_opts());
  (void)svc.plan_robust(p, 9.0, capped);
  const auto st = svc.stats();
  EXPECT_EQ(st.formulation_misses, 2);
  EXPECT_EQ(st.formulation_hits, 0);
}

TEST(PlanService, BelowFloorBudgetIsInfeasibleWithoutABuild) {
  auto p = RematProblem::unit_training_chain(4);
  service::PlanService svc;
  const auto out = svc.plan_robust(p, 0.5 * p.memory_floor(), fast_opts());
  EXPECT_EQ(out.provenance, service::PlanProvenance::kInfeasible);
  EXPECT_FALSE(out.result.feasible);
  EXPECT_EQ(out.result.milp_status, milp::MilpStatus::kInfeasible);
  EXPECT_EQ(svc.cache_size(), 0u);
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

TEST(PlanService, LruEvictionKeepsAnswersCorrect) {
  const auto pa = RematProblem::unit_training_chain(4);
  const auto pb = RematProblem::unit_training_chain(5);
  service::PlanServiceOptions tiny;
  tiny.max_cache_entries = 1;
  service::PlanService svc(tiny);
  const auto a1 = svc.plan_robust(pa, 9.0, fast_opts()).result;
  const auto b1 = svc.plan_robust(pb, 11.0, fast_opts()).result;
  // pa's formulation is evicted, but its answer is not: the staircase
  // serves the repeat with zero solver work.
  const auto a2 = svc.plan_robust(pa, 9.0, fast_opts()).result;
  ASSERT_EQ(a1.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b1.milp_status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(a2.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(a1.cost, a2.cost, 1e-9);
  EXPECT_EQ(a2.nodes, 0);
  EXPECT_EQ(svc.stats().queries, 2);
  EXPECT_EQ(svc.stats().formulation_misses, 2);

  // Below a1's peak the staircase cannot serve: pa is rebuilt and solved.
  const double tight = pa.memory_floor();
  ASSERT_LT(tight, a1.peak_memory);
  const auto a3 = svc.plan_robust(pa, tight, fast_opts()).result;
  ASSERT_EQ(a3.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(a3.cost, Scheduler(pa).solve_optimal_ilp(tight, fast_opts()).cost,
              1e-6);
  const auto st = svc.stats();
  EXPECT_EQ(st.queries, 3);
  EXPECT_EQ(st.formulation_misses, 3);
  EXPECT_GE(st.evictions, 2);
  EXPECT_EQ(svc.cache_size(), 1u);
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

TEST(PlanService, NonFiniteBudgetThrowsAndLeavesTheCacheClean) {
  // An infinite budget would build a formulation with every memory
  // coefficient zeroed, and the cached entry would then fail every later
  // finite query on the same problem; a NaN budget would "prove" a plan
  // optimal. Both are rejected before any flight, store or cache is
  // touched, and a finite query on the same service still solves.
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
  EXPECT_EQ(svc.cache_size(), 0u);
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
