// Robustness layer: deadlines and cooperative cancellation (robust/
// deadline.h) threaded through the LP engine, branch & bound and the plan
// service, plus the never-fail fallback ladder (PlanOutcome provenance).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "baselines/baselines.h"
#include "core/ilp_builder.h"
#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "lp/simplex.h"
#include "milp/milp.h"
#include "model/graph_builder.h"
#include "model/zoo.h"
#include "robust/deadline.h"
#include "service/plan_service.h"

namespace checkmate {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

TEST(Deadline, NeverIsInertAndInfinite) {
  robust::Deadline d;
  EXPECT_FALSE(d.finite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_sec(), 1e18);
  EXPECT_FALSE(robust::Deadline::never().finite());
}

TEST(Deadline, AfterZeroExpiresImmediately) {
  const auto d = robust::Deadline::after(0.0);
  EXPECT_TRUE(d.finite());
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_sec(), 0.0);
  // Negative budgets clamp to "already expired", they do not wrap.
  EXPECT_TRUE(robust::Deadline::after(-5.0).expired());
}

TEST(Deadline, AfterHourIsPending) {
  const auto d = robust::Deadline::after(3600.0);
  EXPECT_TRUE(d.finite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_sec(), 3500.0);
  EXPECT_LT(d.remaining_sec(), 3601.0);
}

TEST(Deadline, SoonerPicksTheEarlier) {
  const auto inert = robust::Deadline::never();
  const auto close = robust::Deadline::after(1.0);
  const auto far = robust::Deadline::after(3600.0);
  EXPECT_TRUE(robust::Deadline::sooner(inert, close).finite());
  EXPECT_TRUE(robust::Deadline::sooner(close, inert).finite());
  EXPECT_FALSE(robust::Deadline::sooner(inert, inert).finite());
  EXPECT_LT(robust::Deadline::sooner(close, far).remaining_sec(), 2.0);
  EXPECT_LT(robust::Deadline::sooner(far, close).remaining_sec(), 2.0);
}

TEST(CancelToken, DefaultIsInert) {
  robust::CancelToken t;
  EXPECT_FALSE(t.active());
  EXPECT_FALSE(t.cancelled());
  t.cancel();  // no-op on an inert token, must not crash
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, CancellationIsSharedAcrossCopies) {
  auto t = robust::CancelToken::make();
  EXPECT_TRUE(t.active());
  EXPECT_FALSE(t.cancelled());
  robust::CancelToken copy = t;
  t.cancel();
  EXPECT_TRUE(copy.cancelled());
}

// An LP solve under an already-expired deadline must return immediately
// with the truncation status and a *sound* dual bound (never above the
// true optimum).
TEST(SimplexDeadline, ExpiredDeadlineTruncatesSoundly) {
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 6.0;
  const IlpFormulation form(p, build);

  const lp::LpResult full = lp::solve_lp(form.lp());
  ASSERT_EQ(full.status, lp::LpStatus::kOptimal);

  lp::SimplexOptions opts;
  opts.deadline = robust::Deadline::after(0.0);
  const lp::LpResult cut = lp::solve_lp(form.lp(), opts);
  EXPECT_EQ(cut.status, lp::LpStatus::kIterationLimit);
  EXPECT_EQ(cut.iterations, 0);
  EXPECT_LE(cut.dual_bound, full.objective + 1e-6);
}

TEST(SimplexDeadline, CancelTokenTruncatesSoundly) {
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions build;
  build.budget_bytes = 6.0;
  const IlpFormulation form(p, build);
  const lp::LpResult full = lp::solve_lp(form.lp());
  ASSERT_EQ(full.status, lp::LpStatus::kOptimal);

  lp::SimplexOptions opts;
  opts.cancel = robust::CancelToken::make();
  opts.cancel.cancel();
  const lp::LpResult cut = lp::solve_lp(form.lp(), opts);
  EXPECT_EQ(cut.status, lp::LpStatus::kIterationLimit);
  EXPECT_LE(cut.dual_bound, full.objective + 1e-6);
}

// A pre-cancelled MILP stops at its first barrier; whatever bound it
// reports must still bracket the true optimum from below.
TEST(MilpCancel, PreCancelledSearchStopsWithSoundBound) {
  auto p = RematProblem::unit_training_chain(8);
  IlpBuildOptions build;
  build.budget_bytes = 7.0;
  const IlpFormulation form(p, build);

  milp::MilpOptions ref;
  ref.time_limit_sec = 30.0;
  const milp::MilpResult exact = milp::solve_milp(form.lp(), ref);
  ASSERT_EQ(exact.status, milp::MilpStatus::kOptimal);

  milp::MilpOptions opts;
  opts.time_limit_sec = 30.0;
  opts.cancel = robust::CancelToken::make();
  opts.cancel.cancel();
  const auto t0 = Clock::now();
  const milp::MilpResult cut = milp::solve_milp(form.lp(), opts);
  EXPECT_LT(seconds_since(t0), 10.0);
  EXPECT_NE(cut.status, milp::MilpStatus::kOptimal);
  EXPECT_LE(cut.best_bound, exact.objective + 1e-6);
  if (cut.has_solution()) {
    EXPECT_GE(cut.objective, exact.objective - 1e-6);
  }
}

TEST(PlanRobust, GenerousBudgetIsProvenOptimal) {
  auto p = RematProblem::unit_training_chain(6);
  service::PlanService svc;
  const auto out = svc.plan_robust(p, p.total_memory());
  EXPECT_EQ(out.provenance, service::PlanProvenance::kProvenOptimal);
  ASSERT_TRUE(out.result.feasible);
  EXPECT_TRUE(out.why_degraded.empty());
  EXPECT_NEAR(out.gap, 0.0, 1e-4);
  EXPECT_GE(out.lower_bound, p.total_cost_all_nodes() - 1e-9);
  EXPECT_LE(out.result.peak_memory, p.total_memory() + 1e-6);
}

TEST(PlanRobust, BudgetBelowFloorIsProvenInfeasibleWithCertificate) {
  auto p = RematProblem::unit_training_chain(6);
  service::PlanService svc;
  const auto out = svc.plan_robust(p, 0.5 * p.memory_floor());
  EXPECT_EQ(out.provenance, service::PlanProvenance::kInfeasible);
  EXPECT_FALSE(out.result.feasible);
  EXPECT_TRUE(out.result.proven_infeasible);
  EXPECT_DOUBLE_EQ(out.memory_floor_bytes, p.memory_floor());
  EXPECT_DOUBLE_EQ(out.result.memory_floor_bytes, p.memory_floor());
}

TEST(PlanRobust, ExpiredDeadlineFallsBackToValidatedHeuristic) {
  auto p = RematProblem::unit_training_chain(8);
  service::PlanService svc;
  IlpSolveOptions opts;
  opts.deadline = robust::Deadline::after(0.0);
  // Checkpoint-all fits a generous budget, so the ladder must land on the
  // heuristic rung rather than report failure.
  const auto out = svc.plan_robust(p, p.total_memory(), opts);
  EXPECT_EQ(out.provenance, service::PlanProvenance::kHeuristicFallback);
  ASSERT_TRUE(out.result.feasible);
  EXPECT_FALSE(out.why_degraded.empty());
  EXPECT_TRUE(out.result.sim.valid);  // simulator-validated, not just priced
  EXPECT_LE(out.result.peak_memory, p.total_memory() + 1e-6);
  EXPECT_GE(out.result.cost, out.lower_bound - 1e-9);
}

TEST(PlanRobust, CancelledQueryFallsBackToValidatedHeuristic) {
  auto p = RematProblem::unit_training_chain(8);
  service::PlanService svc;
  IlpSolveOptions opts;
  opts.cancel = robust::CancelToken::make();
  opts.cancel.cancel();
  const auto out = svc.plan_robust(p, p.total_memory(), opts);
  EXPECT_EQ(out.provenance, service::PlanProvenance::kHeuristicFallback);
  ASSERT_TRUE(out.result.feasible);
  EXPECT_NE(out.why_degraded.find("cancelled"), std::string::npos);
}

// Truncating the search by the deterministic node limit lands on either
// the incumbent rung (seeded incumbent survives) or proven optimality
// (root already integral); never on failure.
TEST(PlanRobust, NodeLimitedSearchReturnsIncumbentOrOptimum) {
  auto p = RematProblem::unit_training_chain(8);
  service::PlanService svc;
  IlpSolveOptions opts;
  opts.max_nodes = 1;
  const double budget = 7.0;
  ASSERT_GE(budget, p.memory_floor());
  const auto out = svc.plan_robust(p, budget, opts);
  ASSERT_TRUE(out.result.feasible);
  EXPECT_TRUE(out.provenance == service::PlanProvenance::kProvenOptimal ||
              out.provenance == service::PlanProvenance::kIncumbent ||
              out.provenance == service::PlanProvenance::kHeuristicFallback);
  if (out.provenance != service::PlanProvenance::kProvenOptimal) {
    EXPECT_FALSE(out.why_degraded.empty());
  }
  EXPECT_LE(out.result.peak_memory, budget + 1e-6);
  EXPECT_GE(out.gap, 0.0);
}

TEST(SweepRobust, EveryPointReturnsTypedOutcome) {
  auto p = RematProblem::unit_training_chain(6);
  service::PlanService svc;
  const double floor = p.memory_floor();
  const double top = p.total_memory();
  const std::vector<double> budgets = {top, 0.5 * floor, floor + 1.0};
  const auto out = svc.sweep_robust(p, budgets);
  ASSERT_EQ(out.size(), budgets.size());
  EXPECT_EQ(out[0].provenance, service::PlanProvenance::kProvenOptimal);
  EXPECT_EQ(out[1].provenance, service::PlanProvenance::kInfeasible);
  EXPECT_DOUBLE_EQ(out[1].memory_floor_bytes, floor);
  EXPECT_NE(out[2].provenance, service::PlanProvenance::kInfeasible);
  EXPECT_TRUE(out[2].result.feasible);
  EXPECT_LE(out[2].result.peak_memory, budgets[2] + 1e-6);
}

// Satellite regression: a tight wall-clock deadline on the bench's
// vgg16_mid_budget instance must return within 2x the requested budget.
// The per-node simplex iteration clamp (branch_and_bound.cpp) exists
// precisely so one node LP cannot overshoot the remaining budget.
TEST(PlanRobust, Vgg16MidBudgetDeadlineOvershootBounded) {
  // Problem construction stays outside the timed region.
  auto p = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::vgg16(2)),
      model::CostMetric::kProfiledTimeUs);
  Scheduler sched(p);
  const auto all = sched.evaluate_schedule(
      baselines::checkpoint_all_schedule(p), 0.0);
  ASSERT_TRUE(all.feasible);
  const double floor = p.memory_floor();
  const double budget = floor + 0.5 * (all.peak_memory - floor);

  service::PlanService svc;
  IlpSolveOptions opts;
  const double requested = 1.0;
  opts.deadline = robust::Deadline::after(requested);

  const auto t0 = Clock::now();
  const auto out = svc.plan_robust(p, budget, opts);
  const double elapsed = seconds_since(t0);
  EXPECT_LT(elapsed, 2.0 * requested)
      << "deadline overshoot: " << elapsed << "s for a " << requested
      << "s budget";
  // Never-fail: whatever rung it landed on, the plan is validated.
  ASSERT_TRUE(out.result.feasible);
  EXPECT_TRUE(out.result.sim.valid);
  EXPECT_LE(out.result.peak_memory, budget + 1e-6);
}

// Deadline-free runs keep the bit-identity contract: the robust entry
// point must not perturb the deterministic search of a cold solve.
TEST(PlanRobust, DeadlineFreeMatchesColdSolve) {
  auto p = RematProblem::unit_training_chain(8);
  service::PlanService svc;
  const double budget = 7.0;
  const auto out = svc.plan_robust(p, budget);
  const auto ref = Scheduler(p).solve_optimal_ilp(budget);
  ASSERT_TRUE(ref.feasible);
  EXPECT_EQ(out.provenance, service::PlanProvenance::kProvenOptimal);
  EXPECT_DOUBLE_EQ(out.result.cost, ref.cost);
  EXPECT_EQ(out.result.nodes, ref.nodes);
  EXPECT_EQ(out.result.lp_iterations, ref.lp_iterations);
}

// The cost cap (Eq. 10) binds every rung, not just the MILP: a capped
// query whose search is truncated before it finds a plan must not fall
// back to a heuristic schedule above the cap. At the compute-floor cap and
// a budget below checkpoint-all's peak, every baseline busts the cap. On
// the interval backend the one-pivot search ends without a proof; on the
// dense backend presolve proves the capped instance infeasible, and the
// service returns the same typed proof as the Scheduler.
TEST(PlanRobust, HeuristicFallbackRespectsTheCostCap) {
  auto p = RematProblem::unit_training_chain(8);
  Scheduler sched(p);
  const auto all = sched.evaluate_schedule(
      baselines::checkpoint_all_schedule(p), 0.0);
  ASSERT_TRUE(all.feasible);
  const double budget = 0.5 * (p.memory_floor() + all.peak_memory);
  ASSERT_LT(budget, all.peak_memory);

  IlpSolveOptions opts;
  opts.cost_cap = p.total_cost_all_nodes();
  opts.max_lp_iterations = 1;
  opts.formulation = IlpFormulationKind::kInterval;
  service::PlanService svc;
  const auto out = svc.plan_robust(p, budget, opts);
  if (out.result.feasible) {
    EXPECT_LE(out.result.cost, *opts.cost_cap + 1e-9)
        << service::to_string(out.provenance);
  }
  // Below the cap nothing fits, and the search proved nothing.
  EXPECT_EQ(out.provenance, service::PlanProvenance::kInfeasible);
  EXPECT_FALSE(out.result.proven_infeasible);
  EXPECT_EQ(out.result.message,
            "no plan found: search failed and no heuristic schedule fits");

  opts.formulation = IlpFormulationKind::kDense;
  const auto proof = svc.plan_robust(p, budget, opts);
  const auto ref = sched.solve_optimal_ilp(budget, opts);
  ASSERT_TRUE(ref.proven_infeasible) << ref.message;
  EXPECT_EQ(proof.provenance, service::PlanProvenance::kInfeasible);
  EXPECT_TRUE(proof.result.proven_infeasible);
  EXPECT_EQ(proof.result.message, ref.message);
}

}  // namespace
}  // namespace checkmate
