// Deep-instance (>= 200 stage) scale contract for the retention-interval
// backend -- the reason the backend exists. Nightly tier (labeled `slow` in
// CMakeLists.txt): the dense half of the chain contract and the 20k-pivot
// transformer search take over a minute together.
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/scheduler.h"
#include "milp/milp.h"
#include "model/autodiff.h"
#include "model/zoo.h"

namespace checkmate {
namespace {

TEST(IntervalBig, ProvesDeepChainInAFractionOfDensePivots) {
  // 480-stage chain at a tight budget. The interval backend proves
  // optimality at the root in 2n pivots. The dense Problem 9 encoding
  // carries O(n^2) per-step U columns plus the FREE machinery, and its root
  // relaxation alone takes more than four times as many pivots. Pivot
  // counts are machine-independent, unlike the wall time this contract was
  // once stated in.
  auto p = RematProblem::unit_chain(480);
  Scheduler sched(p);

  IlpSolveOptions interval;
  interval.formulation = IlpFormulationKind::kInterval;
  interval.relative_gap = 5e-4;
  interval.time_limit_sec = 60.0;
  interval.num_threads = 1;
  auto ri = sched.solve_optimal_ilp(6.0, interval);
  ASSERT_EQ(ri.milp_status, milp::MilpStatus::kOptimal);
  EXPECT_TRUE(ri.feasible) << ri.message;
  EXPECT_TRUE(ri.solution.check_feasible(p).empty());
  EXPECT_LE(ri.sim.peak_memory, 6.0 + 1e-9);
  EXPECT_EQ(ri.nodes, 1);
  EXPECT_EQ(ri.lp_iterations, 2 * 480);

  IlpSolveOptions dense;
  dense.relative_gap = 5e-4;
  dense.time_limit_sec = 60.0;
  dense.num_threads = 1;
  auto rd = sched.solve_optimal_ilp(6.0, dense);
  EXPECT_GT(rd.lp_iterations, 4 * ri.lp_iterations)
      << "dense backend caught up with the interval backend on n=480 -- "
         "revisit the interval backend's reason to exist";
}

TEST(IntervalBig, DeepTransformerBoundsAreSane) {
  // transformer_stack(20) is a 209-stage heterogeneous-cost training graph.
  // Neither backend proves it at a mid budget in bench time (documented
  // frontier); the interval backend must still return a feasible incumbent
  // with a valid lower bound under a deterministic work limit.
  auto p = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::transformer_stack(20)),
      model::CostMetric::kProfiledTimeUs);
  Scheduler sched(p);
  const double floor = p.memory_floor();
  auto all = sched.evaluate_schedule(baselines::checkpoint_all_schedule(p),
                                     0.0);
  const double budget = floor + 0.8 * (all.peak_memory - floor);

  IlpSolveOptions o;
  o.formulation = IlpFormulationKind::kInterval;
  o.time_limit_sec = 120.0;
  o.max_lp_iterations = 20000;  // deterministic truncation
  o.num_threads = 1;
  auto r = sched.solve_optimal_ilp(budget, o);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.solution.check_feasible(p).empty());
  EXPECT_LE(r.sim.peak_memory, budget + 1e-6);
  EXPECT_GT(r.best_bound, 0.0);
  EXPECT_LE(r.best_bound, r.cost + 1e-6);
}

}  // namespace
}  // namespace checkmate
