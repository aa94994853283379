// Retention-interval backend (IlpFormulationKind::kInterval) equivalence
// suite: the interval encoding restricts the schedule class (stage-granular
// residency, no backward rematerialization), so its soundness contract is
// empirical and enforced here -- on every small instance it must prove the
// SAME optimal objective as the dense Problem 9 backend (and as exhaustive
// search), return simulator-validated schedules, and keep the epoch-
// lockstep bit-identity guarantee across worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/baselines.h"
#include "core/ilp_builder.h"
#include "core/scheduler.h"
#include "lp/simplex.h"
#include "milp/milp.h"
#include "milp/presolve.h"
#include "model/autodiff.h"
#include "model/zoo.h"

namespace checkmate {
namespace {

// Exhaustive oracle, same construction as test_integration.cpp: enumerate
// every lower-triangular checkpoint matrix S, back-solve the minimal R,
// keep the cheapest schedule fitting the budget under the dense (per-step)
// accounting.
double brute_force_cost(const RematProblem& p, double budget) {
  const int n = p.size();
  std::vector<std::pair<int, int>> slots;
  for (int t = 1; t < n; ++t)
    for (int i = 0; i < t; ++i) slots.emplace_back(t, i);
  double best = std::numeric_limits<double>::infinity();
  const int64_t combos = 1LL << slots.size();
  for (int64_t mask = 0; mask < combos; ++mask) {
    BoolMatrix s = make_bool_matrix(n, n);
    for (size_t b = 0; b < slots.size(); ++b)
      if (mask & (1LL << b)) s[slots[b].first][slots[b].second] = 1;
    RematSolution sol;
    sol.S = s;
    sol.R = solve_r_given_s(p.graph, s);
    if (!sol.check_feasible(p).empty()) continue;
    if (peak_memory_usage(p, sol) > budget + 1e-9) continue;
    best = std::min(best, sol.compute_cost(p));
  }
  return best;
}

RematProblem diamond_problem() {
  RematProblem p;
  p.name = "diamond";
  p.graph = Graph(5);
  p.graph.add_edge(0, 1);
  p.graph.add_edge(0, 2);
  p.graph.add_edge(1, 3);
  p.graph.add_edge(2, 3);
  p.graph.add_edge(3, 4);
  p.graph.add_edge(1, 4);
  p.cost = {1.0, 3.0, 2.0, 1.0, 1.0};
  p.memory = {2.0, 1.0, 1.0, 1.0, 1.0};
  p.is_backward = {0, 0, 0, 0, 1};
  p.grad_of = {-1, -1, -1, -1, 3};
  p.node_names = {"a", "b", "c", "d", "gd"};
  p.validate();
  return p;
}

IlpSolveOptions interval_options() {
  IlpSolveOptions o;
  o.formulation = IlpFormulationKind::kInterval;
  o.num_threads = 1;
  return o;
}

// Solve one instance under both backends and assert the full equivalence
// contract: proven optimality, identical objectives, simulator-validated
// schedules under the query budget.
void expect_backends_agree(const RematProblem& p, double budget) {
  Scheduler sched(p);
  IlpSolveOptions dense;
  dense.num_threads = 1;
  auto rd = sched.solve_optimal_ilp(budget, dense);
  auto ri = sched.solve_optimal_ilp(budget, interval_options());
  ASSERT_EQ(rd.milp_status, milp::MilpStatus::kOptimal)
      << p.name << " b=" << budget;
  ASSERT_EQ(ri.milp_status, milp::MilpStatus::kOptimal)
      << p.name << " b=" << budget;
  EXPECT_NEAR(rd.cost, ri.cost, 1e-6 * std::max(1.0, rd.cost))
      << p.name << " b=" << budget;
  for (const ScheduleResult* r : {&rd, &ri}) {
    EXPECT_TRUE(r->feasible) << r->message;
    EXPECT_TRUE(r->solution.check_feasible(p).empty());
    EXPECT_LE(r->sim.peak_memory, budget + 1e-6);
  }
}

TEST(IntervalFormulation, MatchesBruteForceOracle) {
  struct Case {
    RematProblem problem;
    std::vector<double> budgets;
  };
  std::vector<Case> corpus;
  corpus.push_back({RematProblem::unit_training_chain(2), {4.0, 5.0, 6.0}});
  // Two budgets only for the 7-node chain: the oracle enumerates 2^21
  // schedules per budget.
  corpus.push_back({RematProblem::unit_training_chain(3), {4.0, 6.0}});
  corpus.push_back({diamond_problem(), {4.0, 5.0, 6.0}});
  for (const Case& c : corpus) {
    Scheduler sched(c.problem);
    for (double budget : c.budgets) {
      const double oracle = brute_force_cost(c.problem, budget);
      ASSERT_TRUE(std::isfinite(oracle)) << c.problem.name << " b=" << budget;
      auto res = sched.solve_optimal_ilp(budget, interval_options());
      ASSERT_EQ(res.milp_status, milp::MilpStatus::kOptimal)
          << c.problem.name << " b=" << budget;
      EXPECT_NEAR(res.cost, oracle, 1e-6)
          << c.problem.name << " b=" << budget;
      EXPECT_TRUE(res.solution.check_feasible(c.problem).empty());
      EXPECT_LE(res.sim.peak_memory, budget + 1e-9);
    }
  }
}

TEST(IntervalFormulation, MatchesDenseOnUnitChains) {
  expect_backends_agree(RematProblem::unit_training_chain(6), 5.0);
  expect_backends_agree(RematProblem::unit_training_chain(8), 7.0);
}

TEST(IntervalFormulation, MatchesDenseOnSmallZoo) {
  for (auto make : {+[] {
                      return RematProblem::from_dnn(
                          model::make_training_graph(
                              model::zoo::mobilenet_v1(2, 64)),
                          model::CostMetric::kProfiledTimeUs);
                    },
                    +[] {
                      return RematProblem::from_dnn(
                          model::make_training_graph(model::zoo::vgg16(2)),
                          model::CostMetric::kProfiledTimeUs);
                    }}) {
    auto p = make();
    Scheduler sched(p);
    auto all = sched.evaluate_schedule(baselines::checkpoint_all_schedule(p),
                                       0.0);
    const double floor = p.memory_floor();
    expect_backends_agree(p, floor + 0.5 * (all.peak_memory - floor));
  }
}

TEST(IntervalFormulation, BitIdenticalAcrossWorkerCounts) {
  // The interval backend rides the same epoch-lockstep tree search as the
  // dense one, so node counts, objectives and bounds must be bit-identical
  // for any worker count.
  auto p = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::mobilenet_v1(2, 64)),
      model::CostMetric::kProfiledTimeUs);
  Scheduler sched(p);
  auto all = sched.evaluate_schedule(baselines::checkpoint_all_schedule(p),
                                     0.0);
  const double floor = p.memory_floor();
  const double budget = floor + 0.5 * (all.peak_memory - floor);

  std::optional<ScheduleResult> reference;
  for (int threads : {1, 2, 4}) {
    IlpSolveOptions o = interval_options();
    o.num_threads = threads;
    auto res = sched.solve_optimal_ilp(budget, o);
    ASSERT_EQ(res.milp_status, milp::MilpStatus::kOptimal)
        << "threads=" << threads;
    if (!reference) {
      reference = res;
      continue;
    }
    EXPECT_EQ(res.nodes, reference->nodes) << "threads=" << threads;
    EXPECT_EQ(res.cost, reference->cost) << "threads=" << threads;
    EXPECT_EQ(res.best_bound, reference->best_bound)
        << "threads=" << threads;
  }
}

TEST(IntervalFormulation, RequiresPartitionedForm) {
  auto p = RematProblem::unit_training_chain(3);
  IlpBuildOptions opts;
  opts.budget_bytes = 6.0;
  opts.partitioned = false;
  opts.formulation = IlpFormulationKind::kInterval;
  EXPECT_THROW(IlpFormulation(p, opts), std::invalid_argument);
}

TEST(IntervalFormulation, CutStructureKnapsacksAreValid) {
  // Every knapsack the interval backend hands the separators must target a
  // real U column and integer items, and capacities must follow a clamp of
  // the U upper bounds (the separators read ub(capacity_var) live).
  auto p = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::mobilenet_v1(2, 64)),
      model::CostMetric::kProfiledTimeUs);
  IlpBuildOptions opts;
  opts.budget_bytes = 0.6 * p.total_memory();
  opts.formulation = IlpFormulationKind::kInterval;
  IlpFormulation f(p, opts);
  const milp::FormulationStructure structure = f.cut_structure();
  ASSERT_FALSE(structure.empty());
  for (const auto& row : structure.knapsacks) {
    ASSERT_GE(row.capacity_var, 0);
    // The budget in the LP's memory units (budget percent).
    EXPECT_DOUBLE_EQ(f.lp().ub[row.capacity_var], 100.0);
    for (const auto& item : row.items) {
      ASSERT_GE(item.var, 0);
      EXPECT_GT(item.weight, 0.0);
      EXPECT_TRUE(f.lp().is_integer[item.var]);
    }
  }
  std::vector<int> u_cols;
  for (int t = 0; t < p.size(); ++t)
    if (f.u_var(t, 0) >= 0) u_cols.push_back(f.u_var(t, 0));
  lp::LinearProgram clamped = f.lp();
  ASSERT_TRUE(milp::clamp_upper_bounds(clamped, u_cols, 80.0));
  for (const auto& row : structure.knapsacks)
    EXPECT_DOUBLE_EQ(clamped.ub[row.capacity_var], 80.0);
}

}  // namespace
}  // namespace checkmate
