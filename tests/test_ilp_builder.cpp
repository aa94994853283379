#include "core/ilp_builder.h"

#include <gtest/gtest.h>

#include <limits>

#include "lp/simplex.h"
#include "milp/milp.h"
#include "milp/presolve.h"

namespace checkmate {
namespace {

milp::MilpOptions bounded_milp(double time_limit_sec = 30.0) {
  milp::MilpOptions opts;
  opts.time_limit_sec = time_limit_sec;
  return opts;
}

TEST(IlpBuilder, RejectsNonPositiveBudget) {
  auto p = RematProblem::unit_chain(3);
  IlpBuildOptions opts;
  opts.budget_bytes = 0.0;
  EXPECT_THROW(IlpFormulation(p, opts), std::invalid_argument);
}

TEST(IlpBuilder, RejectsNonFiniteBudget) {
  // The memory scale is budget / 100: an infinite budget would zero every
  // memory coefficient and a NaN would poison them all.
  auto p = RematProblem::unit_chain(3);
  IlpBuildOptions opts;
  for (double b : {std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    opts.budget_bytes = b;
    EXPECT_THROW(IlpFormulation(p, opts), std::invalid_argument) << b;
  }
  opts.budget_bytes = 4.0;
  IlpFormulation f(p, opts);
  EXPECT_THROW(f.set_budget(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(f.set_budget(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(f.options().budget_bytes, 4.0);
}

TEST(IlpBuilder, PartitionedVariableTriangularity) {
  auto p = RematProblem::unit_chain(4);
  IlpBuildOptions opts;
  opts.budget_bytes = 4.0;
  IlpFormulation f(p, opts);
  for (int t = 0; t < 4; ++t)
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(f.r_var(t, i) >= 0, i <= t) << t << "," << i;
      EXPECT_EQ(f.s_var(t, i) >= 0, i < t) << t << "," << i;
      EXPECT_EQ(f.u_var(t, i) >= 0, i <= t) << t << "," << i;
    }
  // Diagonal R fixed to one.
  for (int t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(f.lp().lb[f.r_var(t, t)], 1.0);
    EXPECT_DOUBLE_EQ(f.lp().ub[f.r_var(t, t)], 1.0);
  }
}

TEST(IlpBuilder, UnpartitionedHasFullMatrices) {
  auto p = RematProblem::unit_chain(3);
  IlpBuildOptions opts;
  opts.budget_bytes = 3.0;
  opts.partitioned = false;
  IlpFormulation f(p, opts);
  for (int t = 0; t < 3; ++t)
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(f.r_var(t, i), 0);
      EXPECT_EQ(f.s_var(t, i) >= 0, t >= 1);
    }
  // More variables than the partitioned form.
  IlpBuildOptions popts;
  popts.budget_bytes = 3.0;
  IlpFormulation pf(p, popts);
  EXPECT_GT(f.lp().num_vars(), pf.lp().num_vars());
}

TEST(IlpBuilder, AmpleBudgetSolvesToCheckpointAllCost) {
  auto p = RematProblem::unit_chain(5);
  IlpBuildOptions opts;
  opts.budget_bytes = 100.0;  // ample
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  ASSERT_EQ(res.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(f.unscale_cost(res.objective), 5.0, 1e-5);
}

TEST(IlpBuilder, PureForwardChainNeedsOnlyTwoSlots) {
  // A pure forward chain never rematerializes: keeping just the previous
  // value fits budget 2 at the checkpoint-all cost.
  auto p = RematProblem::unit_chain(5);
  IlpBuildOptions opts;
  opts.budget_bytes = 2.0;
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  ASSERT_EQ(res.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(f.unscale_cost(res.objective), 5.0, 1e-5);
}

TEST(IlpBuilder, TightBudgetForcesRecomputation) {
  // Training chains must retain activations for the backward pass, so a
  // tight budget genuinely forces rematerialization.
  // An interior gradient reads three values (v_k, v_{k-1}, upstream grad),
  // so with its own output 4 units is the structural minimum budget.
  auto p = RematProblem::unit_training_chain(3);  // n = 7, compute-once 7
  IlpBuildOptions opts;
  opts.budget_bytes = 4.0;
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  ASSERT_EQ(res.status, milp::MilpStatus::kOptimal);
  const double cost = f.unscale_cost(res.objective);
  EXPECT_GT(cost, 7.5);  // unit costs are integral: optimum >= 8
  auto sol = f.extract_solution(res.x);
  EXPECT_EQ(sol.check_feasible(p), "");
  EXPECT_LE(peak_memory_usage(p, sol), 4.0 + 1e-6);
}

TEST(IlpBuilder, BudgetBelowStructuralMinimumInfeasible) {
  auto p = RematProblem::unit_training_chain(3);
  IlpBuildOptions opts;
  opts.budget_bytes = 3.0;  // interior gradient alone needs 4 units
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  EXPECT_EQ(res.status, milp::MilpStatus::kInfeasible);
}

TEST(IlpBuilder, InfeasibleBudgetDetected) {
  auto p = RematProblem::unit_chain(4);
  IlpBuildOptions opts;
  opts.budget_bytes = 1.5;  // cannot even hold node + parent
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  EXPECT_EQ(res.status, milp::MilpStatus::kInfeasible);
}

TEST(IlpBuilder, OverheadCountsAgainstBudget) {
  // Checkpoint-all on a 3-layer training chain peaks at 5 units. With 2
  // units of constant overhead and budget 6.5, only 4.5 units remain for
  // activations, which forces rematerialization; without the overhead the
  // same budget would be ample.
  auto p = RematProblem::unit_training_chain(3);
  p.fixed_overhead = 2.0;
  IlpBuildOptions opts;
  opts.budget_bytes = 6.5;
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  ASSERT_EQ(res.status, milp::MilpStatus::kOptimal);
  auto sol = f.extract_solution(res.x);
  EXPECT_LE(peak_memory_usage(p, sol), 6.5 + 1e-6);
  EXPECT_GT(f.unscale_cost(res.objective), 7.5);  // forced to recompute

  p.fixed_overhead = 0.0;
  IlpFormulation f2(p, opts);
  auto res2 = milp::solve_milp(f2.lp(), bounded_milp());
  ASSERT_EQ(res2.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(f2.unscale_cost(res2.objective), 7.0, 1e-5);
}

TEST(IlpBuilder, BranchPrioritiesOrderSOverROverFree) {
  auto p = RematProblem::unit_chain(3);
  IlpBuildOptions opts;
  opts.budget_bytes = 3.0;
  IlpFormulation f(p, opts);
  auto prio = f.branch_priorities();
  EXPECT_EQ(prio[f.s_var(2, 0)], 2);
  EXPECT_EQ(prio[f.r_var(1, 0)], 1);
}

TEST(IlpBuilder, AssembleAssignmentRoundTrips) {
  auto p = RematProblem::unit_chain(4);
  IlpBuildOptions opts;
  opts.budget_bytes = 4.0;
  IlpFormulation f(p, opts);
  // Checkpoint-all schedule fits budget 4 exactly.
  RematSolution sol;
  sol.R = make_bool_matrix(4, 4);
  sol.S = make_bool_matrix(4, 4);
  for (int t = 0; t < 4; ++t) {
    sol.R[t][t] = 1;
    for (int i = 0; i < t; ++i) sol.S[t][i] = 1;
  }
  auto x = f.assemble_assignment(sol);
  ASSERT_TRUE(x.has_value());
  EXPECT_LE(f.lp().max_violation(*x), 1e-6);
  auto back = f.extract_solution(*x);
  EXPECT_EQ(back.R, sol.R);
  EXPECT_EQ(back.S, sol.S);
}

TEST(IlpBuilder, AssembleAssignmentRejectsOverBudget) {
  auto p = RematProblem::unit_chain(4);
  IlpBuildOptions opts;
  opts.budget_bytes = 3.0;  // checkpoint-all needs 4
  IlpFormulation f(p, opts);
  RematSolution sol;
  sol.R = make_bool_matrix(4, 4);
  sol.S = make_bool_matrix(4, 4);
  for (int t = 0; t < 4; ++t) {
    sol.R[t][t] = 1;
    for (int i = 0; i < t; ++i) sol.S[t][i] = 1;
  }
  EXPECT_FALSE(f.assemble_assignment(sol).has_value());
}

TEST(IlpBuilder, CostCapMakesTightProblemInfeasible) {
  auto p = RematProblem::unit_training_chain(3);  // compute-once cost 7
  IlpBuildOptions opts;
  opts.budget_bytes = 4.0;  // optimum cost exceeds 7.5 (see above test)
  opts.cost_cap = 7.5;
  IlpFormulation f(p, opts);
  auto res = milp::solve_milp(f.lp(), bounded_milp());
  EXPECT_EQ(res.status, milp::MilpStatus::kInfeasible);
}

TEST(IlpBuilder, LpRelaxationLowerBoundsIlp) {
  auto p = RematProblem::unit_chain(5);
  IlpBuildOptions opts;
  opts.budget_bytes = 3.0;
  IlpFormulation f(p, opts);
  auto rel = lp::solve_lp(f.lp());
  ASSERT_EQ(rel.status, lp::LpStatus::kOptimal);
  auto ilp = milp::solve_milp(f.lp(), bounded_milp());
  ASSERT_EQ(ilp.status, milp::MilpStatus::kOptimal);
  EXPECT_LE(rel.objective, ilp.objective + 1e-7);
}

TEST(IlpBuilder, CutStructureCapacitiesFollowSetBudget) {
  // The knapsack view binds capacities to the U columns' upper bounds, so
  // a set_budget() rebind re-targets every knapsack without rebuilding the
  // structure.
  auto p = RematProblem::unit_training_chain(5);
  IlpBuildOptions opts;
  opts.budget_bytes = 8.0;
  IlpFormulation f(p, opts);
  const milp::FormulationStructure structure = f.cut_structure();
  ASSERT_FALSE(structure.empty());
  for (const auto& row : structure.knapsacks) {
    ASSERT_GE(row.capacity_var, 0);
    EXPECT_DOUBLE_EQ(f.lp().ub[row.capacity_var], f.scale_budget(8.0));
    for (const auto& item : row.items) {
      EXPECT_GE(item.var, 0);
      EXPECT_GT(item.weight, 0.0);
      EXPECT_TRUE(f.lp().is_integer[item.var]);
    }
  }
  f.set_budget(6.0);
  for (const auto& row : structure.knapsacks)
    EXPECT_DOUBLE_EQ(f.lp().ub[row.capacity_var], f.scale_budget(6.0));
}

TEST(IlpBuilder, SetBudgetRebindWithAppendedCutRows) {
  // A working LP that carries appended cut rows (the branch & cut search
  // grows its copy; the plan service's cached presolve artifact can grow
  // the same way) must stay a pure U-upper-bound rebind under
  // set_budget(): the cut rows keep their coefficients, u_var_indices
  // stays valid, and a solve on the rebound LP matches a fresh build at
  // the new budget with the same cuts appended.
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions opts;
  opts.budget_bytes = 9.0;
  IlpFormulation f(p, opts);
  const milp::FormulationStructure structure = f.cut_structure();

  // Separate real cuts against the LP relaxation at the large budget and
  // append them to the formulation's working LP.
  auto rel = lp::solve_lp(f.lp());
  ASSERT_EQ(rel.status, lp::LpStatus::kOptimal);
  f.set_budget(5.0);  // tighten FIRST so the relaxation point separates
  milp::SeparationOptions sep;
  std::vector<milp::Cut> cuts;
  milp::separate_knapsack_cuts(structure, f.lp(), rel.x, sep, &cuts);
  ASSERT_FALSE(cuts.empty());  // the scenario must exercise real rows
  const int rows_before = f.lp().num_rows();
  for (const milp::Cut& c : cuts) f.mutable_lp().add_le(c.terms, c.rhs);
  ASSERT_EQ(f.lp().num_rows(),
            rows_before + static_cast<int>(cuts.size()));

  // Rebind again across the appended rows: only U upper bounds may move.
  f.set_budget(7.0);
  for (int var : f.u_var_indices())
    EXPECT_DOUBLE_EQ(f.lp().ub[var], f.scale_budget(7.0));

  milp::MilpOptions mopts = bounded_milp();
  mopts.branch_priority = f.branch_priorities();
  mopts.cut_structure = &structure;
  auto with_rows = milp::solve_milp(f.lp(), mopts);

  IlpBuildOptions fresh_opts;
  fresh_opts.budget_bytes = 7.0;
  IlpFormulation fresh(p, fresh_opts);
  for (const milp::Cut& c : cuts) fresh.mutable_lp().add_le(c.terms, c.rhs);
  milp::MilpOptions fresh_mopts = bounded_milp();
  fresh_mopts.branch_priority = fresh.branch_priorities();
  const milp::FormulationStructure fresh_structure = fresh.cut_structure();
  fresh_mopts.cut_structure = &fresh_structure;
  auto cold = milp::solve_milp(fresh.lp(), fresh_mopts);

  ASSERT_EQ(with_rows.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(cold.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(with_rows.objective, cold.objective, 1e-6);
}

TEST(IlpBuilder, AppendedCutRowsSurvivePresolveClampReuse) {
  // The plan service reuses presolve artifacts across budgets by clamping
  // the U upper bounds. Cut rows appended to such an artifact must not
  // desync the clamp path: solving the clamped artifact with cuts equals
  // a cold solve at the clamped budget.
  auto p = RematProblem::unit_training_chain(6);
  IlpBuildOptions opts;
  opts.budget_bytes = 9.0;
  IlpFormulation f(p, opts);
  const milp::FormulationStructure structure = f.cut_structure();

  milp::PresolveResult pre = milp::presolve(f.lp());
  ASSERT_FALSE(pre.stats.proven_infeasible);
  auto rel = lp::solve_lp(pre.lp);
  ASSERT_EQ(rel.status, lp::LpStatus::kOptimal);

  // Clamp to a smaller budget, then separate + append cuts against the
  // clamped artifact (capacities read the clamped bounds).
  ASSERT_TRUE(milp::clamp_upper_bounds(pre.lp, f.u_var_indices(),
                                       f.scale_budget(5.0)));
  milp::SeparationOptions sep;
  std::vector<milp::Cut> cuts;
  milp::separate_knapsack_cuts(structure, pre.lp, rel.x, sep, &cuts);
  ASSERT_FALSE(cuts.empty());  // the scenario must exercise real rows
  for (const milp::Cut& c : cuts) pre.lp.add_le(c.terms, c.rhs);

  milp::MilpOptions mopts = bounded_milp();
  mopts.presolve = false;  // artifact already presolved
  mopts.branch_priority = f.branch_priorities();
  mopts.cut_structure = &structure;
  auto clamped = milp::solve_milp(pre.lp, mopts);

  IlpBuildOptions cold_opts;
  cold_opts.budget_bytes = 5.0;
  IlpFormulation cold_form(p, cold_opts);
  milp::MilpOptions cold_mopts = bounded_milp();
  cold_mopts.branch_priority = cold_form.branch_priorities();
  const milp::FormulationStructure cold_structure =
      cold_form.cut_structure();
  cold_mopts.cut_structure = &cold_structure;
  auto cold = milp::solve_milp(cold_form.lp(), cold_mopts);

  ASSERT_EQ(clamped.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(cold.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(clamped.objective, cold.objective, 1e-6);
}

}  // namespace
}  // namespace checkmate
