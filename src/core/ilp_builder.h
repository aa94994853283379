// Builds the Checkmate mixed-integer linear program (Problem 9).
//
// Variables (all per stage t):
//   R[t][i]      operation i recomputed in stage t            (binary)
//   S[t][i]      value i retained from stage t-1 into t       (binary)
//   U[t][k]      bytes in use just after computing v_k        (continuous)
//   FREE[t][i,k] value i freed after computing its user v_k   (binary)
//
// Constraints: dependency correctness (1b), checkpoint liveness (1c), the
// memory accounting recurrence (2)-(3) with the linearized FREE definition
// (7a)-(7c), the budget U <= M_budget (as a variable upper bound), and --
// in the default partitioned form -- the frontier-advancing constraints
// (8a)-(8c) of Section 4.6. Diagonal FREE[t][k][k] variables are eliminated
// per Section 4.8. The unpartitioned variant (Appendix A) replaces (8a-8c)
// with (1d)-(1e).
//
// Memory coefficients are rescaled so the budget is O(100) and costs so the
// largest cost is 1; raw byte counts (up to 2^31) would otherwise wreck the
// simplex tolerances.
#pragma once

#include <optional>

#include "core/remat_problem.h"
#include "core/solution.h"
#include "lp/lp_problem.h"
#include "milp/cuts.h"

namespace checkmate {

// Which MILP encoding of the rematerialization problem to build.
//
//   kDense     Problem 9 verbatim: per-step memory accounting U[t][k] with
//              the FREE deallocation linearization. Exact eager-free
//              semantics, O(n^2) binaries plus O(n E) FREE variables.
//   kInterval  Moccasin-style retention intervals: a value computed or
//              carried in stage t is charged to stage t's single residency
//              row for the whole stage, so each (re)computation of value i
//              opens one retention interval [t_compute, t_drop) over
//              stages and the per-stage memory row is assembled from
//              interval membership (S[t][i] = carried in, R[t][i] =
//              (re)computed here; constraint (1c) is the interval-chaining
//              row). Drops per-step accounting entirely -- no U recurrence,
//              no FREE variables -- shrinking the LP by an order of
//              magnitude on deep graphs. The schedule class is a
//              restriction of the dense one: stage-granular residency
//              instead of eager intra-stage frees, and backward (gradient)
//              nodes are computed exactly once at their own stage, never
//              rematerialized. Every solution is dense-feasible and
//              simulator-valid; the equivalence suite
//              (tests/test_interval_formulation.cpp) cross-checks proven
//              objectives against the dense backend on every small
//              instance. Partitioned form only.
enum class IlpFormulationKind { kDense, kInterval };

struct IlpBuildOptions {
  double budget_bytes = 0.0;
  bool partitioned = true;          // frontier-advancing stages (Section 4.6)
  bool eliminate_diag_free = true;  // Section 4.8
  // Backend selection; see IlpFormulationKind.
  IlpFormulationKind formulation = IlpFormulationKind::kDense;
  // Optional cap on total recomputation cost (Eq. 10, in original cost
  // units): sum C_i R[t][i] <= cost_cap.
  std::optional<double> cost_cap;
};

class IlpFormulation {
 public:
  IlpFormulation(const RematProblem& problem, const IlpBuildOptions& options);

  const lp::LinearProgram& lp() const { return lp_; }
  const IlpBuildOptions& options() const { return opts_; }
  const RematProblem& problem() const { return *problem_; }

  // Branching priorities: S > R > FREE (checkpoint decisions dominate).
  std::vector<int> branch_priorities() const;

  // Structural view for the branch & cut separators (milp/cuts.h): the
  // memory-budget rows as 0/1 knapsacks over the S/R binaries with
  // coefficients from the (scaled) tensor-size vector. Two families:
  //   - stage-entry rows U[t][0] = overhead + sum M_i S[t][i] + M_0 R[t][0]
  //     give a plain knapsack per stage;
  //   - (partitioned form) end-of-stage rows exploit the precedence
  //     structure: while computing v_t at stage t every dependency of t is
  //     forcibly live (R[t][t] = 1 plus the hazard rows pin them), and any
  //     value checkpointed into stage t+1 is still resident at U[t][t] --
  //     so sum_{i not in deps(t)} M_i S[t+1][i] fits under
  //     ub(U[t][t]) - overhead - M_t - sum_{deps(t)} M_i, a strictly
  //     tighter capacity than the plain row.
  // Capacities are expressed through the U columns' upper bounds, so the
  // view survives presolve and root-fixing tightenings unchanged; column
  // indices survive presolve (no renumbering). The view is cheap to
  // build and does not reference this formulation after construction.
  milp::FormulationStructure cut_structure() const;

  // Converts an LP-space objective value back to problem cost units.
  double unscale_cost(double scaled) const { return scaled * cost_scale_; }
  double scale_cost(double unscaled) const { return unscaled / cost_scale_; }

  // Variable lookups (-1 where a variable does not exist, e.g. above the
  // diagonal in the partitioned form).
  int r_var(int t, int i) const { return r_[t][i]; }
  int s_var(int t, int i) const { return s_[t][i]; }
  int u_var(int t, int k) const { return u_[t][k]; }

  // Extracts R and S from an LP/MILP solution vector (values >= 0.5 are 1).
  RematSolution extract_solution(const std::vector<double>& x) const;
  // Extracts the *fractional* S matrix (for two-phase rounding).
  std::vector<std::vector<double>> extract_fractional_s(
      const std::vector<double>& x) const;

  // Builds a complete, consistent variable assignment from a feasible
  // schedule: R/S as given, FREE per Eq. 5, U per the recurrence. Returns
  // nullopt if the schedule busts the budget (the assignment would violate
  // the U upper bounds). Used to inject incumbents into branch & bound.
  std::optional<std::vector<double>> assemble_assignment(
      const RematSolution& sol) const;

 private:
  void build();           // dense backend (Problem 9)
  void build_interval();  // retention-interval backend (ilp_builder_interval.cpp)
  milp::FormulationStructure cut_structure_interval() const;
  std::optional<std::vector<double>> assemble_assignment_interval(
      const RematSolution& sol) const;

  const RematProblem* problem_;
  IlpBuildOptions opts_;
  lp::LinearProgram lp_;
  double cost_scale_ = 1.0;
  double mem_scale_ = 1.0;
  // Scaled copies kept for cut_structure(): per-node memory in LP units
  // and the fixed overhead in the same units.
  std::vector<double> mem_scaled_;
  double overhead_scaled_ = 0.0;

  std::vector<std::vector<int>> r_, s_, u_;
  // free_[t] lists (i, k, var) for every FREE variable of stage t.
  struct FreeVar {
    NodeId i, k;
    int var;
  };
  std::vector<std::vector<FreeVar>> free_;
};

}  // namespace checkmate
