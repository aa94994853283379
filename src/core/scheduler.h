// Top-level Checkmate API (Figure 2): given a rematerialization problem and
// a memory budget, produce an optimal (MILP) or near-optimal (two-phase LP
// rounding) execution plan, validated end-to-end by the plan simulator.
// A ScheduleResult is an lp::SolveStats: the MILP's work counters ride on
// it unchanged, and the bench JSON walks lp::kSolveCounters to print them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/ilp_builder.h"
#include "core/plan.h"
#include "core/remat_problem.h"
#include "core/rounding.h"
#include "core/simulator.h"
#include "milp/milp.h"

namespace checkmate {

struct IlpSolveOptions {
  double time_limit_sec = 60.0;
  double relative_gap = 1e-4;
  // Inject two-phase rounding incumbents and the baselines::best_seed seed.
  bool use_rounding_heuristic = true;
  bool partitioned = true;             // frontier-advancing stages
  bool eliminate_diag_free = true;
  // MILP backend: the dense Problem 9 encoding or the sparse
  // retention-interval one (see IlpFormulationKind in core/ilp_builder.h).
  IlpFormulationKind formulation = IlpFormulationKind::kDense;
  bool stop_at_first_incumbent = false;
  // Solver machinery knobs (threaded straight into milp::MilpOptions; the
  // defaults are the overhauled fast path, the ablation benches flip them).
  bool presolve = true;
  bool pseudocost_branching = true;
  bool root_reduced_cost_fixing = true;
  // Curtis-Reid equilibration at LP-engine load (lp::SimplexOptions::
  // scaling) and Gomory mixed-integer cuts from the root tableau.
  bool lp_scaling = true;
  bool gomory_cuts = true;
  // Branch & cut: Checkmate-structural cover/clique cut separation over
  // the memory rows (the formulation hands the solver a knapsack view via
  // IlpFormulation::cut_structure) and reliability branching (strong-
  // branch probes until pseudocosts are trustworthy). Both deterministic
  // for any num_threads; the ablation benches flip them off individually.
  bool cut_separation = true;
  bool reliability_branching = true;
  // Deterministic work limits: stop after this many cumulative simplex
  // iterations / explored nodes (0 = unlimited). Unlike the wall-clock
  // limit these make truncated runs machine-independent.
  int64_t max_lp_iterations = 0;
  int64_t max_nodes = 0;
  // Worker threads for the in-solve parallel tree search (0 = one per
  // hardware thread). The search is epoch-lockstep deterministic: node
  // counts, incumbents and objectives are bit-identical for every value
  // (unless the wall-clock time limit truncates the run -- deterministic
  // work limits, max_lp_iterations/max_nodes, keep the invariance even
  // when truncated), so this is purely a wall-clock knob. The PlanService
  // overrides 0 with PlanServiceOptions::num_threads.
  int num_threads = 0;
  // Optional cap on total recomputation cost (Eq. 10, original cost
  // units), threaded into the formulation. The max-batch feasibility
  // probes combine it with stop_at_first_incumbent.
  std::optional<double> cost_cap;
  // Absolute deadline / cancellation token for the query (both default
  // inert), threaded through branch & bound down to every node LP. See
  // robust/deadline.h for the determinism contract; PlanService sweeps
  // apportion a query deadline across their points.
  robust::Deadline deadline;
  robust::CancelToken cancel;
};

struct ApproxOptions {
  // Budget allowance epsilon of Section 5.3: the LP is solved against
  // (1 - epsilon) * budget so the rounded schedule lands under budget.
  double epsilon = 0.1;
  bool randomized = false;
  int samples = 1;  // randomized rounding draws (best feasible kept)
  uint64_t seed = 1;
};

// The counters are the MILP's lp::SolveStats, all zero when no MILP ran.
struct ScheduleResult : lp::SolveStats {
  bool feasible = false;
  std::string message;

  RematSolution solution;
  ExecutionPlan plan;
  SimulationResult sim;

  double cost = 0.0;         // simulated compute cost
  double overhead = 0.0;     // cost / ideal (compute-everything-once) cost
  double peak_memory = 0.0;  // simulated peak, bytes

  milp::MilpStatus milp_status = milp::MilpStatus::kError;
  double best_bound = 0.0;       // problem cost units
  double root_relaxation = 0.0;  // problem cost units
  double seconds = 0.0;

  // Typed infeasibility: true only when NO schedule can fit the budget,
  // with the structural memory floor (the peak no policy can go below:
  // the largest single-stage working set) as the certificate. A mere
  // failure to find a plan (truncated search, restricted backend) leaves
  // this false -- absence of proof is not proof of absence.
  bool proven_infeasible = false;
  double memory_floor_bytes = 0.0;  // certificate when proven_infeasible
};

// Validates and prices a schedule against a budget (0 disables the budget
// check) without constructing a Scheduler; shared by Scheduler and the plan
// service.
ScheduleResult evaluate_schedule_against(const RematProblem& problem,
                                         const RematSolution& sol,
                                         double budget_bytes);

// Section 4: optimal rematerialization via the MILP over a formulation
// built fresh for this query -- baseline seeding, the two-phase-rounding
// incumbent heuristic, presolve and branch & bound inside milp::solve_milp,
// end-to-end validation. `known_lower_bound_cost` (problem cost units; -inf
// = none) is a caller-guaranteed lower bound on the optimum that only lets
// the search stop earlier: the plan service passes its budget staircase's
// dual bound (for budgets b' <= b, opt(b') >= best_bound(b)).
// Scheduler::solve_optimal_ilp and the plan service both call it. A NaN or
// infinite budget throws std::invalid_argument.
ScheduleResult solve_optimal_ilp(const RematProblem& problem,
                                 double budget_bytes,
                                 const IlpSolveOptions& options,
                                 double known_lower_bound_cost = -lp::kInf);

class Scheduler {
 public:
  explicit Scheduler(RematProblem problem);

  const RematProblem& problem() const { return problem_; }

  // Cost of evaluating every operation exactly once (the Checkpoint-all
  // ideal; denominator of the overhead metric in Figure 5).
  double ideal_cost() const { return problem_.total_cost_all_nodes(); }

  // Section 4: the free solve_optimal_ilp on this problem.
  ScheduleResult solve_optimal_ilp(double budget_bytes,
                                   const IlpSolveOptions& options = {}) const;

  // Section 5: LP relaxation + two-phase rounding.
  ScheduleResult solve_lp_rounding(double budget_bytes,
                                   const ApproxOptions& options = {}) const;

  // Validates and prices an externally produced schedule (baselines) against
  // a budget (0 disables the budget check).
  ScheduleResult evaluate_schedule(const RematSolution& sol,
                                   double budget_bytes) const;

 private:
  RematProblem problem_;
};

}  // namespace checkmate
