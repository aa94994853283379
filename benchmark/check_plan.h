// Independent checks on what the planner returns. Nothing here calls
// planner code: the checks re-derive each claim from the problem data (the
// graph, C and M) and the returned R/S matrices alone, so a planner bug
// cannot hide behind a shared helper. Peak memory is the one property left
// to the plan simulator (core/simulator.h), which the caller runs.
#pragma once

#include <string>
#include <vector>

#include "core/remat_problem.h"
#include "core/solution.h"

namespace planbench {

// Structural validity of a frontier-advancing schedule and its price:
//   - R and S are n x n; nothing is retained into stage 0;
//   - dependency (1b): a node computed in stage t finds every dependency
//     computed earlier in t or retained into t;
//   - liveness (1c): a value retained into t+1 was computed in t or
//     retained into t;
//   - every node is computed at least once;
//   - sum_t sum_i C_i R[t][i] equals `reported_cost` (relative 1e-9).
// Returns "" when every check holds, else the first violation.
std::string check_schedule(const checkmate::RematProblem& problem,
                           const checkmate::RematSolution& solution,
                           double reported_cost);

// One proven-optimal answer, for the staircase check.
struct ProvenPoint {
  std::string series;  // instance + backend: costs are compared within one
  double budget = 0.0;
  double cost = 0.0;
  int query = -1;      // caller's index, echoed back on violation
};

// Budget monotonicity: the optimum can only fall as the budget grows, and a
// proven cost is within `relative_gap` of its optimum, so for budgets
// b1 < b2 of one series cost(b2) * (1 - gap) <= cost(b1). Returns the
// `query` of every point that some smaller budget undercuts.
std::vector<int> check_staircase(std::vector<ProvenPoint> points,
                                 double relative_gap);

// Two proven costs of one (instance, backend, budget) -- this run's and the
// committed reference's -- are both within `relative_gap` of the same
// optimum. Returns "" when they agree.
std::string check_reference(double cost, double reference_cost,
                            double relative_gap);

}  // namespace planbench
