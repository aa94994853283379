#include "milp/milp.h"

#include <algorithm>

#include "milp/branch_and_bound.h"

namespace checkmate::milp {

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kNoSolution: return "no_solution";
    case MilpStatus::kError: return "error";
  }
  return "unknown";
}

MilpResult solve_milp(const lp::LinearProgram& lp, const MilpOptions& options,
                      IncumbentHeuristic heuristic) {
  MilpOptions opts = options;
  // A single node LP must never outlive the overall budget, and the
  // solve-wide deadline / cancel token reach every node LP too.
  opts.simplex.time_limit_sec =
      std::min(opts.simplex.time_limit_sec, opts.time_limit_sec);
  opts.simplex.deadline =
      robust::Deadline::sooner(opts.simplex.deadline, opts.deadline);
  if (!opts.simplex.cancel.active()) opts.simplex.cancel = opts.cancel;

  PresolveResult pre = presolve(lp);
  if (pre.stats.proven_infeasible) {
    MilpResult res;
    res.status = MilpStatus::kInfeasible;
    res.best_bound = lp::kInf;
    res.presolve = pre.stats;
    return res;
  }
  // Columns are identity-mapped through presolve, so incumbents, heuristics
  // and priorities transfer without translation.
  MilpResult res = branch_and_bound(pre.lp, opts, heuristic);
  res.presolve = pre.stats;
  return res;
}

}  // namespace checkmate::milp
