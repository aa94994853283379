// MILP presolve: shrinks a LinearProgram before branch & bound touches it.
//
// The pass is generic (activity-based bound propagation), but it is tuned
// for the structure the Checkmate formulation exposes:
//   - cascade fixings: S[1][i] <= R[0][i] + S[0][i] degenerates to
//     S[1][i] <= 0 when the right-hand variables do not exist in the
//     partitioned form, and the fixing propagates down the whole first
//     super-diagonal of S (and onward through (1c));
//   - implied bounds on the memory recurrence rows tighten the continuous
//     U variables toward the reachable range;
//   - rows whose activity range already fits inside [row_lb, row_ub] under
//     the tightened bounds are dropped, which shrinks every dual simplex
//     basis the search will ever factorize.
//
// All reductions are valid for the *mixed-integer* feasible set: bounds on
// integer columns are rounded inward, and no reduction relies on LP-only
// reasoning, so every integer-feasible point of the input remains feasible
// in the output. Columns are never renumbered -- fixings are expressed as
// lb == ub -- so solution vectors, incumbent heuristics and branching
// priorities carry over unchanged.
//
// Cost: O(nnz + m + n) to build the row view, then per round an O(m)
// scan of the dirty flags plus O(nnz) of the rows re-examined. The rows are
// one flat CSR array pair (a stable counting sort of the triplets by row;
// duplicate columns merge into their first appearance, summed in input
// order, and zero sums drop out). A column -> rows index drives the
// worklist: a row is re-examined only when a bound of one of its columns
// moved since its last visit (its own tightenings included). Rounds still
// sweep in row-index order, so the reductions and stats.rounds equal
// those of full sweeps: a clean row's visit would repeat a no-op.
//
// Within a row, activities are summed in the input's entry order (the
// builders' emission order), and the output keeps that order, so the
// presolved LP depends on the input alone, not on the standard library.
#pragma once

#include <span>

#include "lp/lp_problem.h"

namespace checkmate::milp {

struct PresolveStats {
  int rounds = 0;
  int vars_fixed = 0;         // columns with lb == ub after the pass
  int bounds_tightened = 0;   // individual bound improvements applied
  int rows_removed = 0;       // redundant rows dropped from the output
  bool proven_infeasible = false;
};

struct PresolveResult {
  // Reduced problem: identical columns (with tightened bounds), redundant
  // rows removed, duplicate entries merged. Meaningless when
  // stats.proven_infeasible.
  lp::LinearProgram lp;
  PresolveStats stats;
};

PresolveResult presolve(const lp::LinearProgram& lp);

// Bound clamps on an already-presolved program.
//
// Every reduction above is monotone in the variable bounds: if the pass ran
// against bounds B and a caller then *shrinks* some upper bounds (the
// feasible set only shrinks), all removed rows stay redundant and all
// fixings/tightenings stay valid.
//
// Clamps ub[j] = min(ub[j], upper) for each listed variable. Returns false
// when a clamp proves the instance infeasible (some lb[j] ends up above the
// new upper bound by more than feasibility_tol); the program is left in a
// consistent state with lb[j] == ub[j] snapped for numerically-equal pairs.
bool clamp_upper_bounds(lp::LinearProgram& lp, std::span<const int> vars,
                        double upper, double feasibility_tol = 1e-9);

// Mirror of clamp_upper_bounds for the other side: lb[j] = max(lb[j],
// lower). Branch & bound feeds root reduced-cost fixings through these two
// clamps (fix-to-lower clamps the upper bound, fix-to-upper raises the
// lower bound), so the fixings ride that monotone-in-bounds argument.
bool raise_lower_bounds(lp::LinearProgram& lp, std::span<const int> vars,
                        double lower, double feasibility_tol = 1e-9);

}  // namespace checkmate::milp
