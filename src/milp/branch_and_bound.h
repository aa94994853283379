// Deterministic parallel branch & bound: epoch-lockstep tree search.
//
// The search advances in epochs. Every epoch the shared node queue
// deterministically pops up to kEpochWidth (4) nodes (best-bound order with
// a creation-sequence tie-break), the epoch's slots are solved concurrently
// by worker threads -- each worker owns a DualSimplex engine and rebuilds a
// slot's state from the parent's BasisSnapshot plus the node's bound-change
// path -- and the results (children, incumbents, pseudocost observations,
// dropped-subtree bounds) are committed in slot order at the epoch barrier.
//
// Determinism contract: a slot's work is a pure function of the popped node
// and the epoch-start committed state (incumbent, pseudocosts, node and
// iteration totals). Workers never read each other's in-flight results, an
// engine's post-restore trajectory is independent of its prior history
// (lp/simplex.h), and commits happen in slot order on the coordinator --
// so the explored tree, node counts, incumbents, and the deterministic
// work-limit semantics (max_nodes / max_lp_iterations) are bit-identical
// for ANY worker count. num_threads only divides an epoch's slots among
// engines; the fixed epoch width is what defines the tree.
//
// Inside a slot the worker dives depth-first from the popped node (capped
// at kMaxDiveNodes per slot so epochs stay balanced), which preserves the
// serial search's incumbent-finding behavior and keeps the dual-simplex
// warm start hot: a dive step is a single bound change on the live engine,
// and only the dive's entry point pays a snapshot restore + refactorize.
#pragma once

#include "lp/lp_problem.h"
#include "milp/milp.h"

namespace checkmate::milp {

// Resolves MilpOptions::num_threads (0 = auto) against the hardware and the
// epoch width: always in [1, 4].
int resolve_tree_threads(const MilpOptions& options);

// Runs the epoch-lockstep search on `lp` directly, without the presolve
// pass that solve_milp (milp.cpp) runs first. Tests use it as the
// unpresolved reference.
MilpResult branch_and_bound(const lp::LinearProgram& lp,
                            const MilpOptions& options,
                            const IncumbentHeuristic& heuristic);

}  // namespace checkmate::milp
