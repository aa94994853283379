// Mixed-integer linear program solver: presolve, then branch & cut over the
// warm-started dual simplex engine.
//
// This is the "off-the-shelf MILP solver" substrate the Checkmate paper
// outsources to Gurobi / COIN-OR CBC; here it is built from scratch, and
// it has one configuration: every mechanism below always runs (only the
// limits, the gap and the caller's inputs are options). Design choices
// that matter for the rematerialization workload:
//   - a presolve pass (bound propagation, fixings, redundant-row removal)
//     shrinks the LP before the first factorization -- the Checkmate
//     formulation carries many structurally-forced zeros (e.g. the S
//     columns killed by the frontier-advancing constraints);
//   - hybrid node selection: dive to a leaf, then restart from the open
//     node with the best bound. Diving finds good incumbents almost
//     immediately because the partitioned relaxation is tight, and the
//     best-bound restarts let the search stop once every open subtree is
//     bounded within the gap;
//   - pseudocost branching (with caller priority tiers preserved): observed
//     per-unit objective degradations steer the search toward decisions
//     that move the dual bound; unobserved variables degrade gracefully to
//     most-fractional ordering. Reliability branching strong-branches the
//     candidates with too few observations, under fixed probe budgets;
//   - root cut rounds (Gomory mixed-integer cuts from the root tableau,
//     plus cover/clique cuts when the caller passes a cut_structure) and
//     root reduced-cost fixing, re-armed by every incumbent improvement;
//   - the tree search is an epoch-lockstep deterministic parallel branch &
//     bound (milp/branch_and_bound.h): worker threads each own a simplex
//     engine, nodes warm-start from their parent's basis snapshot, a dive
//     step is a single bound change on the live engine, and results commit
//     in deterministic order at epoch barriers -- node counts and
//     incumbents are bit-identical for any num_threads;
//   - a caller-provided incumbent heuristic (Checkmate plugs in two-phase
//     LP rounding) is invoked on fractional node solutions on an adaptive
//     cadence that backs off while the heuristic fails to improve;
//   - a warm-start incumbent (Checkmate feeds its baseline schedules)
//     enables bound pruning from the very first node.
// MilpResult inherits lp::SolveStats, the one declaration of the search's
// work counters (lp/simplex.h): the engine fills the lp_* counters and the
// search sums per-slot engine deltas into the result at epoch barriers.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "milp/cuts.h"
#include "milp/presolve.h"

namespace checkmate::milp {

struct MilpOptions {
  double time_limit_sec = 3600.0;
  double relative_gap = 1e-6;
  int64_t max_nodes = 10'000'000;
  // Deterministic work limit: stop once the cumulative simplex iteration
  // count reaches this value. Every LP solve of the search -- the root LP,
  // the root cut rounds, node LPs and strong-branch probes -- is capped at
  // the budget left at its epoch's start less its slot's own work; an
  // epoch whose slots would together cross the limit is replayed one slot
  // at a time, each capped at what the earlier ones left, so the committed
  // total never exceeds the limit. Unlike the wall-clock
  // limit, runs with the same limit explore identical trees on every
  // machine.
  int64_t max_lp_iterations = std::numeric_limits<int64_t>::max();
  // Worker threads for the in-solve tree search (0 = one per hardware
  // thread, clamped to the epoch width of milp/branch_and_bound.cpp). The
  // search is an epoch-lockstep parallel branch & bound
  // (milp/branch_and_bound.h): the explored tree, node counts, incumbents
  // and the deterministic work-limit semantics (max_nodes,
  // max_lp_iterations) are bit-identical for EVERY value of num_threads --
  // only wall-clock time changes. The one exception is wall-clock
  // truncation itself: a run that hits time_limit_sec stops at a
  // machine-dependent point, exactly as in the serial solver. Values above
  // the epoch width buy nothing (an epoch never has more concurrent node
  // solves than its width).
  int num_threads = 0;
  // Branch & cut. Separation needs a structural view of the problem
  // (milp/cuts.h); callers that have one (the Checkmate formulation layer)
  // pass it here, non-owning, and it must outlive the solve. With a
  // structure present the search runs cover/clique separation in the root
  // cut rounds and inside the worker dives every few depths; Gomory
  // mixed-integer cuts from the root tableau need no structure and join
  // the root rounds of every MILP (never tree nodes: a tableau cut derived
  // under branching bounds would only be locally valid). The pool commits
  // cuts at epoch barriers in slot order -- deterministic for any
  // num_threads. Cut rows are appended to the working LP as the pool
  // selects them and stay for the rest of the solve: the LP only grows, so
  // every parent basis snapshot covers a prefix of its rows
  // (lp/simplex.h). The cadences and budgets are constants in
  // milp/branch_and_bound.cpp; kMaxCutsTotal bounds how far the row count
  // can grow.
  const FormulationStructure* cut_structure = nullptr;
  // Stop as soon as any incumbent is found (feasibility problems, e.g. the
  // max-batch-size search of Section 6.4). Such a search never reaches
  // bound pruning, so it runs no cut rounds and no strong-branch probes.
  bool stop_at_first_incumbent = false;
  // Caller-guaranteed lower bound on the optimal objective (-inf = none).
  // Once an incumbent is within relative_gap of this bound the search
  // terminates as optimal-within-gap without proving the bound itself --
  // the Checkmate plan service derives such bounds from budget
  // monotonicity (a smaller budget can only raise the optimum, so the
  // larger budget's proven bound carries over). Soundness is the caller's
  // responsibility: a wrong bound can truncate the search early (it is
  // never used to prune subtrees, only to stop once an incumbent meets it,
  // so a conservative bound merely disables the shortcut).
  double known_lower_bound = -std::numeric_limits<double>::infinity();
  // Optional per-variable branching priority (higher branches first). Empty
  // means uniform.
  std::vector<int> branch_priority;
  // Optional warm-start incumbents (e.g. a feasible baseline schedule).
  // Every candidate is validated before acceptance and the best feasible
  // one becomes the starting incumbent, enabling bound pruning from the
  // very first node.
  std::vector<std::vector<double>> initial_solutions;
  // Absolute deadline / cancellation token for the whole solve (both
  // default inert). The search *acts* on them only at epoch barriers, so a
  // deadline observed at epoch k terminates with the committed incumbent
  // and bound of epochs <= k -- bit-identical for any num_threads at that
  // epoch; node LPs additionally truncate against them mid-solve (sound,
  // machine-dependent truncation point, like time_limit_sec). Both are
  // forwarded into the simplex options automatically.
  robust::Deadline deadline;
  robust::CancelToken cancel;
  lp::SimplexOptions simplex;
};

enum class MilpStatus {
  kOptimal,        // search completed; incumbent is optimal within gap
  kFeasible,       // stopped early (time/nodes/iterations) with an incumbent
  kInfeasible,     // search completed with no feasible point
  kNoSolution,     // stopped early with no incumbent; inconclusive
  kError,
};

const char* to_string(MilpStatus status);

// The counters sum every node/probe/root-round solve of the search.
struct MilpResult : lp::SolveStats {
  MilpStatus status = MilpStatus::kError;
  double objective = lp::kInf;     // incumbent objective
  double best_bound = -lp::kInf;   // global lower bound at termination
  double root_relaxation = lp::kInf;
  std::vector<double> x;           // incumbent (empty if none)
  double seconds = 0.0;
  PresolveStats presolve;

  bool has_solution() const { return !x.empty(); }
  double gap() const {
    if (x.empty()) return lp::kInf;
    const double denom = std::max(1e-9, std::abs(objective));
    return (objective - best_bound) / denom;
  }
};

// Given the node LP solution, returns a complete variable assignment that is
// hoped to be MILP-feasible (the solver verifies feasibility and integrality
// before accepting it), or nullopt.
using IncumbentHeuristic =
    std::function<std::optional<std::vector<double>>(const std::vector<double>&)>;

MilpResult solve_milp(const lp::LinearProgram& lp, const MilpOptions& options = {},
                      IncumbentHeuristic heuristic = nullptr);

}  // namespace checkmate::milp
