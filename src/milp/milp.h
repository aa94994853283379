// Mixed-integer linear program solver: branch & bound over the warm-started
// dual simplex engine, with presolve and pseudocost branching.
//
// This is the "off-the-shelf MILP solver" substrate the Checkmate paper
// outsources to Gurobi / COIN-OR CBC; here it is built from scratch. Design
// choices that matter for the rematerialization workload:
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
//     most-fractional ordering;
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
  // count crosses this value. Unlike the wall-clock limit, runs with the
  // same limit explore identical trees on every machine.
  int64_t max_lp_iterations = std::numeric_limits<int64_t>::max();
  // Run the presolve pass before the search (see milp/presolve.h).
  bool presolve = true;
  // Worker threads for the in-solve tree search (0 = one per hardware
  // thread, clamped to epoch_width). The search is an epoch-lockstep
  // parallel branch & bound (milp/branch_and_bound.h): the explored tree,
  // node counts, incumbents and the deterministic work-limit semantics
  // (max_nodes, max_lp_iterations) are bit-identical for EVERY value of
  // num_threads -- only wall-clock time changes. The one exception is
  // wall-clock truncation itself: a run that hits time_limit_sec stops at
  // a machine-dependent point, exactly as in the serial solver. Values
  // above epoch_width buy nothing (an epoch never has more concurrent
  // node solves than its width).
  int num_threads = 0;
  // Nodes deterministically popped from the shared queue per lockstep
  // epoch. Unlike num_threads this IS part of the search semantics:
  // changing the width changes which nodes are explored (a wider epoch
  // expands more frontier nodes against the same epoch-start incumbent).
  // Values < 1 are clamped to 1.
  int epoch_width = 4;
  // Pseudocost-driven branching; disable to fall back to most-fractional
  // (the pre-overhaul behavior, kept for ablation).
  bool pseudocost_branching = true;
  // Root reduced-cost fixing: after the root LP (and again on every
  // incumbent improvement), permanently fix integer variables whose root
  // reduced cost proves no improving solution exists on the other side of
  // their bound. Fixings feed through the presolve clamp helpers onto the
  // search's working LP, so every later node (and every snapshot restore)
  // inherits them. Deterministic: fixings are derived from committed state
  // only and applied at epoch barriers.
  bool root_reduced_cost_fixing = true;
  // ---- Branch & cut. Separation needs a structural view of the problem
  // (milp/cuts.h); callers that have one (the Checkmate formulation layer)
  // pass it here, non-owning, and it must outlive the solve. With a
  // structure present and cut_separation on, the search runs rounds of
  // root separation after the root LP, node-local separation inside the
  // worker dives every few depths, and commits/ages the cut pool at epoch
  // barriers in slot order -- all deterministic for any num_threads. Cut
  // rows are appended to the working LP as the pool selects them, and rows
  // whose cut stays slack at the root point for several consecutive
  // barriers are physically DELETED again (the working LP carries stable
  // row ids, so parent basis snapshots captured before a deletion remap
  // onto the shrunken LP on restore -- lp/simplex.h). The cadences and
  // budgets are constants in milp/branch_and_bound.cpp.
  const FormulationStructure* cut_structure = nullptr;
  bool cut_separation = true;
  // Gomory mixed-integer cuts read from the root simplex tableau,
  // interleaved with the knapsack separators during the root cut rounds
  // (never at tree nodes: tableau cuts derived under branching bounds
  // would only be locally valid). Shares the pool's dedup/aging/selection
  // machinery and the total cut budget.
  bool gomory_cuts = true;
  // ---- Reliability branching. Until a variable has a few pseudocost
  // observations per direction it is considered unreliable: the branching
  // candidate scan strong-branches unreliable candidates with
  // objective_limit-capped probe solves on the worker's own engine (the
  // probe stops the moment the dual bound clears the incumbent prune
  // threshold), feeding the observed degradations into the pseudocosts --
  // after which the existing pseudocost machinery takes over. Probes are
  // slot-local pure work committed through the ordinary pseudocost
  // observation channel, so the bit-identity contract is untouched.
  bool reliability_branching = true;
  // Stop as soon as any incumbent is found (feasibility problems, e.g. the
  // max-batch-size search of Section 6.4).
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

struct MilpResult {
  MilpStatus status = MilpStatus::kError;
  double objective = lp::kInf;     // incumbent objective
  double best_bound = -lp::kInf;   // global lower bound at termination
  double root_relaxation = lp::kInf;
  std::vector<double> x;           // incumbent (empty if none)
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  // Variables permanently fixed by root reduced-cost fixing during the
  // search (0 when the option is off or no fixing fired).
  int64_t root_fixings = 0;
  // Cut rows appended to the working LP (root rounds + barrier commits)
  // and strong-branch probe solves performed. Both are part of the
  // deterministic search semantics: bit-identical for any num_threads.
  int64_t cuts_added = 0;
  int64_t strong_branches = 0;
  // Of cuts_added: rows from the Gomory separator, and cut rows later
  // deleted from the working LP by in-LP aging. Deterministic like
  // cuts_added.
  int64_t gomory_cuts = 0;
  int64_t cuts_removed = 0;
  // LP-engine observability (lp/simplex.h LpEngineStats), summed over
  // every node/probe/root-round solve of the search. Deterministic for any
  // num_threads: each slot's engine trajectory is a pure function of its
  // (snapshot, working LP) inputs.
  int64_t lp_refactorizations = 0;
  int64_t lp_ft_updates = 0;
  int64_t lp_ft_growth_refactors = 0;
  int64_t lp_pricing_resets = 0;
  double seconds = 0.0;
  PresolveStats presolve;          // zeroed when presolve was disabled

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
