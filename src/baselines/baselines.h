// Baseline rematerialization strategies and the paper's generalizations of
// them (Section 6.1, Table 1, Appendix B):
//
//   Checkpoint all      no rematerialization (framework default)
//   Chen sqrt(n)        Chen et al. 2016, every-sqrt(n) checkpoints
//   Chen greedy         Chen et al. 2016, segment-size-b greedy (b swept)
//   Griewank log(n)     Griewank & Walther REVOLVE binomial checkpointing
//   AP sqrt(n)/greedy   Chen heuristics restricted to articulation points
//   Linearized          Chen heuristics on the topological-order chain
//
// Every heuristic is expressed as a checkpoint policy that yields a full
// (R, S) schedule: the policy fixes S (which values survive each stage
// boundary) and the minimal R is back-solved, exactly as the paper
// evaluates its baselines ("we implement baselines as a static policy for
// the decision variable S and then solve for the lowest-cost recomputation
// schedule"). All baselines therefore run through the same plan generator
// and simulator as the Checkmate ILP.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/remat_problem.h"
#include "core/solution.h"

namespace checkmate::baselines {

enum class BaselineKind {
  kCheckpointAll,
  kChenSqrtN,
  kChenGreedy,
  kGriewankLogN,
  kApSqrtN,
  kApGreedy,
  kLinearizedSqrtN,
  kLinearizedGreedy,
};

const char* to_string(BaselineKind kind);

struct BaselineSchedule {
  RematSolution solution;
  std::string label;  // e.g. "chen_greedy b=1.5GB"
};

struct BaselineSweepOptions {
  int greedy_grid_points = 14;       // budget-knob sweep for greedy variants
  int max_revolve_snapshots = 24;    // s sweep for REVOLVE
};

// True if the strategy can run on this problem (e.g. Chen/Griewank require
// a linear forward graph; the AP/Linearized generalizations always apply).
bool baseline_applicable(const RematProblem& p, BaselineKind kind);

// Candidate schedules for the strategy; heuristics with a knob return one
// schedule per knob value. Empty if inapplicable.
std::vector<BaselineSchedule> baseline_schedules(
    const RematProblem& p, BaselineKind kind,
    const BaselineSweepOptions& options = {});

// ---------------------------------------------------------------------
// Building blocks (exposed for tests and custom strategies).

// How non-checkpoint values are evicted by the policy simulator.
enum class EvictionMode {
  // Chen-style: checkpoints are never deallocated; other values die after
  // their last forward use (during the forward phase) or last use (during
  // the backward phase).
  kChenStyle,
  // Framework-style: every value (checkpoint or not) dies right after its
  // last remaining use. Used by Checkpoint-all.
  kLastUse,
};

// Simulates the retention policy induced by a checkpoint set, producing a
// feasible (R, S) schedule. `keep[i] == 1` marks forward values the policy
// pins in memory once computed.
RematSolution simulate_checkpoint_policy(const RematProblem& p,
                                         const std::vector<uint8_t>& keep,
                                         EvictionMode mode);

// All forward nodes in topological order (the Linearized candidate chain).
std::vector<NodeId> forward_chain_candidates(const RematProblem& p);

// Articulation points of the undirected forward subgraph, plus graph
// inputs (Section B.1 candidates).
std::vector<NodeId> articulation_candidates(const RematProblem& p);

// Chen sqrt(n): every ceil(sqrt(L))-th candidate.
std::vector<NodeId> chen_sqrt_n_select(const std::vector<NodeId>& candidates);

// Chen greedy: walk forward nodes accumulating activation memory; place a
// checkpoint at the next candidate once the running segment exceeds b.
std::vector<NodeId> chen_greedy_select(const RematProblem& p,
                                       const std::vector<NodeId>& candidates,
                                       double segment_budget_bytes);

// True if the forward subgraph is a simple path and backward nodes (if
// any) mirror it (the shape Chen/Griewank assume).
bool is_linear_forward(const RematProblem& p);

// Griewank & Walther REVOLVE with `snapshots` snapshot slots, expressed as
// an (R, S) schedule. Requires is_linear_forward and a backward pass.
RematSolution revolve_schedule(const RematProblem& p, int snapshots);

// Convenience: the framework-default schedule (no rematerialization).
RematSolution checkpoint_all_schedule(const RematProblem& p);

// Our extension (not in the paper's baseline set): a Belady-style
// budget-aware retention policy. After every stage, values are retained by
// ascending next-use stage until `retention_cap_bytes` is exhausted;
// everything else is dropped and rematerialized on demand. best_seed runs
// it over a grid of caps to cover tight budgets, where the checkpoint
// families and threshold rounding of the LP fail to land under budget.
RematSolution budget_aware_schedule(const RematProblem& p,
                                    double retention_cap_bytes);

// ---------------------------------------------------------------------
// The seed portfolio. The ILP's feasible set contains every baseline
// schedule (Section 6.2), so one portfolio serves as branch & bound seeds,
// as the fallback ladder's heuristic rung and as the max-batch probe's
// short-circuit; each caller supplies its own `accept` test.
//
// Walks checkpoint-all, Chen sqrt(n), linearized sqrt(n), linearized
// greedy and AP greedy, then budget_aware_schedule at ten retention caps
// {0.95 ... 0.03} x (budget_bytes - fixed_overhead), one family at a time.
// Returns the cheapest candidate by compute_cost whose cost is within
// `cost_cap` (1e-9 relative tolerance) and that `accept` admits; the first
// one offered wins ties. `accept` is called only on candidates strictly
// cheaper than the best admitted so far, so the last candidate it admitted
// is the one returned. nullopt when none is admitted.
std::optional<RematSolution> best_seed(
    const RematProblem& p, double budget_bytes,
    const std::optional<double>& cost_cap,
    const std::function<bool(const RematSolution&)>& accept);

}  // namespace checkmate::baselines
