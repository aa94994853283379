// Plan service: multi-query planning over the budget staircase.
//
// Checkmate's real workloads are not one-shot solves: a Figure-5
// overhead-vs-budget curve issues ~10 near-identical MILP queries per
// model, and the Section 6.4 max-batch search issues a feasibility probe
// per bisection step. The PlanService answers such query streams at full
// MILP optimality. Every solve builds its formulation fresh and runs the
// same code as Scheduler::solve_optimal_ilp (presolve included), so a
// query's work depends only on the problem, the budget, the options and
// the staircase -- never on what the service was asked before. The one
// cross-query reuse is the budget staircase:
//
//   - every proven optimum that carries a schedule enters a PlanStore
//     (src/store/plan_store.h) -- disk-backed with store_dir set,
//     memory-only otherwise. A schedule's simulated peak is
//     budget-independent, so a plan proven optimal at budget B with peak
//     P is provably optimal at every budget in [P, B] (shrinking the
//     budget can only raise the optimum), and so is a plan at the compute
//     floor (every operation exactly once) at any budget it fits. Such
//     queries are served without touching the solver -- on the flat
//     regions of the overhead-vs-budget staircase most points of a
//     descending sweep are free;
//   - where a solve is unavoidable, the best dual bound proven at a larger
//     budget carries over (same monotonicity) as the solve's
//     known_lower_bound_cost, and branch & bound terminates as soon as any
//     incumbent meets it. The bound only stops the same search earlier.
//
// Admission control, ahead of the solve:
//
//   - persistence: with store_dir set, the staircase is written
//     crash-safely and served across process restarts with zero solver
//     work -- a record loaded from disk is byte-verified against the
//     query's canonical problem content and simulator re-validated before
//     it can be returned, so a corrupt record degrades to a miss, never to
//     a wrong plan;
//   - single-flight deduplication: a thundering herd of identical
//     concurrent queries (same problem content, shape, budget, gap)
//     coalesces onto one solve; followers block on the leader's outcome
//     (respecting their own deadlines) instead of duplicating the MILP;
//   - bounded in-flight admission: max_inflight_solves > 0 caps the
//     number of concurrent MILP ladders; overflow queries shed to the
//     heuristic-fallback rung with why_degraded naming the overload
//     instead of queueing without bound. Shedding never invents an
//     infeasibility -- if no heuristic fits, the query takes a slot.
//
// Concurrency and determinism: the service is thread-safe, and queries run
// concurrently on the caller's threads -- queries on the same model too,
// since each solve owns its formulation. Every query keeps its own
// MilpOptions -- including the deterministic max_lp_iterations work limit
// -- and its own simplex engine, and the in-solve tree search is
// epoch-lockstep, so a given query sequence gets the same answers whatever
// the thread budget.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "store/plan_store.h"

namespace checkmate::service {

struct PlanServiceOptions {
  // Worker threads for each query's in-solve parallel tree search
  // (milp/branch_and_bound.h) when the query leaves
  // IlpSolveOptions::num_threads at 0. 0 = one per hardware thread. The
  // tree search is epoch-lockstep (identical nodes/incumbents for any
  // worker count), so this only moves wall-clock time.
  int num_threads = 0;
  // Directory of the disk-backed plan store; empty keeps the staircase in
  // memory only. Proven optima are written crash-safely and served --
  // content-verified and simulator-validated -- across restarts.
  std::string store_dir;
  // Cap on concurrent MILP ladders; overflow sheds to the heuristic
  // fallback (why_degraded names the overload). 0 = unbounded.
  size_t max_inflight_solves = 0;
};

struct ServiceStats {
  // MILP solves run. A staircase answer (store hit or shortcut) or a
  // shared single-flight outcome is not a query.
  int64_t queries = 0;
  // One formulation build per solve, and one presolve per solve with
  // IlpSolveOptions::presolve set.
  int64_t formulation_misses = 0;
  int64_t presolve_runs = 0;
  // Always 0: every solve builds and presolves fresh, and the service no
  // longer hands incumbents to branch & bound. Kept because
  // benchmark/plan_bench.cpp reports them.
  int64_t formulation_hits = 0;
  int64_t budget_rebinds = 0;
  int64_t presolve_reuses = 0;
  int64_t warm_starts_injected = 0;
  int64_t warm_start_shortcuts = 0;  // staircase answers, no store_dir
  // Admission-layer counters; the store ones move only with a working
  // store_dir.
  int64_t store_hits = 0;            // staircase answers from the disk store
  int64_t store_misses = 0;          // store consulted, no serveable record
  int64_t store_puts = 0;            // proven optima durably persisted
  int64_t store_put_failures = 0;    // absorbed store write failures
  int64_t single_flight_shared = 0;  // followers served a leader's outcome
  int64_t shed_overload = 0;         // queries shed to the heuristic rung
};

// Where a robust query's plan came from, in strictly degrading order. The
// ladder can degrade but never fail: every rung returns a plan the
// simulator validated against the budget, except kInfeasible, which is a
// *proof* (structural memory floor, or a completed dense search) that no
// plan exists.
enum class PlanProvenance {
  kProvenOptimal,      // MILP completed: optimal within the query's gap
  kIncumbent,          // search truncated: best incumbent, true gap reported
  kHeuristicFallback,  // cheapest validated baseline (checkpoint-all /
                       // Chen sqrt(n) family / budget-aware retention)
  kInfeasible,         // proven: no schedule fits the budget
};

const char* to_string(PlanProvenance provenance);

// Result of a never-fail query: the plan plus the observability the
// serving path needs -- how good the plan is proven to be and why it
// degraded, if it did.
struct PlanOutcome {
  PlanProvenance provenance = PlanProvenance::kInfeasible;
  ScheduleResult result;  // simulator-validated unless kInfeasible
  // Sound lower bound on the optimal cost (problem cost units): the MILP
  // bound when one survived, else the compute floor (every operation once).
  double lower_bound = 0.0;
  // (result.cost - lower_bound) / result.cost, clamped at >= 0.
  double gap = 0.0;
  // Human-readable reason the query degraded below kProvenOptimal; empty
  // for proven-optimal answers.
  std::string why_degraded;
  // The structural memory floor: certificate when kInfeasible, context
  // otherwise.
  double memory_floor_bytes = 0.0;
};

class PlanService {
 public:
  explicit PlanService(PlanServiceOptions options = {});
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  // One query through the admission layer, down the fallback ladder of
  // PlanProvenance. A query whose MILP completes returns
  // the proven optimum -- the same objective as Scheduler::solve_optimal_ilp
  // with the same options; a truncated search (deadline, work limits,
  // cancellation) returns its best incumbent with the true gap; a search
  // that produced nothing (or died on a fault) falls back to the cheapest
  // simulator-validated baseline schedule within options.cost_cap; only a
  // *proof* that no plan exists yields kInfeasible. Set options.deadline /
  // options.cancel to bound the query. A NaN or infinite budget throws
  // std::invalid_argument before the service's state is touched.
  PlanOutcome plan_robust(const RematProblem& problem, double budget_bytes,
                          const IlpSolveOptions& options = {});
  // Budget sweep over one model (the Figure 5 workload): plan_robust per
  // point in descending budget order, so each point lands on or under the
  // previous points' staircase steps. The remaining deadline is
  // re-apportioned across the points so one slow point cannot starve the
  // rest; results come back in the caller's order. Any non-finite budget
  // throws, as in plan_robust, before the first point.
  std::vector<PlanOutcome> sweep_robust(const RematProblem& problem,
                                        const std::vector<double>& budgets,
                                        const IlpSolveOptions& options = {});

  ServiceStats stats() const;
  // The disk-backed plan store, or nullptr unless one is open on store_dir.
  store::PlanStore* plan_store() const {
    return store_->directory().empty() ? nullptr : store_.get();
  }

 private:
  // One in-flight solve; followers with an identical query
  // block on `cv` and share `outcome`. The key that routes to a Flight is
  // a 64-bit hash; blob/budget/gap/shape are re-checked on join so a
  // collision solves solo instead of sharing a stranger's plan.
  struct Flight;

  // The fallback ladder behind plan_robust, after the floor check and the
  // admission layer (store lookup, single-flight, overload shedding).
  // `known_lower_bound` (-inf when absent) is the staircase's proven lower
  // bound on this query's optimum, handed to the solve's termination test.
  PlanOutcome plan_robust_ladder(const RematProblem& problem,
                                 double budget_bytes,
                                 const IlpSolveOptions& options,
                                 double known_lower_bound);
  // Store lookup -> admission slot (or shed) -> ladder -> store put.
  PlanOutcome serve_or_solve(const RematProblem& problem, double budget_bytes,
                             const IlpSolveOptions& options);

  PlanServiceOptions opts_;

  // The budget staircase: on store_dir when it opens, else memory-only.
  std::unique_ptr<store::PlanStore> store_;
  std::mutex admission_mu_;  // guards inflight_ and active_solves_
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> inflight_;
  size_t active_solves_ = 0;  // tracked only when max_inflight_solves > 0

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace checkmate::service
