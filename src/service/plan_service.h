// Plan service: cached, incremental multi-query planning.
//
// Checkmate's real workloads are not one-shot solves: a Figure-5
// overhead-vs-budget curve issues ~10 near-identical MILP queries per
// model, and the Section 6.4 max-batch search issues a feasibility probe
// per bisection step. The PlanService answers such query streams at full
// MILP optimality while amortizing everything the queries share:
//
//   - formulation reuse: one built IlpFormulation per (problem
//     fingerprint, formulation shape); a new budget is an in-place
//     set_budget() rebind of the U-variable upper bounds, not a rebuild;
//   - presolve reuse: the presolve pass runs once at the largest budget of
//     interest; smaller budgets clamp the U upper bounds of the cached
//     reduced LP (sound because every presolve reduction is monotone in
//     the bounds -- see milp/presolve.h);
//   - warm-start chaining: a sweep is solved in descending budget order.
//     A schedule's simulated peak is budget-independent, so whenever the
//     previous (larger-budget) optimum still fits the next budget it is
//     *provably* optimal there too (shrinking the budget can only raise
//     the optimum) and is returned without touching the solver -- on the
//     flat regions of the overhead-vs-budget staircase most points are
//     free. Where a solve is unavoidable, the previous point's proven
//     lower bound carries over (same monotonicity) and branch & bound
//     terminates as soon as any incumbent meets it, instead of re-proving
//     the bound through the dual plateau; fitting chained optima are also
//     injected as starting incumbents;
//   - a chained optimum whose cost equals the compute floor (every
//     operation exactly once) short-circuits larger budgets the same way.
//
// Admission control, ahead of the cache:
//
//   - disk-backed plan store: with store_dir set, proven optima are
//     persisted crash-safely (src/store/plan_store.h) and served across
//     process restarts with zero solver work -- a store hit is
//     byte-verified against the query's canonical problem content and
//     simulator re-validated before it can be returned, so a corrupt
//     record degrades to a miss, never to a wrong plan. Store-carried
//     dual bounds also shortcut re-solves at nearby budgets;
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
// Concurrency and determinism: the service is thread-safe. Queries on
// different cache entries run concurrently on the caller's threads;
// queries sharing an entry are serialized by its mutex and chained. Every
// query keeps its own MilpOptions -- including the deterministic
// max_lp_iterations work limit -- and its own simplex engine, and the
// in-solve tree search is epoch-lockstep, so a given query sequence gets
// the same answers whatever the thread budget.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "service/formulation_cache.h"

namespace checkmate::store {
class PlanStore;
struct StoreShape;
}  // namespace checkmate::store

namespace checkmate::service {

struct PlanServiceOptions {
  // Worker threads for each query's in-solve parallel tree search
  // (milp/branch_and_bound.h) when the query leaves
  // IlpSolveOptions::num_threads at 0. 0 = one per hardware thread. The
  // tree search is epoch-lockstep (identical nodes/incumbents for any
  // worker count), so this only moves wall-clock time.
  int num_threads = 0;
  // Cached formulations (LRU beyond this).
  size_t max_cache_entries = 16;
  // Directory of the disk-backed plan store; empty disables persistence.
  // Proven optima are written crash-safely and served -- content-verified
  // and simulator-validated -- across restarts.
  std::string store_dir;
  // Cap on concurrent MILP ladders; overflow sheds to the heuristic
  // fallback (why_degraded names the overload). 0 = unbounded.
  size_t max_inflight_solves = 0;
};

struct ServiceStats {
  int64_t queries = 0;
  int64_t formulation_hits = 0;
  int64_t formulation_misses = 0;
  int64_t budget_rebinds = 0;        // set_budget() reuses of a cached build
  int64_t presolve_runs = 0;
  int64_t presolve_reuses = 0;       // clamped-artifact reuses
  int64_t warm_starts_injected = 0;  // adjacent optima handed to B&B
  int64_t warm_start_shortcuts = 0;  // solves skipped: chained optimum at the compute floor
  int64_t evictions = 0;
  // Admission-layer counters. A store hit or a shared
  // single-flight outcome does NOT count as a query: `queries` keeps its
  // meaning of "solves the cache actually answered".
  int64_t store_hits = 0;            // plans served from the disk store
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

  // One query through the admission layer and the cache, down the
  // fallback ladder of PlanProvenance. A query whose MILP completes returns
  // the proven optimum -- the same objective as Scheduler::solve_optimal_ilp
  // with the same options; a truncated search (deadline, work limits,
  // cancellation) returns its best incumbent with the true gap; a search
  // that produced nothing (or died on a fault) falls back to the cheapest
  // simulator-validated baseline schedule within options.cost_cap; only a
  // *proof* that no plan exists yields kInfeasible. Set options.deadline /
  // options.cancel to bound the query.
  PlanOutcome plan_robust(const RematProblem& problem, double budget_bytes,
                          const IlpSolveOptions& options = {});
  // Budget sweep over one model (the Figure 5 workload): plan_robust per
  // point in descending budget order, so each point lands on the previous
  // point's cache entry, presolve artifacts and warm-start chain. The
  // remaining deadline is re-apportioned across the points so one slow
  // point cannot starve the rest; results come back in the caller's order.
  std::vector<PlanOutcome> sweep_robust(const RematProblem& problem,
                                        const std::vector<double>& budgets,
                                        const IlpSolveOptions& options = {});

  ServiceStats stats() const;
  size_t cache_size() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }
  // The disk-backed plan store, or nullptr when store_dir is empty.
  store::PlanStore* plan_store() const { return store_.get(); }

 private:
  // One in-flight solve; followers with an identical query
  // block on `cv` and share `outcome`. The key that routes to a Flight is
  // a 64-bit hash; blob/budget/gap/shape are re-checked on join so a
  // collision solves solo instead of sharing a stranger's plan.
  struct Flight;

  std::shared_ptr<CacheEntry> acquire(const RematProblem& problem,
                                      double reference_budget_bytes,
                                      const IlpSolveOptions& options);
  // (Re)runs presolve at reference_budget_bytes when the cached artifacts
  // do not already cover it. Entry mutex must be held.
  void ensure_presolve(CacheEntry& entry, double reference_budget_bytes,
                       const IlpSolveOptions& options);
  // Answers one query against a locked entry. `known_lower_bound` (-inf
  // when absent) is an externally proven lower bound on this query's
  // optimum -- e.g. a store-carried dual bound -- merged into the solve's
  // termination certificate.
  ScheduleResult solve_locked(CacheEntry& entry, double budget_bytes,
                              const IlpSolveOptions& options,
                              double known_lower_bound);
  // The fallback ladder behind plan_robust, after the floor check and the
  // admission layer (store lookup, single-flight, overload shedding).
  PlanOutcome plan_robust_ladder(const RematProblem& problem,
                                 double budget_bytes,
                                 const IlpSolveOptions& options,
                                 double known_lower_bound);
  // Store lookup -> admission slot (or shed) -> ladder -> store put.
  PlanOutcome serve_or_solve(const RematProblem& problem, double budget_bytes,
                             const IlpSolveOptions& options);
  // The resolved per-query tree-worker count (>= 1).
  int thread_budget() const;

  PlanServiceOptions opts_;
  FormulationCache cache_;

  std::unique_ptr<store::PlanStore> store_;  // null unless store_dir set
  std::mutex admission_mu_;  // guards inflight_ and active_solves_
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> inflight_;
  size_t active_solves_ = 0;  // tracked only when max_inflight_solves > 0

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace checkmate::service
