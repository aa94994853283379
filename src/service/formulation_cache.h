// Cache of built MILP formulations and their presolve artifacts, keyed by
// the canonical problem fingerprint plus the formulation shape.
//
// The Checkmate MILP for one model is re-posed dozens of times per workload
// (Figure 5 budget sweeps, the Section 6.4 max-batch search) with only the
// memory budget changing. The budget enters the formulation solely as the
// U-variable upper bounds (IlpFormulation freezes its scaling at
// construction), so a cache hit turns a full rebuild into an in-place
// set_budget() rebind. Presolve artifacts amortize the same way: every
// presolve reduction is monotone in the variable bounds, so a pass run at
// the *largest* budget of interest stays sound for any smaller budget once
// the U upper bounds are clamped down (milp::clamp_upper_bounds).
//
// Entries own a copy of the RematProblem (the cached IlpFormulation points
// into it) and are handed out as shared_ptr so LRU eviction can never free
// an entry another query still holds. Collisions: the 64-bit fingerprint
// only routes the lookup; acquire() verifies a hit by full problem-content
// comparison, so a collision degrades to a rebuild, never to a wrong
// formulation.
//
// The cache holds solver state only. Answers -- proven optima and the
// budget staircase they form -- live in the plan service's PlanStore
// (store/plan_store.h), so evicting an entry never loses a plan.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/ilp_builder.h"
#include "core/remat_problem.h"
#include "milp/presolve.h"
#include "store/plan_store.h"

namespace checkmate::service {

// The shape includes the backend (dense vs retention-interval): the two
// build different LPs over different variable layouts, so they can never
// share a cached formulation or its presolve artifacts.
struct FormulationKey {
  uint64_t problem_fingerprint = 0;
  store::StoreShape shape;

  friend bool operator==(const FormulationKey&,
                         const FormulationKey&) = default;
};

struct FormulationKeyHash {
  size_t operator()(const FormulationKey& k) const;
};

// One cached problem/formulation-shape; queries against the same entry are
// serialized by `mu` (a budget rebind mutates the shared formulation).
struct CacheEntry {
  explicit CacheEntry(const RematProblem& p) : problem(p) {}

  RematProblem problem;  // owned copy; `form` points into it
  std::unique_ptr<IlpFormulation> form;

  // Presolve artifacts, sound for any budget <= presolve_budget_bytes
  // after clamping the U upper bounds (see header comment).
  bool has_presolve = false;
  double presolve_budget_bytes = 0.0;
  lp::LinearProgram presolved;
  milp::PresolveStats presolve_stats;

  std::mutex mu;        // serializes queries against this entry
  uint64_t last_used = 0;  // LRU tick, guarded by the cache mutex
};

class FormulationCache {
 public:
  explicit FormulationCache(size_t max_entries);

  // Returns the entry for (problem fingerprint, formulation shape),
  // building the formulation at build.budget_bytes on a miss. `hit`
  // reports whether the formulation was reused. May evict the
  // least-recently-used entry beyond the capacity bound.
  std::shared_ptr<CacheEntry> acquire(const RematProblem& problem,
                                      const IlpBuildOptions& build, bool* hit,
                                      int64_t* evictions);

  void clear();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t max_entries_;
  uint64_t tick_ = 0;
  std::unordered_map<FormulationKey, std::shared_ptr<CacheEntry>,
                     FormulationKeyHash>
      entries_;
};

}  // namespace checkmate::service
