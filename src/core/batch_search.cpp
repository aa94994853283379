#include "core/batch_search.h"

#include <map>
#include <memory>

#include "baselines/baselines.h"
#include "service/plan_service.h"

namespace checkmate {

MaxBatchResult max_batch_size(const ProblemFactory& factory,
                              const FeasibilityProbe& probe,
                              const MaxBatchOptions& options) {
  MaxBatchResult result;
  // Memoized probe: each batch size is built and solved at most once per
  // search, whatever path the growth/bisection phases take, and the probe
  // trace stays free of duplicates.
  std::map<int64_t, bool> memo;
  auto check = [&](int64_t b) {
    auto it = memo.find(b);
    if (it != memo.end()) return it->second;
    bool ok = false;
    try {
      const RematProblem p = factory(b);
      if (b == options.min_batch)
        result.min_batch_memory_floor_bytes = p.memory_floor();
      ok = probe(p);
    } catch (const std::exception&) {
      // A probe that dies proves nothing about feasibility; counting it
      // infeasible keeps the search monotone and never aborts the caller.
      ok = false;
    }
    memo.emplace(b, ok);
    result.probes.push_back({b, ok});
    return ok;
  };

  if (!check(options.min_batch)) {
    // Typed instead of garbage: max_batch stays 0 and the min_batch
    // instance's memory floor serves as the certificate whenever it
    // exceeds the budget (then no batch size can ever fit).
    result.infeasible_at_min_batch = true;
    return result;
  }

  // Exponential growth to bracket the frontier.
  int64_t lo = options.min_batch;
  int64_t hi = lo;
  while (hi < options.max_batch) {
    const int64_t next = std::min(options.max_batch, hi * 2);
    if (next == hi) break;
    if (check(next)) {
      lo = hi = next;
    } else {
      hi = next;
      break;
    }
  }
  if (hi == lo) {  // feasible all the way to max_batch
    result.max_batch = lo;
    return result;
  }
  // Invariant: lo feasible, hi infeasible.
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (check(mid))
      lo = mid;
    else
      hi = mid;
  }
  result.max_batch = lo;
  return result;
}

FeasibilityProbe make_ilp_probe(double budget_bytes,
                                double per_probe_time_limit_sec) {
  // One plan service per probe, shared across copies of the returned
  // std::function; each bisection step is a distinct problem (the batch
  // scales the memories).
  auto service = std::make_shared<service::PlanService>();
  return [budget_bytes, per_probe_time_limit_sec,
          service](const RematProblem& p) {
    // Cheap necessary condition: the structural working-set floor must fit.
    if (p.memory_floor() > budget_bytes) return false;
    const double cost_cap = 2.0 * p.forward_cost() + p.backward_cost();

    // Sufficient condition: any seed-portfolio schedule under budget and
    // cap proves feasibility without touching the MILP.
    if (baselines::best_seed(p, budget_bytes, cost_cap,
                             [&](const RematSolution& s) {
                               return peak_memory_usage(p, s) <= budget_bytes;
                             }))
      return true;

    // MILP feasibility through the plan service (cost cap in the
    // formulation; first-incumbent mode). Only a MILP plan answers
    // the probe: a proven optimum or a truncated search's incumbent, both
    // of which respect the cap inside the formulation.
    IlpSolveOptions opts;
    opts.time_limit_sec = per_probe_time_limit_sec;
    opts.stop_at_first_incumbent = true;
    opts.cost_cap = cost_cap;
    const auto provenance =
        service->plan_robust(p, budget_bytes, opts).provenance;
    return provenance == service::PlanProvenance::kProvenOptimal ||
           provenance == service::PlanProvenance::kIncumbent;
  };
}

}  // namespace checkmate
