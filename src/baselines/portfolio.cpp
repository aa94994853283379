#include <algorithm>
#include <limits>

#include "baselines/baselines.h"

namespace checkmate::baselines {

std::optional<RematSolution> best_seed(
    const RematProblem& p, double budget_bytes,
    const std::optional<double>& cost_cap,
    const std::function<bool(const RematSolution&)>& accept) {
  const double cost_limit =
      cost_cap ? *cost_cap + 1e-9 * std::max(1.0, *cost_cap)
               : std::numeric_limits<double>::infinity();
  std::optional<RematSolution> best;
  double best_cost = std::numeric_limits<double>::infinity();
  auto offer = [&](RematSolution&& sol) {
    const double cost = sol.compute_cost(p);
    if (cost >= best_cost || cost > cost_limit || !accept(sol)) return;
    best = std::move(sol);
    best_cost = cost;
  };
  for (auto kind :
       {BaselineKind::kCheckpointAll, BaselineKind::kChenSqrtN,
        BaselineKind::kLinearizedSqrtN, BaselineKind::kLinearizedGreedy,
        BaselineKind::kApGreedy}) {
    for (auto& bs : baseline_schedules(p, kind)) offer(std::move(bs.solution));
  }
  const double headroom = budget_bytes - p.fixed_overhead;
  for (double frac : {0.95, 0.85, 0.75, 0.6, 0.45, 0.3, 0.2, 0.12, 0.06, 0.03})
    offer(budget_aware_schedule(p, frac * headroom));
  return best;
}

}  // namespace checkmate::baselines
