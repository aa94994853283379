#include "check_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace planbench {

namespace {

std::string describe(const char* what, int t, int i, int j = -1) {
  std::string out = std::string(what) + ": stage " + std::to_string(t) +
                    ", node " + std::to_string(i);
  if (j >= 0) out += ", dependency " + std::to_string(j);
  return out;
}

}  // namespace

std::string check_schedule(const checkmate::RematProblem& problem,
                           const checkmate::RematSolution& solution,
                           double reported_cost) {
  const int n = problem.size();
  const auto& R = solution.R;
  const auto& S = solution.S;
  if (static_cast<int>(R.size()) != n || static_cast<int>(S.size()) != n)
    return "R/S must have one row per node";
  for (int t = 0; t < n; ++t)
    if (static_cast<int>(R[t].size()) != n ||
        static_cast<int>(S[t].size()) != n)
      return "R/S rows must have one entry per node";

  for (int i = 0; i < n; ++i)
    if (S[0][i]) return describe("value retained into stage 0", 0, i);

  std::vector<uint8_t> computed(n, 0);
  double cost = 0.0;
  for (int t = 0; t < n; ++t) {
    for (int i = 0; i < n; ++i) {
      if (t + 1 < n && S[t + 1][i] && !R[t][i] && !S[t][i])
        return describe("liveness (1c) violated", t + 1, i);
      if (!R[t][i]) continue;
      computed[i] = 1;
      cost += problem.cost[i];
      // Stage t runs its computations in node order, so a dependency j < i
      // computed in this stage is already resident.
      for (checkmate::NodeId j : problem.graph.deps(i))
        if (!S[t][j] && !(j < i && R[t][j]))
          return describe("dependency (1b) violated", t, i, j);
    }
  }
  for (int i = 0; i < n; ++i)
    if (!computed[i]) return "node " + std::to_string(i) + " never computed";

  const double tol = 1e-9 * std::max(1.0, std::abs(cost));
  if (std::abs(cost - reported_cost) > tol) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "cost mismatch: sum C*R = %.17g, reported %.17g", cost,
                  reported_cost);
    return buf;
  }
  return {};
}

std::vector<int> check_staircase(std::vector<ProvenPoint> points,
                                 double relative_gap) {
  std::sort(points.begin(), points.end(),
            [](const ProvenPoint& a, const ProvenPoint& b) {
              if (a.series != b.series) return a.series < b.series;
              return a.budget < b.budget;
            });
  std::vector<int> bad;
  // Within a series, the cheapest cost seen at any strictly smaller budget.
  double min_below = INFINITY;
  double pending_min = INFINITY;  // costs at the current (equal) budget
  for (size_t k = 0; k < points.size(); ++k) {
    const ProvenPoint& p = points[k];
    const bool new_series = k == 0 || p.series != points[k - 1].series;
    if (new_series) {
      min_below = pending_min = INFINITY;
    } else if (p.budget > points[k - 1].budget) {
      min_below = std::min(min_below, pending_min);
      pending_min = INFINITY;
    }
    const double slack = 1e-9 * std::max(1.0, std::abs(p.cost));
    if (p.cost * (1.0 - relative_gap) > min_below + slack)
      bad.push_back(p.query);
    pending_min = std::min(pending_min, p.cost);
  }
  return bad;
}

std::string check_reference(double cost, double reference_cost,
                            double relative_gap) {
  const double scale = std::max(std::abs(cost), std::abs(reference_cost));
  if (std::abs(cost - reference_cost) <=
      relative_gap * scale + 1e-9 * std::max(1.0, scale))
    return {};
  char buf[128];
  std::snprintf(buf, sizeof buf, "cost %.17g is off the reference %.17g",
                cost, reference_cost);
  return buf;
}

}  // namespace planbench
