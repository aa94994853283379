// Plan-service quickstart: answer a whole overhead-vs-budget sweep (the
// Figure 5 workload) through one service.
//
// The service asks the points in descending budget order and serves every
// point that lands on an already-proven step of the budget staircase
// without solving; the other points solve fresh, stopping as soon as an
// incumbent meets the dual bound proven at a larger budget. Every returned
// objective is identical to an independent solve_optimal_ilp call.
//
//   ./sweep [points]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "checkmate.h"

using namespace checkmate;

int main(int argc, char** argv) {
  const int points = argc > 1 ? std::atoi(argv[1]) : 8;

  auto problem = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::mobilenet_v1(2, 64)),
      model::CostMetric::kProfiledTimeUs);
  Scheduler sched(problem);
  const auto all = sched.evaluate_schedule(
      baselines::checkpoint_all_schedule(problem), 0.0);
  const double floor = problem.memory_floor();

  std::vector<double> budgets;
  for (int i = 0; i < points; ++i) {
    const double frac = 0.3 + 0.7 * (points > 1 ? double(i) / (points - 1) : 1.0);
    budgets.push_back(floor + frac * (all.peak_memory - floor));
  }

  IlpSolveOptions opts;
  opts.time_limit_sec = 30.0;
  opts.relative_gap = 5e-4;

  service::PlanService service;
  const auto outcomes = service.sweep_robust(problem, budgets, opts);

  std::printf("%s: %d nodes, checkpoint-all peak %.2f MB\n\n",
              problem.name.c_str(), problem.size(), all.peak_memory / 1e6);
  std::printf("%-12s %-16s %-10s %-8s %-8s\n", "budget(MB)", "provenance",
              "overhead", "nodes", "seconds");
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ScheduleResult& r = outcomes[i].result;
    std::printf("%-12.2f %-16s %-10.4f %-8lld %-8.2f\n", budgets[i] / 1e6,
                service::to_string(outcomes[i].provenance), r.overhead,
                static_cast<long long>(r.nodes), r.seconds);
  }

  const auto st = service.stats();
  std::printf("\nservice: %lld solve(s), %lld served from the staircase\n",
              static_cast<long long>(st.queries),
              static_cast<long long>(st.warm_start_shortcuts));
  return 0;
}
