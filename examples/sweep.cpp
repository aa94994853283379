// Plan-service quickstart: answer a whole overhead-vs-budget sweep (the
// Figure 5 workload) from one cached formulation.
//
// The service builds and presolves the MILP once, rebinds only the
// U-variable budget bounds per point, and serves every point that lands on
// an already-proven step of the budget staircase without solving. Every
// returned objective is identical to an independent solve_optimal_ilp
// call -- the sweep is just much faster.
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

  std::printf("%s: %d nodes, checkpoint-all peak %.3f GB\n\n",
              problem.name.c_str(), problem.size(), all.peak_memory / 1e9);
  std::printf("%-12s %-16s %-10s %-8s %-8s\n", "budget(GB)", "provenance",
              "overhead", "nodes", "seconds");
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ScheduleResult& r = outcomes[i].result;
    std::printf("%-12.3f %-16s %-10.4f %-8lld %-8.2f\n", budgets[i] / 1e9,
                service::to_string(outcomes[i].provenance), r.overhead,
                static_cast<long long>(r.nodes), r.seconds);
  }

  const auto st = service.stats();
  std::printf(
      "\nservice: %lld queries, %lld formulation hit(s), %lld budget "
      "rebinds,\n         %lld presolve run(s) / %lld reuses, %lld "
      "shortcut(s)\n",
      static_cast<long long>(st.queries),
      static_cast<long long>(st.formulation_hits),
      static_cast<long long>(st.budget_rebinds),
      static_cast<long long>(st.presolve_runs),
      static_cast<long long>(st.presolve_reuses),
      static_cast<long long>(st.warm_start_shortcuts));
  return 0;
}
