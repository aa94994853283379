// Budget-sweep benchmark for the plan service: a 10-point overhead-vs-budget
// curve (the Figure 5 workload) solved cold -- ten independent
// Scheduler::solve_optimal_ilp calls -- versus through
// PlanService::sweep_robust, which serves points on an already-proven step
// of the budget staircase without solving and hands every other point the
// staircase's dual bound. Both paths must land identical proven-optimal
// objectives at every point, and a point the service solves may not take
// more nodes than its cold solve (the carried bound only stops the same
// search earlier).
//
//   sweep_bench [--json[=PATH]] [--points=N] [--instance=SUBSTR] [--gap=G]
//
// --json writes BENCH_sweep.json (committed as the regression baseline;
// scripts/check.sh re-runs the bench and diffs node counts via
// scripts/compare_bench.py). Without --json the same table prints to
// stdout only.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checkmate.h"

namespace {

using namespace checkmate;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Instance {
  std::string name;
  RematProblem problem;
};

std::vector<Instance> make_instances() {
  std::vector<Instance> out;
  out.push_back({"mobilenet_v1",
                 RematProblem::from_dnn(
                     model::make_training_graph(model::zoo::mobilenet_v1(2, 64)),
                     model::CostMetric::kProfiledTimeUs)});
  out.push_back({"vgg16", RematProblem::from_dnn(
                              model::make_training_graph(model::zoo::vgg16(2)),
                              model::CostMetric::kProfiledTimeUs)});
  return out;
}

struct PointResult {
  double budget = 0.0;
  ScheduleResult cold, cached;
};

int run_suite(const std::string& json_path, int points,
              const std::string& filter, double gap) {
  FILE* f = nullptr;
  if (!json_path.empty()) {
    f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"sweep_bench\",\n");
    std::fprintf(f, "  \"relative_gap\": %g,\n  \"points\": %d,\n", gap,
                 points);
    std::fprintf(f, "  \"instances\": [\n");
  }

  IlpSolveOptions opts;
  opts.time_limit_sec = 60.0;
  // 1e-3 proves at every grid point in seconds; tighter gaps run into the
  // dual plateau (ROADMAP: provable 5e-4 in seconds, stuck before 1e-4)
  // at some loose-budget points, which would leave unproven points in the
  // curve for both the cold and the cached path.
  opts.relative_gap = gap;

  int exit_code = 0;
  bool first_instance = true;
  for (Instance& inst : make_instances()) {
    if (!filter.empty() && inst.name.find(filter) == std::string::npos)
      continue;
    Scheduler sched(inst.problem);
    const auto all = sched.evaluate_schedule(
        baselines::checkpoint_all_schedule(inst.problem), 0.0);
    const double floor = inst.problem.memory_floor();
    const double span = all.peak_memory - floor;
    // Grid floor of 0.42: below that the dual plateau makes even a 1e-3
    // proof take minutes (cold and cached alike), which would swamp the
    // comparison with a point neither path can finish.
    std::vector<double> budgets;
    for (int i = 0; i < points; ++i) {
      const double frac =
          0.42 + (0.975 - 0.42) * (points > 1 ? double(i) / (points - 1) : 1.0);
      budgets.push_back(floor + frac * span);
    }

    std::vector<PointResult> pts(budgets.size());
    const auto cold_start = Clock::now();
    for (size_t i = 0; i < budgets.size(); ++i) {
      pts[i].budget = budgets[i];
      pts[i].cold = sched.solve_optimal_ilp(budgets[i], opts);
      std::fprintf(stderr, "%-14s cold   %5.2f GB %-9s cost=%-10.6g %6.2fs\n",
                   inst.name.c_str(), budgets[i] / 1e9,
                   milp::to_string(pts[i].cold.milp_status), pts[i].cold.cost,
                   pts[i].cold.seconds);
    }
    const double cold_wall = seconds_since(cold_start);

    service::PlanService svc;
    const auto cached_start = Clock::now();
    const auto cached = svc.sweep_robust(inst.problem, budgets, opts);
    const double cached_wall = seconds_since(cached_start);
    for (size_t i = 0; i < budgets.size(); ++i) {
      pts[i].cached = cached[i].result;
      std::fprintf(stderr, "%-14s cached %5.2f GB %-9s cost=%-10.6g %6.2fs\n",
                   inst.name.c_str(), budgets[i] / 1e9,
                   milp::to_string(pts[i].cached.milp_status),
                   pts[i].cached.cost, pts[i].cached.seconds);
    }
    const auto stats = svc.stats();

    int64_t cold_nodes = 0, cached_nodes = 0;
    double max_rel_diff = 0.0;
    bool all_optimal = true;
    for (const PointResult& p : pts) {
      cold_nodes += p.cold.nodes;
      cached_nodes += p.cached.nodes;
      all_optimal = all_optimal &&
                    p.cold.milp_status == milp::MilpStatus::kOptimal &&
                    p.cached.milp_status == milp::MilpStatus::kOptimal;
      const double denom = std::max(1.0, std::abs(p.cold.cost));
      max_rel_diff = std::max(max_rel_diff,
                              std::abs(p.cold.cost - p.cached.cost) / denom);
    }
    const double speedup = cached_wall > 0.0 ? cold_wall / cached_wall : 0.0;
    // Both paths prove optimality within the same relative gap, so their
    // objectives may differ by at most that gap.
    const bool costs_match = max_rel_diff <= opts.relative_gap + 1e-12;
    if (!all_optimal || !costs_match) exit_code = 1;

    std::fprintf(stderr,
                 "%-14s cold %.2fs  cached %.2fs  speedup %.2fx  "
                 "max_cost_diff %.2e  %s\n",
                 inst.name.c_str(), cold_wall, cached_wall, speedup,
                 max_rel_diff,
                 all_optimal && costs_match ? "OK" : "MISMATCH");

    if (f) {
      if (!first_instance) std::fprintf(f, ",\n");
      first_instance = false;
      std::fprintf(f, "    {\"instance\": \"%s\", \"n\": %d,\n",
                   inst.name.c_str(), inst.problem.size());
      std::fprintf(f,
                   "     \"cold_wall_seconds\": %.3f, "
                   "\"cached_wall_seconds\": %.3f, \"speedup\": %.2f,\n",
                   cold_wall, cached_wall, speedup);
      std::fprintf(f,
                   "     \"cold_nodes\": %lld, \"cached_nodes\": %lld, "
                   "\"all_optimal\": %s, \"max_cost_rel_diff\": %.3e,\n",
                   static_cast<long long>(cold_nodes),
                   static_cast<long long>(cached_nodes),
                   all_optimal ? "true" : "false", max_rel_diff);
      std::fprintf(f, "     \"service\": {\"shortcuts\": %lld},\n",
                   static_cast<long long>(stats.warm_start_shortcuts));
      std::fprintf(f, "     \"sweep\": [\n");
      for (size_t i = 0; i < pts.size(); ++i) {
        const PointResult& p = pts[i];
        std::fprintf(
            f,
            "       {\"budget_bytes\": %.6g, \"cold_cost\": %.6g, "
            "\"cached_cost\": %.6g, \"cold_status\": \"%s\", "
            "\"cached_status\": \"%s\", \"cold_nodes\": %lld, "
            "\"cached_nodes\": %lld, \"cold_seconds\": %.3f, "
            "\"cached_seconds\": %.3f}%s\n",
            p.budget, p.cold.cost, p.cached.cost,
            milp::to_string(p.cold.milp_status),
            milp::to_string(p.cached.milp_status),
            static_cast<long long>(p.cold.nodes),
            static_cast<long long>(p.cached.nodes), p.cold.seconds,
            p.cached.seconds, i + 1 < pts.size() ? "," : "");
      }
      std::fprintf(f, "     ]}");
      std::fflush(f);
    }
  }

  if (f) {
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string filter;
  int points = 10;
  double gap = 1e-3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_sweep.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--points=", 9) == 0) {
      points = std::atoi(argv[i] + 9);
      if (points < 2) points = 2;
    } else if (std::strncmp(argv[i], "--instance=", 11) == 0) {
      filter = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--gap=", 6) == 0) {
      gap = std::atof(argv[i] + 6);
    } else {
      std::fprintf(stderr,
                   "usage: sweep_bench [--json[=PATH]] [--points=N] "
                   "[--instance=SUBSTR] [--gap=G]\n");
      return 1;
    }
  }
  return run_suite(json_path, points, filter, gap);
}
