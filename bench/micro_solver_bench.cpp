// Microbenchmarks (google-benchmark) for the solver substrate: sparse LU
// round trips, dual simplex solves, MILP branch & bound, ILP construction,
// schedule generation and simulation throughput.
//
// JSON mode: `micro_solver_bench --json[=PATH]` skips google-benchmark and
// instead runs the shipped solver over the instance/config matrix once
// (worker-count and backend rows), writing per-instance status, cost, every
// solver counter and wall time to PATH (default BENCH_solver.json). This
// seeds the performance trajectory across changes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "checkmate.h"

namespace {

using namespace checkmate;

void BM_GraphTopoSort(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = make_path_graph(n);
  for (int i = 0; i + 8 < n; i += 4) g.add_edge(i, i + 8);
  for (auto _ : state) benchmark::DoNotOptimize(g.topological_order());
}
BENCHMARK(BM_GraphTopoSort)->Arg(128)->Arg(1024)->Arg(8192);

void BM_ArticulationPoints(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Graph g = make_path_graph(n);
  for (int i = 0; i + 6 < n; i += 3) g.add_edge(i, i + 6);
  for (auto _ : state) benchmark::DoNotOptimize(g.articulation_points());
}
BENCHMARK(BM_ArticulationPoints)->Arg(128)->Arg(1024)->Arg(8192);

void BM_SparseLuFactorizeSolve(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  std::vector<std::vector<int>> rows(m);
  std::vector<std::vector<double>> vals(m);
  std::mt19937 rng(1);
  for (int j = 0; j < m; ++j) {
    rows[j] = {j};
    vals[j] = {4.0};
    if (j > 0) {
      rows[j].push_back(j - 1);
      vals[j].push_back(-1.0);
    }
    if (static_cast<int>(rng() % 4) == 0 && j + 7 < m) {
      rows[j].push_back(j + 7);
      vals[j].push_back(0.5);
    }
  }
  std::vector<lp::BasisColumn> cols(m);
  for (int j = 0; j < m; ++j) cols[j] = {rows[j], vals[j]};
  lp::WorkVector rhs;
  rhs.val.assign(m, 1.0);
  rhs.index_all();
  for (auto _ : state) {
    lp::LuFactorization lu;
    bool ok = lu.factorize(m, cols);
    benchmark::DoNotOptimize(ok);
    lp::WorkVector x = rhs;
    lu.ftran(x);
    benchmark::DoNotOptimize(x.val);
  }
}
BENCHMARK(BM_SparseLuFactorizeSolve)->Arg(256)->Arg(1024)->Arg(4096);

lp::LinearProgram staircase_lp(int n) {
  lp::LinearProgram prog;
  for (int j = 0; j < n; ++j) prog.add_var(0.0, 10.0, 1.0 + (j % 5));
  for (int r = 0; r < n; ++r) {
    std::vector<std::pair<int, double>> t{{r, 1.0}};
    if (r + 1 < n) t.emplace_back(r + 1, 0.5);
    if (r + 13 < n) t.emplace_back(r + 13, 0.25);
    prog.add_ge(t, 2.0);
  }
  return prog;
}

void BM_DualSimplexSolve(benchmark::State& state) {
  auto prog = staircase_lp(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto res = lp::solve_lp(prog);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_DualSimplexSolve)->Arg(64)->Arg(256)->Arg(1024);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lp::LinearProgram prog;
  std::mt19937 rng(7);
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < n; ++j) {
    prog.add_binary(-1.0 - static_cast<double>(rng() % 100) / 100.0);
    row.emplace_back(j, 1.0 + static_cast<double>(rng() % 3));
  }
  prog.add_le(row, n * 0.8);
  for (auto _ : state) {
    auto res = milp::solve_milp(prog);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(12)->Arg(20);

void BM_IlpConstructionVgg16(benchmark::State& state) {
  auto problem = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::vgg16(4)),
      model::CostMetric::kProfiledTimeUs);
  IlpBuildOptions opts;
  opts.budget_bytes = 0.6 * problem.total_memory();
  for (auto _ : state) {
    IlpFormulation f(problem, opts);
    benchmark::DoNotOptimize(f.lp().num_vars());
  }
}
BENCHMARK(BM_IlpConstructionVgg16);

void BM_CheckmateIlpSolveUnitChain(benchmark::State& state) {
  auto p = RematProblem::unit_training_chain(static_cast<int>(state.range(0)));
  Scheduler sched(p);
  const double budget = 6.0;
  IlpSolveOptions opts;
  opts.time_limit_sec = 2.0;  // bounded per iteration; tiny chains finish
  for (auto _ : state) {
    auto res = sched.solve_optimal_ilp(budget, opts);
    benchmark::DoNotOptimize(res.cost);
  }
}
BENCHMARK(BM_CheckmateIlpSolveUnitChain)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_TwoPhaseRounding(benchmark::State& state) {
  auto p = RematProblem::unit_training_chain(12);
  const int n = p.size();
  std::vector<std::vector<double>> s_star(n, std::vector<double>(n, 0.0));
  std::mt19937 rng(3);
  for (int t = 1; t < n; ++t)
    for (int i = 0; i < t; ++i)
      s_star[t][i] = static_cast<double>(rng() % 100) / 100.0;
  for (auto _ : state) {
    auto sol = two_phase_round(p.graph, s_star);
    benchmark::DoNotOptimize(sol.R.size());
  }
}
BENCHMARK(BM_TwoPhaseRounding);

void BM_PlanGenerationAndSimulation(benchmark::State& state) {
  auto p = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::vgg16(4)),
      model::CostMetric::kProfiledTimeUs);
  auto sol = baselines::checkpoint_all_schedule(p);
  for (auto _ : state) {
    auto plan = generate_execution_plan(p, sol);
    auto sim = simulate_plan(p, plan);
    benchmark::DoNotOptimize(sim.peak_memory);
  }
}
BENCHMARK(BM_PlanGenerationAndSimulation);

void BM_PolicySimulationUnet(benchmark::State& state) {
  auto p = RematProblem::from_dnn(
      model::make_training_graph(model::zoo::unet(2, 96, 128)),
      model::CostMetric::kProfiledTimeUs);
  std::vector<uint8_t> keep(p.size(), 0);
  for (int v = 0; v < p.size(); v += 3)
    if (!p.is_backward[v]) keep[v] = 1;
  for (auto _ : state) {
    auto sol = baselines::simulate_checkpoint_policy(
        p, keep, baselines::EvictionMode::kChenStyle);
    benchmark::DoNotOptimize(sol.R.size());
  }
}
BENCHMARK(BM_PolicySimulationUnet);

// ------------------------------------------------------------------ JSON

// One row of the JSON matrix: the shipped solver with a worker count, an
// ILP backend (dense Problem 9 vs the sparse retention-interval
// formulation), and whether the config runs on the deep-instance set.
struct SolverConfig {
  const char* name;
  int num_threads = 1;
  IlpFormulationKind formulation = IlpFormulationKind::kDense;
  bool big = false;
};

// "overhaul" is the shipped solver on one thread. threads2/threads4 add
// tree-search workers: the epoch-lockstep determinism guarantee means
// every counter MUST equal overhaul's exactly (the CI gate in
// scripts/compare_bench.py enforces it), only wall-clock may differ.
constexpr SolverConfig kConfigs[] = {
    {.name = "overhaul"},
    {.name = "threads2", .num_threads = 2},
    {.name = "threads4", .num_threads = 4},
    // Retention-interval backend. "interval" reruns the small instances --
    // compare_bench.py asserts its proven costs equal "overhaul"'s exactly
    // (the dense-vs-interval cross-check). The *_big rows run the deep
    // instances; "dense_big" documents what the dense encoding costs there.
    {.name = "interval", .formulation = IlpFormulationKind::kInterval},
    {.name = "interval_big",
     .formulation = IlpFormulationKind::kInterval,
     .big = true},
    {.name = "dense_big", .big = true},
};

struct JsonInstance {
  std::string name;
  RematProblem problem;
  double budget;
};

std::vector<JsonInstance> json_instances() {
  std::vector<JsonInstance> out;
  auto mid_budget = [](const RematProblem& p) {
    Scheduler sched(p);
    auto all = sched.evaluate_schedule(baselines::checkpoint_all_schedule(p),
                                       0.0);
    const double floor = p.memory_floor();
    return floor + 0.5 * (all.peak_memory - floor);
  };
  {
    auto p = RematProblem::unit_training_chain(6);
    out.push_back({"unit_chain_6_tight", p, 5.0});
  }
  {
    auto p = RematProblem::unit_training_chain(8);
    out.push_back({"unit_chain_8_tight", p, 7.0});
  }
  {
    auto p = RematProblem::from_dnn(
        model::make_training_graph(model::zoo::mobilenet_v1(2, 64)),
        model::CostMetric::kProfiledTimeUs);
    const double b = mid_budget(p);
    out.push_back({"mobilenet_v1_mid_budget", std::move(p), b});
  }
  {
    auto p = RematProblem::from_dnn(
        model::make_training_graph(model::zoo::vgg16(2)),
        model::CostMetric::kProfiledTimeUs);
    const double b = mid_budget(p);
    out.push_back({"vgg16_mid_budget", std::move(p), b});
  }
  return out;
}

// Deep instances (>= 200 stages) for the retention-interval backend. The
// dense Problem 9 encoding carries >100k rows here and needs over four
// times the pivots of the interval encoding on the 480-stage chain; neither
// proves the transformer within the 60s limit. Only the *_big configs run
// these.
std::vector<JsonInstance> big_instances() {
  std::vector<JsonInstance> out;
  {
    auto p = RematProblem::unit_chain(480);
    out.push_back({"unit_chain_480_tight", std::move(p), 6.0});
  }
  {
    auto p = RematProblem::from_dnn(
        model::make_training_graph(model::zoo::transformer_stack(20)),
        model::CostMetric::kProfiledTimeUs);
    Scheduler sched(p);
    auto all = sched.evaluate_schedule(baselines::checkpoint_all_schedule(p),
                                       0.0);
    const double floor = p.memory_floor();
    const double b = floor + 0.8 * (all.peak_memory - floor);
    out.push_back({"transformer_20_gen_budget", std::move(p), b});
  }
  return out;
}

int run_json_suite(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"micro_solver_bench\",\n");
  std::fprintf(f, "  \"relative_gap\": 5e-4,\n  \"results\": [\n");
  bool first = true;
  auto run_set = [&](const std::vector<JsonInstance>& instances, bool big) {
    for (const JsonInstance& inst : instances) {
      Scheduler sched(inst.problem);
      for (const SolverConfig& cfg : kConfigs) {
        if (cfg.big != big) continue;
        IlpSolveOptions opts;
        opts.time_limit_sec = 60.0;
        // The dual plateau below the optimum makes 1e-4 unprovable in
        // minutes on the real models; 5e-4 proves the small instances.
        opts.relative_gap = 5e-4;
        opts.num_threads = cfg.num_threads;
        opts.formulation = cfg.formulation;
        auto res = sched.solve_optimal_ilp(inst.budget, opts);
        if (!first) std::fprintf(f, ",\n");
        first = false;
        // A truncated solve whose root LP never finished reports -inf as the
        // dual bound; printf would emit a bare `-inf`, which is not JSON.
        char bound_buf[32];
        if (std::isfinite(res.best_bound))
          std::snprintf(bound_buf, sizeof bound_buf, "%.6g", res.best_bound);
        else
          std::snprintf(bound_buf, sizeof bound_buf, "null");
        std::fprintf(f,
                     "    {\"instance\": \"%s\", \"config\": \"%s\", "
                     "\"threads\": %d, \"status\": \"%s\", ",
                     inst.name.c_str(), cfg.name, cfg.num_threads,
                     milp::to_string(res.milp_status));
        for (const auto& [name, field] : lp::kSolveCounters)
          std::fprintf(f, "\"%s\": %lld, ", name,
                       static_cast<long long>(res.*field));
        std::fprintf(f, "\"seconds\": %.3f, \"cost\": %.6g, "
                     "\"best_bound\": %s}",
                     res.seconds, res.cost, bound_buf);
        std::fflush(f);
        std::fprintf(stderr, "%-24s %-14s %-9s nodes=%-7lld %.2fs\n",
                     inst.name.c_str(), cfg.name,
                     milp::to_string(res.milp_status),
                     static_cast<long long>(res.nodes), res.seconds);
      }
    }
  };
  run_set(json_instances(), /*big=*/false);
  run_set(big_instances(), /*big=*/true);
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    // Exactly --json or --json=PATH; anything else (e.g. a typo like
    // --jsonx) falls through to google-benchmark's flag handling, which
    // rejects unrecognized arguments instead of silently running the
    // 60s-per-config matrix.
    if (std::strcmp(argv[i], "--json") == 0)
      return run_json_suite("BENCH_solver.json");
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      return run_json_suite(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
