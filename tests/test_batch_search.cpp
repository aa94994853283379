#include "core/batch_search.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "core/plan.h"
#include "core/simulator.h"

namespace checkmate {
namespace {

// Synthetic factory: memory scales linearly with batch.
ProblemFactory unit_chain_factory(int layers) {
  return [layers](int64_t batch) {
    auto p = RematProblem::unit_training_chain(layers);
    for (double& m : p.memory) m *= static_cast<double>(batch);
    p.name += "_b" + std::to_string(batch);
    return p;
  };
}

// (batch, feasible) for every probe, in the order the search made them.
std::vector<std::pair<int64_t, bool>> probe_trace(const MaxBatchResult& res) {
  std::vector<std::pair<int64_t, bool>> trace;
  for (const auto& pr : res.probes) trace.emplace_back(pr.batch, pr.feasible);
  return trace;
}

TEST(MaxBatch, MonotoneSyntheticProbe) {
  // Probe: feasible iff batch <= 37. The search must find exactly 37.
  auto factory = unit_chain_factory(3);
  FeasibilityProbe probe = [](const RematProblem& p) {
    return p.memory[0] <= 37.0;
  };
  MaxBatchOptions opts;
  opts.max_batch = 1024;
  auto res = max_batch_size(factory, probe, opts);
  EXPECT_EQ(res.max_batch, 37);
}

TEST(MaxBatch, InfeasibleAtMinReturnsZero) {
  auto factory = unit_chain_factory(3);
  FeasibilityProbe probe = [](const RematProblem&) { return false; };
  auto res = max_batch_size(factory, probe);
  EXPECT_EQ(res.max_batch, 0);
  EXPECT_TRUE(res.infeasible_at_min_batch);
}

TEST(MaxBatch, FloorAboveBudgetIsTypedWithCertificate) {
  // A graph whose minimal footprint exceeds the budget at every batch
  // size: the search returns the typed outcome with the min_batch
  // instance's memory floor as the certificate, instead of garbage.
  auto factory = unit_chain_factory(3);
  const double budget = 1.5;  // below even the batch-1 working set
  FeasibilityProbe probe = [budget](const RematProblem& p) {
    return p.memory_floor() <= budget;
  };
  auto res = max_batch_size(factory, probe);
  EXPECT_EQ(res.max_batch, 0);
  EXPECT_TRUE(res.infeasible_at_min_batch);
  EXPECT_GT(res.min_batch_memory_floor_bytes, budget);
  EXPECT_DOUBLE_EQ(res.min_batch_memory_floor_bytes,
                   factory(1).memory_floor());
}

TEST(MaxBatch, ThrowingProbeCountsAsInfeasibleNotCrash) {
  // Probes that die (numerical failure, injected fault) must degrade to
  // "infeasible at that batch", keeping the search monotone and alive.
  auto factory = unit_chain_factory(3);
  FeasibilityProbe probe = [](const RematProblem& p) -> bool {
    if (p.memory[0] > 8.0) throw std::runtime_error("probe died");
    return true;
  };
  MaxBatchOptions opts;
  opts.max_batch = 1024;
  auto res = max_batch_size(factory, probe, opts);
  EXPECT_EQ(res.max_batch, 8);
  EXPECT_FALSE(res.infeasible_at_min_batch);
}

TEST(MaxBatch, ThrowingFactoryAtMinBatchIsTyped) {
  auto factory = [](int64_t) -> RematProblem {
    throw std::runtime_error("factory died");
  };
  FeasibilityProbe probe = [](const RematProblem&) { return true; };
  auto res = max_batch_size(factory, probe);
  EXPECT_EQ(res.max_batch, 0);
  EXPECT_TRUE(res.infeasible_at_min_batch);
  EXPECT_DOUBLE_EQ(res.min_batch_memory_floor_bytes, 0.0);
}

TEST(MaxBatch, FeasibleEverywhereReturnsMax) {
  auto factory = unit_chain_factory(3);
  FeasibilityProbe probe = [](const RematProblem&) { return true; };
  MaxBatchOptions opts;
  opts.max_batch = 64;
  auto res = max_batch_size(factory, probe, opts);
  EXPECT_EQ(res.max_batch, 64);
}

TEST(MaxBatch, EachBatchSizeBuiltAndProbedAtMostOnce) {
  // Probes are memoized: every factory build corresponds to one recorded
  // probe and no batch size appears twice, whatever path the growth and
  // bisection phases take.
  int builds = 0;
  auto counting_factory = [&builds](int64_t batch) {
    ++builds;
    auto p = RematProblem::unit_training_chain(3);
    for (double& m : p.memory) m *= static_cast<double>(batch);
    return p;
  };
  FeasibilityProbe probe = [](const RematProblem& p) {
    return p.memory[0] <= 37.0;
  };
  MaxBatchOptions opts;
  opts.max_batch = 1024;
  auto res = max_batch_size(counting_factory, probe, opts);
  EXPECT_EQ(res.max_batch, 37);
  EXPECT_EQ(builds, static_cast<int>(res.probes.size()));
  std::set<int64_t> seen;
  for (const auto& pr : res.probes) EXPECT_TRUE(seen.insert(pr.batch).second);
}

TEST(MaxBatch, ProbeCountLogarithmic) {
  auto factory = unit_chain_factory(3);
  FeasibilityProbe probe = [](const RematProblem& p) {
    return p.memory[0] <= 1000.0;
  };
  MaxBatchOptions opts;
  opts.max_batch = 1 << 20;
  auto res = max_batch_size(factory, probe, opts);
  EXPECT_EQ(res.max_batch, 1000);
  EXPECT_LE(res.probes.size(), 45u);
}

TEST(MaxBatch, IlpProbeRespectsBudgetAndCostCap) {
  // Budget 8 units; unit chain with batch-scaled memory. The ILP probe must
  // accept small batches and reject ones whose minimum footprint exceeds
  // the budget.
  auto factory = unit_chain_factory(4);
  auto probe = make_ilp_probe(/*budget_bytes=*/8.0,
                              /*per_probe_time_limit_sec=*/30.0);
  MaxBatchOptions opts;
  opts.budget_bytes = 8.0;
  opts.max_batch = 64;
  auto res = max_batch_size(factory, probe, opts);
  // Interior gradients need 4 resident values: batch 2 => 8 units exactly.
  EXPECT_EQ(res.max_batch, 2);
  // The whole probe trace is pinned, not just its answer: seed short-cuts
  // and MILP probes must agree on every batch size the search visits.
  const std::vector<std::pair<int64_t, bool>> want = {
      {1, true}, {2, true}, {4, false}, {3, false}};
  EXPECT_EQ(probe_trace(res), want);
}

TEST(MaxBatch, IlpEnablesLargerBatchThanCheckpointAll) {
  // The headline of Figure 6: rematerialization admits larger batches than
  // checkpoint-all under the same budget (with at most one extra forward
  // pass of compute).
  const int layers = 6;
  auto factory = unit_chain_factory(layers);
  const double budget = 16.0;

  FeasibilityProbe checkpoint_all_probe = [budget](const RematProblem& p) {
    auto sol = baselines::checkpoint_all_schedule(p);
    auto sim = simulate_plan(p, generate_execution_plan(p, sol));
    return sim.valid && sim.peak_memory <= budget;
  };
  auto ilp_probe = make_ilp_probe(budget, 30.0);

  MaxBatchOptions opts;
  opts.budget_bytes = budget;
  opts.max_batch = 64;
  auto base = max_batch_size(factory, checkpoint_all_probe, opts);
  auto ours = max_batch_size(factory, ilp_probe, opts);
  EXPECT_GT(ours.max_batch, base.max_batch);
  const std::vector<std::pair<int64_t, bool>> want = {
      {1, true}, {2, true}, {4, false}, {3, true}};
  EXPECT_EQ(probe_trace(ours), want);
}

}  // namespace
}  // namespace checkmate
