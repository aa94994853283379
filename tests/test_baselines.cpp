#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/plan.h"
#include "core/scheduler.h"
#include "core/simulator.h"
#include "model/autodiff.h"
#include "model/zoo.h"

namespace checkmate::baselines {
namespace {

RematProblem vgg_problem(int64_t batch = 4) {
  return RematProblem::from_dnn(
      model::make_training_graph(model::zoo::vgg16(batch)),
      model::CostMetric::kProfiledTimeUs);
}

RematProblem unet_problem(int64_t batch = 2) {
  return RematProblem::from_dnn(
      model::make_training_graph(model::zoo::unet(batch, 64, 96)),
      model::CostMetric::kProfiledTimeUs);
}

double simulated_cost(const RematProblem& p, const RematSolution& sol) {
  auto sim = simulate_plan(p, generate_execution_plan(p, sol));
  EXPECT_TRUE(sim.valid) << sim.error;
  return sim.total_cost;
}

double simulated_peak(const RematProblem& p, const RematSolution& sol) {
  auto sim = simulate_plan(p, generate_execution_plan(p, sol));
  EXPECT_TRUE(sim.valid) << sim.error;
  return sim.peak_memory;
}

TEST(Baselines, CheckpointAllComputesEachNodeOnce) {
  auto p = vgg_problem();
  auto sol = checkpoint_all_schedule(p);
  ASSERT_EQ(sol.check_feasible(p), "");
  EXPECT_EQ(sol.num_computations(), p.size());
  EXPECT_NEAR(simulated_cost(p, sol), p.total_cost_all_nodes(),
              1e-9 * p.total_cost_all_nodes());
}

TEST(Baselines, IsLinearForwardClassification) {
  EXPECT_TRUE(is_linear_forward(vgg_problem()));
  EXPECT_TRUE(is_linear_forward(RematProblem::unit_training_chain(4)));
  EXPECT_FALSE(is_linear_forward(unet_problem()));
}

TEST(Baselines, ApplicabilityMatrixMatchesTable1) {
  auto linear = vgg_problem();
  auto nonlinear = unet_problem();
  // Linear models: everything applies.
  for (auto kind :
       {BaselineKind::kCheckpointAll, BaselineKind::kChenSqrtN,
        BaselineKind::kChenGreedy, BaselineKind::kGriewankLogN,
        BaselineKind::kApSqrtN, BaselineKind::kApGreedy,
        BaselineKind::kLinearizedSqrtN, BaselineKind::kLinearizedGreedy})
    EXPECT_TRUE(baseline_applicable(linear, kind)) << to_string(kind);
  // Non-linear: Chen/Griewank originals do not apply; generalizations do.
  EXPECT_FALSE(baseline_applicable(nonlinear, BaselineKind::kChenSqrtN));
  EXPECT_FALSE(baseline_applicable(nonlinear, BaselineKind::kChenGreedy));
  EXPECT_FALSE(baseline_applicable(nonlinear, BaselineKind::kGriewankLogN));
  EXPECT_TRUE(baseline_applicable(nonlinear, BaselineKind::kApSqrtN));
  EXPECT_TRUE(baseline_applicable(nonlinear, BaselineKind::kLinearizedGreedy));
}

TEST(Baselines, ChenSqrtNSelectsEverySqrtLth) {
  std::vector<NodeId> candidates(16);
  for (int i = 0; i < 16; ++i) candidates[i] = i;
  auto cp = chen_sqrt_n_select(candidates);
  EXPECT_EQ(cp, (std::vector<NodeId>{4, 8, 12}));
}

TEST(Baselines, ChenGreedyRespectsSegmentBudget) {
  auto p = RematProblem::unit_training_chain(9);  // 10 fwd values, unit mem
  auto candidates = forward_chain_candidates(p);
  auto cp = chen_greedy_select(p, candidates, 3.0);
  // Segments of ~3 units: checkpoints at indices 3, 7 (acc resets after).
  ASSERT_GE(cp.size(), 2u);
  for (size_t i = 1; i < cp.size(); ++i) EXPECT_GE(cp[i] - cp[i - 1], 3);
}

RematProblem uniform_linear_problem(int layers = 16) {
  // Uniform activation sizes: the regime where sqrt(n) checkpointing pays
  // (on memory pyramids like coarse VGG the early segment dominates and
  // count-based checkpointing saves little -- see Figure 5 discussion).
  return RematProblem::from_dnn(
      model::make_training_graph(model::zoo::linear_net(layers, 4, 32, 32)),
      model::CostMetric::kProfiledTimeUs);
}

TEST(Baselines, SqrtNReducesMemoryCostsCompute) {
  auto p = uniform_linear_problem();
  auto all = checkpoint_all_schedule(p);
  auto sqrt_schedules = baseline_schedules(p, BaselineKind::kChenSqrtN);
  ASSERT_EQ(sqrt_schedules.size(), 1u);
  const auto& lean = sqrt_schedules[0].solution;
  ASSERT_EQ(lean.check_feasible(p), "");
  EXPECT_LT(simulated_peak(p, lean), simulated_peak(p, all));
  EXPECT_GT(simulated_cost(p, lean), simulated_cost(p, all));
}

TEST(Baselines, GreedySweepExposesMemoryComputeTradeoff) {
  auto p = uniform_linear_problem();
  auto schedules = baseline_schedules(p, BaselineKind::kChenGreedy);
  ASSERT_GE(schedules.size(), 4u);
  double min_peak = 1e300, max_peak = 0.0;
  for (const auto& s : schedules) {
    ASSERT_EQ(s.solution.check_feasible(p), "") << s.label;
    const double peak = simulated_peak(p, s.solution);
    min_peak = std::min(min_peak, peak);
    max_peak = std::max(max_peak, peak);
  }
  EXPECT_LT(min_peak, 0.8 * max_peak);  // the knob genuinely moves memory
}

TEST(Baselines, ArticulationCandidatesOnUnet) {
  auto p = unet_problem();
  auto aps = articulation_candidates(p);
  // U-Net has few articulation points (skip connections bypass most
  // vertices) -- the paper's motivation for the linearized variants.
  auto all_fwd = forward_chain_candidates(p);
  EXPECT_LT(aps.size(), all_fwd.size());
  EXPECT_FALSE(aps.empty());
  for (NodeId v : aps) EXPECT_FALSE(p.is_backward[v]);
}

TEST(Baselines, ApVariantsProduceFeasibleSchedulesOnUnet) {
  auto p = unet_problem();
  for (auto kind : {BaselineKind::kApSqrtN, BaselineKind::kApGreedy,
                    BaselineKind::kLinearizedSqrtN,
                    BaselineKind::kLinearizedGreedy}) {
    auto schedules = baseline_schedules(p, kind);
    ASSERT_FALSE(schedules.empty()) << to_string(kind);
    for (const auto& s : schedules)
      EXPECT_EQ(s.solution.check_feasible(p), "")
          << to_string(kind) << " " << s.label;
  }
}

TEST(Baselines, LinearizedMatchesChenOnLinearGraphs) {
  // Appendix B: "all proposed generalizations exactly reproduce the
  // original heuristics on linear networks."
  auto p = vgg_problem();
  auto chen = baseline_schedules(p, BaselineKind::kChenSqrtN);
  auto lin = baseline_schedules(p, BaselineKind::kLinearizedSqrtN);
  ASSERT_EQ(chen.size(), 1u);
  ASSERT_EQ(lin.size(), 1u);
  EXPECT_EQ(chen[0].solution.R, lin[0].solution.R);
  EXPECT_EQ(chen[0].solution.S, lin[0].solution.S);
}

TEST(Baselines, PolicySimulationKeepsInputsResident) {
  auto p = vgg_problem();
  auto schedules = baseline_schedules(p, BaselineKind::kChenSqrtN);
  const auto& sol = schedules[0].solution;
  // Node 0 is the input; Chen-style policies pin it.
  for (int t = 1; t < p.size(); ++t) EXPECT_EQ(sol.S[t][0], 1) << t;
}

TEST(Baselines, InapplicableReturnsEmpty) {
  auto p = unet_problem();
  EXPECT_TRUE(baseline_schedules(p, BaselineKind::kChenSqrtN).empty());
  EXPECT_TRUE(baseline_schedules(p, BaselineKind::kGriewankLogN).empty());
}

TEST(Baselines, EveryScheduleSimulatesCleanly) {
  for (auto& p : {vgg_problem(2), unet_problem(1)}) {
    for (auto kind :
         {BaselineKind::kCheckpointAll, BaselineKind::kChenSqrtN,
          BaselineKind::kChenGreedy, BaselineKind::kGriewankLogN,
          BaselineKind::kApSqrtN, BaselineKind::kApGreedy,
          BaselineKind::kLinearizedSqrtN, BaselineKind::kLinearizedGreedy}) {
      for (const auto& s : baseline_schedules(p, kind)) {
        auto sim = simulate_plan(p, generate_execution_plan(p, s.solution));
        EXPECT_TRUE(sim.valid)
            << to_string(kind) << " " << s.label << ": " << sim.error;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The seed portfolio (best_seed).

// The portfolio written out independently of best_seed, in walk order.
std::vector<RematSolution> reference_portfolio(const RematProblem& p,
                                               double budget_bytes) {
  std::vector<RematSolution> out;
  for (auto kind :
       {BaselineKind::kCheckpointAll, BaselineKind::kChenSqrtN,
        BaselineKind::kLinearizedSqrtN, BaselineKind::kLinearizedGreedy,
        BaselineKind::kApGreedy})
    for (auto& bs : baseline_schedules(p, kind))
      out.push_back(std::move(bs.solution));
  const double headroom = budget_bytes - p.fixed_overhead;
  for (double frac : {0.95, 0.85, 0.75, 0.6, 0.45, 0.3, 0.2, 0.12, 0.06, 0.03})
    out.push_back(budget_aware_schedule(p, frac * headroom));
  return out;
}

// The exhaustive rule best_seed must reproduce: the cheapest candidate
// within the cap that `accept` admits, the first one on ties.
std::optional<RematSolution> reference_best(
    const RematProblem& p, double budget_bytes,
    const std::optional<double>& cost_cap,
    const std::function<bool(const RematSolution&)>& accept) {
  std::optional<RematSolution> best;
  for (auto& sol : reference_portfolio(p, budget_bytes)) {
    const double cost = sol.compute_cost(p);
    if (cost_cap && cost > *cost_cap + 1e-9 * std::max(1.0, *cost_cap))
      continue;
    if (!accept(sol)) continue;
    if (!best || cost < best->compute_cost(p)) best = std::move(sol);
  }
  return best;
}

struct SeedCase {
  std::string name;
  RematProblem problem;
  std::vector<double> budgets;
};

// Zoo models and unit chains, each at three budgets spread between the
// structural memory floor and the checkpoint-all peak.
std::vector<SeedCase> seed_cases() {
  std::vector<SeedCase> cases;
  auto add = [&](std::string name, RematProblem p) {
    const double floor = p.memory_floor();
    const double peak = peak_memory_usage(p, checkpoint_all_schedule(p));
    std::vector<double> budgets;
    for (double f : {0.1, 0.4, 0.8}) budgets.push_back(floor + f * (peak - floor));
    cases.push_back({std::move(name), std::move(p), std::move(budgets)});
  };
  add("vgg16", vgg_problem(2));
  add("unet", unet_problem(1));
  add("unit_training_chain(8)", RematProblem::unit_training_chain(8));
  add("unit_training_chain(16)", RematProblem::unit_training_chain(16));
  return cases;
}

// Every candidate best_seed offers, in order: with nothing ever admitted,
// `accept` sees each candidate within the cap.
std::vector<RematSolution> offered_candidates(const RematProblem& p,
                                              double budget_bytes) {
  std::vector<RematSolution> seen;
  EXPECT_FALSE(best_seed(p, budget_bytes, std::nullopt,
                         [&](const RematSolution& sol) {
                           seen.push_back(sol);
                           return false;
                         }));
  return seen;
}

TEST(BestSeed, WalksThePortfolioInOrder) {
  for (const auto& c : seed_cases()) {
    for (double budget : c.budgets) {
      const auto seen = offered_candidates(c.problem, budget);
      const auto want = reference_portfolio(c.problem, budget);
      ASSERT_EQ(seen.size(), want.size()) << c.name;
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(seen[k].R, want[k].R) << c.name << " candidate " << k;
        EXPECT_EQ(seen[k].S, want[k].S) << c.name << " candidate " << k;
      }
    }
  }
}

TEST(BestSeed, MatchesExhaustiveReference) {
  for (const auto& c : seed_cases()) {
    const RematProblem& p = c.problem;
    const std::optional<double> eq10_cap =
        2.0 * p.forward_cost() + p.backward_cost();
    for (double budget : c.budgets) {
      for (const auto& cap : {std::optional<double>{}, eq10_cap}) {
        auto fits = [&](const RematSolution& sol) {
          return evaluate_schedule_against(p, sol, budget).feasible;
        };
        const auto got = best_seed(p, budget, cap, fits);
        const auto want = reference_best(p, budget, cap, fits);
        ASSERT_EQ(got.has_value(), want.has_value())
            << c.name << " budget " << budget;
        if (!got) continue;
        EXPECT_EQ(got->R, want->R) << c.name << " budget " << budget;
        EXPECT_EQ(got->S, want->S) << c.name << " budget " << budget;
      }
    }
  }
}

TEST(BestSeed, AcceptSeesOnlyStrictlyCheaperCandidates) {
  for (const auto& c : seed_cases()) {
    const RematProblem& p = c.problem;
    for (double budget : c.budgets) {
      double best_admitted = std::numeric_limits<double>::infinity();
      std::optional<RematSolution> last_admitted;
      int calls = 0;
      const auto got =
          best_seed(p, budget, std::nullopt, [&](const RematSolution& sol) {
            ++calls;
            const double cost = sol.compute_cost(p);
            EXPECT_LT(cost, best_admitted) << c.name;
            if (peak_memory_usage(p, sol) > budget) return false;
            best_admitted = cost;
            last_admitted = sol;
            return true;
          });
      EXPECT_GT(calls, 0);
      ASSERT_EQ(got.has_value(), last_admitted.has_value()) << c.name;
      if (got) {
        EXPECT_EQ(got->R, last_admitted->R);
        EXPECT_EQ(got->S, last_admitted->S);
      }
    }
  }
}

TEST(BestSeed, CostCapExcludesOverCapAndKeepsWithinTolerance) {
  const auto p = RematProblem::unit_training_chain(8);
  const double budget = 0.5 * (p.memory_floor() +
                               peak_memory_usage(p, checkpoint_all_schedule(p)));
  auto admit_all = [](const RematSolution&) { return true; };
  const auto cheapest = best_seed(p, budget, std::nullopt, admit_all);
  ASSERT_TRUE(cheapest);
  const double c = cheapest->compute_cost(p);
  ASSERT_GT(c, 1.0);  // the tolerance is relative above cost 1

  // Within 1e-9 relative of the cap: kept.
  const auto kept = best_seed(p, budget, c / (1.0 + 0.5e-9), admit_all);
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept->compute_cost(p), c);
  // Beyond the tolerance: excluded, and since it was the cheapest
  // candidate nothing else fits under the cap either.
  EXPECT_FALSE(best_seed(p, budget, c / (1.0 + 1e-8), admit_all));
  // A cap equal to the cheapest cost keeps it.
  const auto capped = best_seed(p, budget, c, admit_all);
  ASSERT_TRUE(capped);
  EXPECT_EQ(capped->R, cheapest->R);
}

TEST(BestSeed, NothingAcceptedIsNullopt) {
  const auto p = RematProblem::unit_training_chain(8);
  EXPECT_FALSE(best_seed(p, 10.0, std::nullopt,
                         [](const RematSolution&) { return false; }));
  // No candidate fits a budget below the structural memory floor.
  const double budget = 0.5 * p.memory_floor();
  EXPECT_FALSE(best_seed(p, budget, std::nullopt, [&](const RematSolution& s) {
    return evaluate_schedule_against(p, s, budget).feasible;
  }));
}

TEST(BestSeed, SimulatedCostEqualsComputeCost) {
  // best_seed ranks by compute_cost and the heuristic rung serves the
  // simulator's total_cost; cheapest-first with an early exit picks the
  // rung's plan only if the two agree exactly on every candidate.
  for (const auto& c : seed_cases()) {
    for (double budget : c.budgets) {
      for (const auto& sol : reference_portfolio(c.problem, budget)) {
        const auto eval = evaluate_schedule_against(c.problem, sol, 0.0);
        ASSERT_TRUE(eval.feasible) << c.name << ": " << eval.message;
        EXPECT_EQ(eval.cost, sol.compute_cost(c.problem)) << c.name;
      }
    }
  }
}

}  // namespace
}  // namespace checkmate::baselines
