// Maximum-batch-size search (Section 6.4, Figure 6).
//
// The paper turns the batch size B into a decision variable, yielding a
// quadratically-constrained MILP. We instead binary-search integral B,
// solving a *linear* feasibility problem per probe: budget constraint with
// the batch-scaled memories and the Eq. 10 cost cap
//
//   sum_t sum_i C_i R[t][i] <= 2 * C(forward) + C(backward),
//
// i.e. at most one extra forward pass of recomputation. Feasibility is
// monotone non-increasing in B, so the search returns the same lower bound
// on the max batch as the paper's formulation (DESIGN.md substitution (b)).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/remat_problem.h"

namespace checkmate {

// Builds the problem instance at a given batch size.
using ProblemFactory = std::function<RematProblem(int64_t batch)>;

// Decides whether some schedule fits budget and cost cap for the instance.
using FeasibilityProbe = std::function<bool(const RematProblem&)>;

struct MaxBatchOptions {
  double budget_bytes = 16.0 * (1ull << 30);  // V100: 16 GB
  int64_t min_batch = 1;
  int64_t max_batch = 1 << 16;
};

struct BatchProbe {
  int64_t batch = 0;
  bool feasible = false;
};

struct MaxBatchResult {
  int64_t max_batch = 0;  // 0: not even min_batch fits
  std::vector<BatchProbe> probes;
  // Typed outcome for the max_batch == 0 case: the min_batch instance
  // itself does not fit. memory_floor_bytes records that instance's
  // structural memory floor (largest single-stage working set, i.e. the
  // checkpoint-nothing minimum) -- when it exceeds the probe's budget the
  // infeasibility is *proven* for every batch size; otherwise the probe
  // merely found no schedule. A probe that throws (numerical failure,
  // injected fault) counts as infeasible rather than escaping the search.
  bool infeasible_at_min_batch = false;
  double min_batch_memory_floor_bytes = 0.0;
};

// Exponential growth + binary search over the feasibility probe. Probes
// are memoized by batch size, so each B is built and solved at most once
// per search and `probes` never contains duplicates.
MaxBatchResult max_batch_size(const ProblemFactory& factory,
                              const FeasibilityProbe& probe,
                              const MaxBatchOptions& options = {});

// Probe backed by the Checkmate MILP in first-incumbent (feasibility) mode,
// with the Eq. 10 cost cap. `budget_bytes` matches MaxBatchOptions. A
// baselines::best_seed schedule within budget and cap answers without a
// solve. Solves are routed through a service::PlanService shared by all
// copies of the returned probe.
FeasibilityProbe make_ilp_probe(double budget_bytes,
                                double per_probe_time_limit_sec = 30.0);

}  // namespace checkmate
