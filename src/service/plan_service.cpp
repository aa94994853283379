#include "service/plan_service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "baselines/baselines.h"
#include "store/plan_store.h"

namespace checkmate::service {

namespace {

// A NaN or infinite budget would zero (or poison) every memory coefficient
// of the formulation built for it, and a NaN budget would "prove" a plan
// optimal; it is rejected before any flight or store is touched.
void require_finite_budget(double budget_bytes) {
  if (!std::isfinite(budget_bytes))
    throw std::invalid_argument("PlanService: budget must be finite");
}

ScheduleResult infeasible_result(const char* message) {
  ScheduleResult res;
  res.milp_status = milp::MilpStatus::kInfeasible;
  res.message = message;
  return res;
}

// Re-apportion a finite query deadline across the remaining sweep points:
// with k points left, the next solve gets at most remaining/k, so one slow
// instance cannot starve the rest of the sweep. Inert deadlines pass
// through untouched.
IlpSolveOptions apportion_deadline(const IlpSolveOptions& base,
                                   size_t points_left) {
  if (!base.deadline.finite() || points_left == 0) return base;
  IlpSolveOptions o = base;
  const double share = std::max(0.0, base.deadline.remaining_sec()) /
                       static_cast<double>(points_left);
  o.deadline =
      robust::Deadline::sooner(base.deadline, robust::Deadline::after(share));
  o.time_limit_sec = std::min(o.time_limit_sec, std::max(share, 1e-3));
  return o;
}

// The outcome's certificate: the tighter of `bound` and the compute floor
// (every operation once), and the plan's relative gap to it.
void certify(PlanOutcome& out, const RematProblem& problem, double bound) {
  out.lower_bound = std::max(problem.total_cost_all_nodes(), bound);
  out.gap = std::max(0.0, (out.result.cost - out.lower_bound) /
                              std::max(1e-12, out.result.cost));
}

// Rungs 3-4 of the ladder as a standalone outcome: the cheapest
// seed-portfolio schedule the simulator validates at this budget, or --
// only when none fits -- a non-proof kInfeasible. The portfolio never
// touches the LP machinery, so the rung survives every numerical failure
// and fault schedule the solver can hit, and the query's cost cap (Eq. 10)
// binds here exactly as it binds the MILP. Used both by the ladder tail and
// by admission paths that must answer without a solve (overload shedding,
// a coalesced follower whose deadline expired while waiting).
PlanOutcome heuristic_or_infeasible(const RematProblem& problem,
                                    double budget_bytes,
                                    const IlpSolveOptions& options,
                                    std::string degradation) {
  PlanOutcome out;
  out.memory_floor_bytes = problem.memory_floor();
  std::optional<ScheduleResult> fallback;
  baselines::best_seed(problem, budget_bytes, options.cost_cap,
                       [&](const RematSolution& sol) {
                         ScheduleResult eval = evaluate_schedule_against(
                             problem, sol, budget_bytes);
                         if (!eval.feasible) return false;
                         fallback = std::move(eval);
                         return true;
                       });
  if (fallback) {
    out.provenance = PlanProvenance::kHeuristicFallback;
    out.result = std::move(*fallback);
    out.result.message = "plan service: heuristic fallback";
  } else {
    out.provenance = PlanProvenance::kInfeasible;
    out.result = infeasible_result(
        "no plan found: search failed and no heuristic schedule fits");
  }
  certify(out, problem, -lp::kInf);
  out.why_degraded = std::move(degradation);
  return out;
}

// 64-bit routing key for single-flight: problem fingerprint x shape x
// budget x gap, splitmix-style. Collisions are possible and harmless --
// joiners re-verify the canonical blob and the scalar fields before
// sharing a flight.
uint64_t request_key(uint64_t fingerprint, const store::StoreShape& shape,
                     double budget_bytes, double relative_gap) {
  auto mix = [](uint64_t h, uint64_t v) {
    uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  uint64_t h = fingerprint;
  h = mix(h, (uint64_t(shape.partitioned) << 2) |
                 (uint64_t(shape.eliminate_diag_free) << 1) |
                 uint64_t(shape.has_cost_cap));
  h = mix(h, static_cast<uint64_t>(shape.formulation));
  h = mix(h, std::bit_cast<uint64_t>(shape.cost_cap == 0.0 ? 0.0
                                                           : shape.cost_cap));
  h = mix(h, std::bit_cast<uint64_t>(budget_bytes == 0.0 ? 0.0
                                                         : budget_bytes));
  h = mix(h, std::bit_cast<uint64_t>(relative_gap == 0.0 ? 0.0
                                                         : relative_gap));
  return h;
}

}  // namespace

// One in-flight plan_robust solve (see plan_service.h). `done` flips to
// true exactly once, under `mu`, after `outcome` is fully written; the
// identity fields are immutable after construction.
struct PlanService::Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  PlanOutcome outcome;
  // Request identity beyond the 64-bit routing key:
  std::string blob;  // canonical problem content
  store::StoreShape shape;
  double budget_bytes = 0.0;
  double relative_gap = 0.0;
};

const char* to_string(PlanProvenance provenance) {
  switch (provenance) {
    case PlanProvenance::kProvenOptimal: return "proven_optimal";
    case PlanProvenance::kIncumbent: return "incumbent";
    case PlanProvenance::kHeuristicFallback: return "heuristic_fallback";
    case PlanProvenance::kInfeasible: return "infeasible";
  }
  return "unknown";
}

PlanService::PlanService(PlanServiceOptions options) : opts_(options) {
  // Store construction recovers whatever a previous process left behind
  // (quarantining corrupt records); an unusable directory disables
  // persistence rather than failing the service.
  try {
    store_ = std::make_unique<store::PlanStore>(opts_.store_dir);
  } catch (const std::exception&) {
    store_ = std::make_unique<store::PlanStore>("");
  }
}

PlanService::~PlanService() = default;

PlanOutcome PlanService::plan_robust(const RematProblem& problem,
                                     double budget_bytes,
                                     const IlpSolveOptions& options) {
  require_finite_budget(budget_bytes);
  // Rung 0: a budget below the structural memory floor (some single-stage
  // working set alone exceeds it) is a *proof* of infeasibility -- nothing
  // below can help, so it runs ahead of every admission mechanism (a
  // certificate needs no dedup, no store and no solve slot) and is the
  // only floor check on the query path.
  if (budget_bytes <= 0.0 || budget_bytes < problem.memory_floor()) {
    PlanOutcome out;
    out.memory_floor_bytes = problem.memory_floor();
    out.provenance = PlanProvenance::kInfeasible;
    out.result = infeasible_result("budget below structural memory floor");
    out.result.proven_infeasible = true;
    out.result.memory_floor_bytes = out.memory_floor_bytes;
    out.lower_bound = lp::kInf;
    out.why_degraded = "budget below structural memory floor";
    return out;
  }

  // Single-flight admission: identical concurrent queries coalesce onto
  // one solve. Identity is the full request content -- canonical problem
  // blob, formulation shape, budget, gap -- not just the 64-bit routing
  // key. Queries differing only in solver knobs (deadline, threads) still
  // share: followers keep their own deadline while waiting, and the
  // shared outcome is at least as good as what their knobs would buy.
  const store::StoreShape shape = store::StoreShape::of(options);
  std::string blob = problem.serialize_canonical();
  const uint64_t key = request_key(problem.fingerprint(), shape, budget_bytes,
                                   options.relative_gap);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard lock(admission_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      Flight& f = *it->second;
      if (f.blob == blob && f.shape == shape &&
          f.budget_bytes == budget_bytes &&
          f.relative_gap == options.relative_gap)
        flight = it->second;
      // else: routing-key collision with different content -- solve solo.
    } else {
      flight = std::make_shared<Flight>();
      flight->blob = std::move(blob);
      flight->shape = shape;
      flight->budget_bytes = budget_bytes;
      flight->relative_gap = options.relative_gap;
      inflight_.emplace(key, flight);
      leader = true;
    }
  }

  if (flight && !leader) {
    // Follower: wait for the leader's outcome, but honour this query's
    // own deadline/cancellation -- a 10ms poll bounds the exit latency
    // without a per-deadline timer plumbing.
    std::unique_lock fl(flight->mu);
    while (!flight->done && !options.deadline.expired() &&
           !options.cancel.cancelled())
      flight->cv.wait_for(fl, std::chrono::milliseconds(10));
    if (flight->done) {
      PlanOutcome shared = flight->outcome;
      fl.unlock();
      std::lock_guard lock(stats_mu_);
      ++stats_.single_flight_shared;
      return shared;
    }
    fl.unlock();
    // Deadline/cancel while coalesced: the never-fail contract still
    // holds -- serve the heuristic rung rather than keep waiting.
    return heuristic_or_infeasible(
        problem, budget_bytes, options,
        options.cancel.cancelled()
            ? "query cancelled while coalesced behind an identical in-flight "
              "solve"
            : "deadline expired while coalesced behind an identical in-flight "
              "solve");
  }

  PlanOutcome out = serve_or_solve(problem, budget_bytes, options);

  if (leader) {
    // Publish before erasing the flight: a follower that joined during
    // the solve wakes to `done`; one that arrives after the erase misses
    // the flight but hits the store (the put happened inside
    // serve_or_solve, before this point), so it still does not re-solve.
    {
      std::lock_guard fl(flight->mu);
      flight->outcome = out;
      flight->done = true;
    }
    flight->cv.notify_all();
    std::lock_guard lock(admission_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second == flight) inflight_.erase(it);
  }
  return out;
}

PlanOutcome PlanService::serve_or_solve(const RematProblem& problem,
                                        double budget_bytes,
                                        const IlpSolveOptions& options) {
  const store::StoreShape shape = store::StoreShape::of(options);
  const bool on_disk = !store_->directory().empty();

  // Staircase lookup: a hit is a proven optimum, simulator-validated
  // against this budget (and, for a record loaded from disk, byte-verified
  // against this problem's canonical content), with zero solver work. A
  // miss still yields the best dual bound the staircase implies here.
  double staircase_bound = -lp::kInf;
  if (auto hit = store_->lookup(problem, shape, budget_bytes,
                                options.relative_gap, &staircase_bound)) {
    PlanOutcome out;
    out.memory_floor_bytes = problem.memory_floor();
    out.provenance = PlanProvenance::kProvenOptimal;
    out.result = std::move(*hit);
    certify(out, problem, out.result.best_bound);
    std::lock_guard lock(stats_mu_);
    ++(on_disk ? stats_.store_hits : stats_.warm_start_shortcuts);
    return out;
  }
  if (on_disk) {
    std::lock_guard lock(stats_mu_);
    ++stats_.store_misses;
  }

  // Bounded in-flight admission: take a solve slot or shed to the
  // heuristic rung. Shedding is best-effort -- it must not manufacture an
  // unproven infeasibility, so a query no heuristic can serve takes a
  // slot over the cap rather than failing.
  bool counted_slot = false;
  if (opts_.max_inflight_solves > 0) {
    bool have_slot = false;
    {
      std::lock_guard lock(admission_mu_);
      if (active_solves_ < opts_.max_inflight_solves) {
        ++active_solves_;
        have_slot = counted_slot = true;
      }
    }
    if (!have_slot) {
      PlanOutcome shed = heuristic_or_infeasible(
          problem, budget_bytes, options,
          "admission overload: in-flight solve limit reached, heuristic "
          "fallback served");
      if (shed.provenance == PlanProvenance::kHeuristicFallback) {
        std::lock_guard lock(stats_mu_);
        ++stats_.shed_overload;
        return shed;
      }
      std::lock_guard lock(admission_mu_);
      ++active_solves_;
      counted_slot = true;
    }
  }

  PlanOutcome out;
  try {
    out = plan_robust_ladder(problem, budget_bytes, options, staircase_bound);
  } catch (...) {
    if (counted_slot) {
      std::lock_guard lock(admission_mu_);
      --active_solves_;
    }
    throw;  // the ladder itself never throws; belt and braces
  }
  if (counted_slot) {
    std::lock_guard lock(admission_mu_);
    --active_solves_;
  }

  // Admit proven optima to the staircase before the caller publishes them
  // (plan_robust erases the single-flight entry only after this returns,
  // so late arrivals transition from flight-join to store-hit with no
  // window in which they would re-solve). Only a result that carries its
  // schedule can serve later queries; an unpartitioned solve proves an
  // objective only. Failed writes are absorbed: the in-memory answer
  // stands.
  if (out.provenance == PlanProvenance::kProvenOptimal &&
      out.result.feasible && !out.result.solution.R.empty() &&
      out.result.milp_status == milp::MilpStatus::kOptimal) {
    const bool ok = store_->put(problem, shape, budget_bytes,
                                options.relative_gap, out.result);
    if (on_disk) {
      std::lock_guard lock(stats_mu_);
      ++(ok ? stats_.store_puts : stats_.store_put_failures);
    }
  }
  return out;
}

PlanOutcome PlanService::plan_robust_ladder(const RematProblem& problem,
                                            double budget_bytes,
                                            const IlpSolveOptions& options,
                                            double known_lower_bound) {
  PlanOutcome out;
  out.memory_floor_bytes = problem.memory_floor();

  std::string degradation;
  bool proven_infeasible = false;

  // Rungs 1-2: the MILP, unless the deadline is already gone or the query
  // was cancelled (the search would only burn the fallback's time). Any
  // exception out of the solver stack (injected faults, allocation
  // failure) degrades to the heuristic rung instead of escaping.
  if (options.deadline.expired() || options.cancel.cancelled()) {
    degradation = options.cancel.cancelled()
                      ? "query cancelled before the solve started"
                      : "deadline expired before the solve started";
  } else {
    try {
      // The service thread budget feeds the in-solve parallel tree search
      // unless the caller pinned num_threads explicitly (<= 0 covers both 0
      // and negative requests, which get the service budget, never a path
      // of their own). Either way the answer is identical (epoch-lockstep
      // determinism); only wall-clock time changes.
      IlpSolveOptions solve_options = options;
      if (solve_options.num_threads <= 0)
        solve_options.num_threads = opts_.num_threads;
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.queries;
        ++stats_.formulation_misses;
        ++stats_.presolve_runs;
      }
      ScheduleResult res = solve_optimal_ilp(problem, budget_bytes,
                                             solve_options, known_lower_bound);
      if (res.feasible) {
        out.result = std::move(res);
        certify(out, problem, out.result.best_bound);
        if (out.result.milp_status == milp::MilpStatus::kOptimal) {
          out.provenance = PlanProvenance::kProvenOptimal;
        } else {
          out.provenance = PlanProvenance::kIncumbent;
          out.why_degraded = std::string("search truncated (") +
                             milp::to_string(out.result.milp_status) +
                             "): best incumbent returned";
        }
        return out;
      }
      if (res.proven_infeasible) {
        proven_infeasible = true;
        out.result = std::move(res);
      } else {
        degradation = res.message.empty() ? "MILP returned no plan"
                                          : res.message;
      }
    } catch (const std::exception& e) {
      degradation = std::string("solver failure: ") + e.what();
    }
  }

  // A completed search *proved* no schedule fits; heuristics cannot beat a
  // proof, so skip straight to the certificate.
  if (proven_infeasible) {
    out.provenance = PlanProvenance::kInfeasible;
    out.lower_bound = lp::kInf;
    out.why_degraded = "search proved the budget infeasible";
    return out;
  }

  // Rungs 3-4: heuristic fallback (every candidate simulator-validated
  // against the budget), else a non-proof kInfeasible with the floor as
  // context.
  return heuristic_or_infeasible(problem, budget_bytes, options,
                                 std::move(degradation));
}

std::vector<PlanOutcome> PlanService::sweep_robust(
    const RematProblem& problem, const std::vector<double>& budgets,
    const IlpSolveOptions& options) {
  for (double b : budgets) require_finite_budget(b);
  std::vector<PlanOutcome> out(budgets.size());
  if (budgets.empty()) return out;
  // Descending budget order keeps the staircase effective: each point
  // lands on or under its predecessors' steps -- served outright or solved
  // against their dual bound.
  std::vector<size_t> order(budgets.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return budgets[a] > budgets[b];
  });
  size_t left = order.size();
  for (size_t idx : order) {
    out[idx] =
        plan_robust(problem, budgets[idx], apportion_deadline(options, left));
    --left;
  }
  return out;
}

ServiceStats PlanService::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace checkmate::service
