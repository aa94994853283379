#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/baselines.h"

namespace checkmate {

Scheduler::Scheduler(RematProblem problem) : problem_(std::move(problem)) {
  problem_.validate();
}

ScheduleResult evaluate_schedule_against(const RematProblem& problem,
                                         const RematSolution& sol,
                                         double budget_bytes) {
  ScheduleResult res;
  res.solution = sol;
  const std::string err = sol.check_feasible(problem);
  if (!err.empty()) {
    res.message = "schedule infeasible: " + err;
    return res;
  }
  res.plan = generate_execution_plan(problem, sol);
  SimulatorOptions sim_opts;
  sim_opts.budget_bytes = budget_bytes;
  res.sim = simulate_plan(problem, res.plan, sim_opts);
  if (!res.sim.valid) {
    res.message = "simulation failed: " + res.sim.error;
    return res;
  }
  res.cost = res.sim.total_cost;
  res.overhead = res.cost / problem.total_cost_all_nodes();
  res.peak_memory = res.sim.peak_memory;
  res.feasible = true;
  return res;
}

ScheduleResult Scheduler::evaluate_schedule(const RematSolution& sol,
                                            double budget_bytes) const {
  return evaluate_schedule_against(problem_, sol, budget_bytes);
}

namespace {

// The optimal-ILP path over a formulation built for the query budget.
ScheduleResult solve_formulation(const IlpFormulation& form,
                                 const IlpSolveOptions& options,
                                 double known_lower_bound_cost) {
  const RematProblem& problem = form.problem();
  const double budget_bytes = form.options().budget_bytes;
  const bool partitioned = form.options().partitioned;

  milp::MilpOptions mopts;
  mopts.time_limit_sec = options.time_limit_sec;
  mopts.relative_gap = options.relative_gap;
  mopts.branch_priority = form.branch_priorities();
  mopts.stop_at_first_incumbent = options.stop_at_first_incumbent;
  // Branch & cut: hand the solver the formulation's knapsack view of the
  // memory rows. The structure outlives the solve (stack scope below) and
  // survives presolve and root-fixing tightenings (capacities are read from
  // the live U upper bounds at separation time).
  const milp::FormulationStructure cut_structure = form.cut_structure();
  mopts.cut_structure = &cut_structure;
  if (options.max_lp_iterations > 0)
    mopts.max_lp_iterations = options.max_lp_iterations;
  if (options.max_nodes > 0) mopts.max_nodes = options.max_nodes;
  mopts.num_threads = options.num_threads;
  mopts.deadline = options.deadline;
  mopts.cancel = options.cancel;
  if (known_lower_bound_cost != -lp::kInf)
    mopts.known_lower_bound = form.scale_cost(known_lower_bound_cost);

  // Seed branch & bound with the cheapest seed-portfolio schedule that
  // assembles into the formulation, so bound pruning is active from the
  // root (Section 6.2: the ILP's feasible set is a superset of every
  // baseline's). An already-expired deadline skips the pass: the search
  // terminates at its first barrier anyway and the caller's fallback
  // ladder supplies the heuristic plan.
  if (partitioned && options.use_rounding_heuristic &&
      !options.deadline.expired() && !options.cancel.cancelled()) {
    std::optional<std::vector<double>> seed;
    baselines::best_seed(problem, budget_bytes, form.options().cost_cap,
                         [&](const RematSolution& sol) {
                           auto x = form.assemble_assignment(sol);
                           if (!x) return false;
                           seed = std::move(*x);
                           return true;
                         });
    if (seed) mopts.initial_solutions.push_back(std::move(*seed));
  }

  milp::IncumbentHeuristic heuristic;
  if (options.use_rounding_heuristic && partitioned) {
    heuristic = [&form, &problem](const std::vector<double>& x)
        -> std::optional<std::vector<double>> {
      // Multi-threshold two-phase rounding: tighter thresholds checkpoint
      // less and fit tighter budgets.
      const auto s_star = form.extract_fractional_s(x);
      std::optional<std::vector<double>> best;
      double best_cost = lp::kInf;
      for (double threshold : {0.5, 0.75, 0.9}) {
        RoundingOptions ropts;
        ropts.threshold = threshold;
        RematSolution rounded = two_phase_round(problem.graph, s_star, ropts);
        const double cost = rounded.compute_cost(problem);
        if (cost >= best_cost) continue;
        if (auto assignment = form.assemble_assignment(rounded)) {
          best = std::move(assignment);
          best_cost = cost;
        }
      }
      return best;
    };
  }

  const milp::MilpResult mres = milp::solve_milp(form.lp(), mopts, heuristic);

  // A partitioned solution is validated end to end by the simulator; the
  // search counters ride along on every path.
  ScheduleResult res;
  if (partitioned && mres.has_solution())
    res = evaluate_schedule_against(problem, form.extract_solution(mres.x),
                                    budget_bytes);
  res.milp_status = mres.status;
  static_cast<lp::SolveStats&>(res) = mres;
  res.seconds = mres.seconds;
  res.best_bound = form.unscale_cost(mres.best_bound);
  res.root_relaxation = form.unscale_cost(mres.root_relaxation);
  if (!mres.has_solution()) {
    res.message = std::string("MILP: ") + milp::to_string(mres.status);
    // A completed dense search proves the instance itself infeasible. The
    // interval backend is a restriction of the dense feasible set, so its
    // infeasibility proves nothing about the problem -- leave it untyped
    // and let callers fall back (heuristics may still fit the budget).
    if (mres.status == milp::MilpStatus::kInfeasible &&
        options.formulation == IlpFormulationKind::kDense) {
      res.proven_infeasible = true;
      res.memory_floor_bytes = problem.memory_floor();
    }
  } else if (!partitioned) {
    // Unpartitioned schedules are not frontier-advancing; report objective
    // only (used by the Appendix A study).
    res.feasible = true;
    res.cost = form.unscale_cost(mres.objective);
    res.overhead = res.cost / problem.total_cost_all_nodes();
    res.message = "unpartitioned: objective only";
  }
  return res;
}

}  // namespace

ScheduleResult solve_optimal_ilp(const RematProblem& problem,
                                 double budget_bytes,
                                 const IlpSolveOptions& options,
                                 double known_lower_bound_cost) {
  if (!std::isfinite(budget_bytes))
    throw std::invalid_argument("solve_optimal_ilp: budget must be finite");
  if (budget_bytes < problem.memory_floor()) {
    // No schedule can fit: some operation's working set alone exceeds the
    // budget. Saves branch & bound from grinding on a hopeless proof, and
    // the floor itself is the infeasibility certificate.
    ScheduleResult res;
    res.milp_status = milp::MilpStatus::kInfeasible;
    res.message = "budget below structural memory floor";
    res.proven_infeasible = true;
    res.memory_floor_bytes = problem.memory_floor();
    return res;
  }

  IlpBuildOptions build;
  build.budget_bytes = budget_bytes;
  build.partitioned = options.partitioned;
  build.eliminate_diag_free = options.eliminate_diag_free;
  build.formulation = options.formulation;
  build.cost_cap = options.cost_cap;
  const IlpFormulation form(problem, build);
  return solve_formulation(form, options, known_lower_bound_cost);
}

ScheduleResult Scheduler::solve_optimal_ilp(
    double budget_bytes, const IlpSolveOptions& options) const {
  return checkmate::solve_optimal_ilp(problem_, budget_bytes, options);
}

ScheduleResult Scheduler::solve_lp_rounding(double budget_bytes,
                                            const ApproxOptions& options) const {
  IlpBuildOptions build;
  build.budget_bytes = (1.0 - options.epsilon) * budget_bytes;
  ScheduleResult res;
  if (build.budget_bytes <= 0.0) {
    res.message = "epsilon leaves no budget";
    return res;
  }
  const IlpFormulation form(problem_, build);

  const lp::LpResult rel = lp::solve_lp(form.lp());
  res.seconds = 0.0;
  if (rel.status != lp::LpStatus::kOptimal) {
    res.message = std::string("LP relaxation: ") + lp::to_string(rel.status);
    return res;
  }
  res.root_relaxation = form.unscale_cost(rel.objective);

  const auto s_star = form.extract_fractional_s(rel.x);
  ScheduleResult best;
  auto consider = [&](const RoundingOptions& ropts) {
    RematSolution sol = two_phase_round(problem_.graph, s_star, ropts);
    ScheduleResult eval = evaluate_schedule(sol, budget_bytes);
    if (eval.feasible && (!best.feasible || eval.cost < best.cost))
      best = std::move(eval);
  };
  if (options.randomized) {
    for (int draw = 0; draw < std::max(1, options.samples); ++draw) {
      RoundingOptions ropts;
      ropts.randomized = true;
      ropts.seed = options.seed + static_cast<uint64_t>(draw);
      consider(ropts);
    }
  } else {
    // Deterministic rounding: sweep the threshold. Lower thresholds keep
    // more checkpoints (cheaper, more memory); the sweep picks the
    // cheapest schedule that still fits the *true* budget.
    for (double threshold : {0.25, 0.4, 0.5, 0.65, 0.8, 0.9}) {
      RoundingOptions ropts;
      ropts.threshold = threshold;
      consider(ropts);
    }
  }
  if (!best.feasible) {
    best.message = "no rounded schedule fits the budget";
    best.root_relaxation = res.root_relaxation;
    return best;
  }
  best.root_relaxation = res.root_relaxation;
  best.milp_status = milp::MilpStatus::kFeasible;
  return best;
}

}  // namespace checkmate
