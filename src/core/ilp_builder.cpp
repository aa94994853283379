#include "core/ilp_builder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace checkmate {

namespace {
using Term = std::pair<int, double>;
}

IlpFormulation::IlpFormulation(const RematProblem& problem,
                               const IlpBuildOptions& options)
    : problem_(&problem), opts_(options) {
  problem.validate();
  // The memory scale is budget / 100: a non-finite budget would zero or
  // poison every memory coefficient.
  if (!(opts_.budget_bytes > 0.0) || !std::isfinite(opts_.budget_bytes))
    throw std::invalid_argument(
        "IlpFormulation: budget must be positive and finite");
  if (opts_.formulation == IlpFormulationKind::kInterval)
    build_interval();
  else
    build();
}

void IlpFormulation::build() {
  const RematProblem& p = *problem_;
  const int n = p.size();
  const bool part = opts_.partitioned;

  // ---- Scaling. Memory in budget-percent units, cost relative to max.
  mem_scale_ = opts_.budget_bytes / 100.0;
  cost_scale_ = 1.0;
  for (double c : p.cost) cost_scale_ = std::max(cost_scale_, c);
  const double budget = opts_.budget_bytes / mem_scale_;  // == 100
  const double overhead = p.fixed_overhead / mem_scale_;
  std::vector<double> mem(n), cost(n);
  for (int v = 0; v < n; ++v) {
    mem[v] = p.memory[v] / mem_scale_;
    cost[v] = p.cost[v] / cost_scale_;
  }
  mem_scaled_ = mem;
  overhead_scaled_ = overhead;

  // ---- Variables.
  r_.assign(n, std::vector<int>(n, -1));
  s_.assign(n, std::vector<int>(n, -1));
  u_.assign(n, std::vector<int>(n, -1));
  free_.assign(n, {});

  for (int t = 0; t < n; ++t) {
    const int r_hi = part ? t : n - 1;
    for (int i = 0; i <= r_hi; ++i) {
      // (8a): R[t][t] fixed to 1 in the partitioned form.
      const double lb = (part && i == t) ? 1.0 : 0.0;
      r_[t][i] = lp_.add_var(lb, 1.0, cost[i], /*integer=*/true);
    }
    // (1d)/(8b): no stage-0 checkpoints; lower-triangular S when partitioned.
    if (t >= 1) {
      const int s_hi = part ? t - 1 : n - 1;
      for (int i = 0; i <= s_hi; ++i)
        s_[t][i] = lp_.add_var(0.0, 1.0, 0.0, /*integer=*/true);
    }
    const int u_hi = part ? t : n - 1;
    for (int k = 0; k <= u_hi; ++k) {
      u_[t][k] = lp_.add_var(0.0, budget, 0.0, /*integer=*/false);
    }
    for (int k = 0; k <= u_hi; ++k) {
      for (NodeId i : p.graph.deps(k)) {
        const int var = lp_.add_var(0.0, 1.0, 0.0, /*integer=*/true);
        free_[t].push_back({i, static_cast<NodeId>(k), var});
      }
      if (!opts_.eliminate_diag_free) {
        const int var = lp_.add_var(0.0, 1.0, 0.0, /*integer=*/true);
        free_[t].push_back({static_cast<NodeId>(k), static_cast<NodeId>(k),
                            var});
      }
    }
  }

  auto r_at = [&](int t, int i) { return r_[t][i]; };
  auto s_at = [&](int t, int i) { return t < n ? s_[t][i] : -1; };

  // ---- (1b): R[t][j] <= R[t][i] + S[t][i] for each edge (i, j).
  for (int t = 0; t < n; ++t) {
    for (const Edge& e : p.graph.edges()) {
      if (r_at(t, e.dst) < 0) continue;  // above diagonal
      std::vector<Term> terms{{r_at(t, e.dst), 1.0}};
      if (r_at(t, e.src) >= 0) terms.push_back({r_at(t, e.src), -1.0});
      if (s_at(t, e.src) >= 0) terms.push_back({s_at(t, e.src), -1.0});
      lp_.add_le(terms, 0.0);
    }
  }

  // ---- (1c): S[t][i] <= R[t-1][i] + S[t-1][i].
  for (int t = 1; t < n; ++t) {
    for (int i = 0; i < n; ++i) {
      if (s_at(t, i) < 0) continue;
      std::vector<Term> terms{{s_at(t, i), 1.0}};
      if (r_at(t - 1, i) >= 0) terms.push_back({r_at(t - 1, i), -1.0});
      if (s_at(t - 1, i) >= 0) terms.push_back({s_at(t - 1, i), -1.0});
      lp_.add_le(terms, 0.0);
    }
  }

  // ---- (1e) for the unpartitioned form: terminal node computed somewhere.
  if (!part) {
    std::vector<Term> terms;
    for (int t = 0; t < n; ++t) terms.push_back({r_at(t, n - 1), 1.0});
    lp_.add_ge(terms, 1.0);
  }

  // ---- Memory accounting (2)-(3) and FREE linearization (7a)-(7c).
  for (int t = 0; t < n; ++t) {
    const int u_hi = opts_.partitioned ? t : n - 1;

    // Group the stage's FREE variables by their user node k.
    std::vector<std::vector<const FreeVar*>> by_k(n);
    for (const FreeVar& fv : free_[t]) by_k[fv.k].push_back(&fv);

    // U[t][0] = overhead + sum_i M_i S[t][i] + M_0 R[t][0].
    {
      std::vector<Term> terms{{u_[t][0], 1.0}};
      for (int i = 0; i < n; ++i)
        if (s_at(t, i) >= 0) terms.push_back({s_at(t, i), -mem[i]});
      if (r_at(t, 0) >= 0) terms.push_back({r_at(t, 0), -mem[0]});
      lp_.add_eq(terms, overhead);
    }
    // U[t][k+1] = U[t][k] - mem_freed_t(v_k) + M_{k+1} R[t][k+1].
    for (int k = 0; k + 1 <= u_hi; ++k) {
      std::vector<Term> terms{{u_[t][k + 1], 1.0}, {u_[t][k], -1.0}};
      for (const FreeVar* fv : by_k[k]) terms.push_back({fv->var, mem[fv->i]});
      terms.push_back({r_at(t, k + 1), -mem[k + 1]});
      lp_.add_eq(terms, 0.0);
    }

    // (7b)-(7c) with num_hazards(t,i,k) =
    //   (1 - R[t][k]) + S[t+1][i] + sum_{j in USERS[i], k < j <= t} R[t][j].
    for (const FreeVar& fv : free_[t]) {
      std::vector<Term> hazard;  // linear part of num_hazards
      double hazard_const = 1.0;  // the "+1" of (1 - R[t][k])
      hazard.push_back({r_at(t, fv.k), -1.0});
      if (t + 1 < n && s_at(t + 1, fv.i) >= 0)
        hazard.push_back({s_at(t + 1, fv.i), 1.0});
      double kappa = 2.0;  // (1-R) and S each contribute at most 1
      for (NodeId j : p.graph.users(fv.i)) {
        if (j <= fv.k) continue;
        if (r_at(t, j) < 0) continue;  // above diagonal: R[t][j] == 0
        hazard.push_back({r_at(t, j), 1.0});
        kappa += 1.0;
      }
      // (7b): 1 - FREE <= hazard  =>  FREE + hazard >= 1.
      {
        std::vector<Term> terms = hazard;
        terms.push_back({fv.var, 1.0});
        lp_.add_ge(terms, 1.0 - hazard_const);
      }
      // (7c): kappa (1 - FREE) >= hazard  =>  kappa*FREE + hazard <= kappa.
      {
        std::vector<Term> terms = hazard;
        terms.push_back({fv.var, kappa});
        lp_.add_le(terms, kappa - hazard_const);
      }
    }
  }

  // ---- Optional total-cost cap (Eq. 10).
  if (opts_.cost_cap) {
    std::vector<Term> terms;
    for (int t = 0; t < n; ++t)
      for (int i = 0; i < n; ++i)
        if (r_at(t, i) >= 0) terms.push_back({r_at(t, i), cost[i]});
    lp_.add_le(terms, *opts_.cost_cap / cost_scale_);
  }
}

milp::FormulationStructure IlpFormulation::cut_structure() const {
  if (opts_.formulation == IlpFormulationKind::kInterval)
    return cut_structure_interval();
  const RematProblem& p = *problem_;
  const int n = p.size();
  milp::FormulationStructure s;

  // Stage-entry knapsacks: U[t][0] = overhead + sum_i M_i S[t][i]
  // + M_0 R[t][0] is an equality, so the binaries on its right-hand side
  // form a knapsack under ub(U[t][0]) - overhead. Valid in both forms.
  for (int t = 0; t < n; ++t) {
    milp::KnapsackRow row;
    row.capacity_var = u_[t][0];
    row.capacity_offset = overhead_scaled_;
    for (int i = 0; i < n; ++i)
      if (s_[t][i] >= 0 && mem_scaled_[i] > 0.0)
        row.items.push_back({s_[t][i], mem_scaled_[i]});
    if (r_[t][0] >= 0 && mem_scaled_[0] > 0.0)
      row.items.push_back({r_[t][0], mem_scaled_[0]});
    if (row.items.size() >= 2) s.knapsacks.push_back(std::move(row));
  }

  // Precedence-strengthened end-of-stage knapsacks (partitioned form
  // only, where R[t][t] == 1 is fixed). At U[t][t] -- just after v_t is
  // computed -- three groups are forcibly resident:
  //   - v_t itself (just computed, freed no earlier than the next step);
  //   - every dependency of t: (1b) forces R[t][i] + S[t][i] >= 1, and the
  //     FREE hazard rows forbid freeing a value before its last in-stage
  //     user, which includes t;
  //   - every value checkpointed into stage t+1: S[t+1][i] = 1 enters the
  //     hazard of every FREE[t][i][k], so i is never freed in stage t.
  // The first two are constants (fold into the capacity offset); the
  // third gives the knapsack items. Strictly tighter than the stage-entry
  // row whenever t has dependencies with nonzero memory.
  if (opts_.partitioned) {
    for (int t = 0; t + 1 < n; ++t) {
      milp::KnapsackRow row;
      row.capacity_var = u_[t][t];
      double forced = overhead_scaled_ + mem_scaled_[t];
      std::vector<uint8_t> is_dep(n, 0);
      for (NodeId i : p.graph.deps(t)) {
        is_dep[i] = 1;
        forced += mem_scaled_[i];
      }
      row.capacity_offset = forced;
      for (int i = 0; i < n; ++i) {
        if (i == t || is_dep[i]) continue;
        if (s_[t + 1][i] >= 0 && mem_scaled_[i] > 0.0)
          row.items.push_back({s_[t + 1][i], mem_scaled_[i]});
      }
      if (row.items.size() >= 2) s.knapsacks.push_back(std::move(row));
    }
  }
  return s;
}

std::vector<int> IlpFormulation::branch_priorities() const {
  std::vector<int> prio(lp_.num_vars(), 0);
  for (const auto& row : s_)
    for (int v : row)
      if (v >= 0) prio[v] = 2;
  for (const auto& row : r_)
    for (int v : row)
      if (v >= 0) prio[v] = 1;
  return prio;
}

RematSolution IlpFormulation::extract_solution(
    const std::vector<double>& x) const {
  const int n = problem_->size();
  RematSolution sol;
  sol.R = make_bool_matrix(n, n);
  sol.S = make_bool_matrix(n, n);
  for (int t = 0; t < n; ++t)
    for (int i = 0; i < n; ++i) {
      if (r_[t][i] >= 0 && x[r_[t][i]] >= 0.5) sol.R[t][i] = 1;
      if (s_[t][i] >= 0 && x[s_[t][i]] >= 0.5) sol.S[t][i] = 1;
    }
  return sol;
}

std::vector<std::vector<double>> IlpFormulation::extract_fractional_s(
    const std::vector<double>& x) const {
  const int n = problem_->size();
  std::vector<std::vector<double>> s(n, std::vector<double>(n, 0.0));
  for (int t = 0; t < n; ++t)
    for (int i = 0; i < n; ++i)
      if (s_[t][i] >= 0) s[t][i] = x[s_[t][i]];
  return s;
}

std::optional<std::vector<double>> IlpFormulation::assemble_assignment(
    const RematSolution& sol) const {
  if (opts_.formulation == IlpFormulationKind::kInterval)
    return assemble_assignment_interval(sol);
  const RematProblem& p = *problem_;
  const int n = p.size();
  if (!sol.check_feasible(p).empty()) return std::nullopt;

  std::vector<double> x(lp_.num_vars(), 0.0);
  for (int t = 0; t < n; ++t)
    for (int i = 0; i < n; ++i) {
      if (r_[t][i] >= 0) x[r_[t][i]] = sol.R[t][i] ? 1.0 : 0.0;
      if (s_[t][i] >= 0) x[s_[t][i]] = sol.S[t][i] ? 1.0 : 0.0;
      if (r_[t][i] < 0 && sol.R[t][i]) return std::nullopt;
      if (s_[t][i] < 0 && sol.S[t][i]) return std::nullopt;
    }

  // FREE per Eq. 5 (hazard counting mirrors the constraint exactly).
  auto s_next = [&](int t, int i) -> uint8_t {
    return t + 1 < n ? sol.S[t + 1][i] : 0;
  };
  for (int t = 0; t < n; ++t) {
    for (const FreeVar& fv : free_[t]) {
      if (!sol.R[t][fv.k] || s_next(t, fv.i)) continue;
      bool hazard = false;
      for (NodeId j : p.graph.users(fv.i))
        if (j > fv.k && j <= t && sol.R[t][j]) {
          hazard = true;
          break;
        }
      if (!hazard) x[fv.var] = 1.0;
    }
  }

  // U via the exact recurrence; reject if over budget.
  const auto usage = compute_memory_usage(p, sol);
  for (int t = 0; t < n; ++t) {
    const int u_hi = opts_.partitioned ? t : n - 1;
    for (int k = 0; k <= u_hi; ++k) {
      // In the partitioned form usage[t] has exactly t+1 entries; in the
      // unpartitioned form U[t][k] for k > t equals U[t][t] (nothing
      // happens after the last computable node -- R above diagonal is not
      // fixed there, so fall back to the last computed value).
      const double bytes =
          k < static_cast<int>(usage[t].size()) ? usage[t][k] : usage[t].back();
      if (bytes > opts_.budget_bytes + 1e-6) return std::nullopt;
      x[u_[t][k]] = bytes / mem_scale_;
    }
  }
  return x;
}

}  // namespace checkmate
