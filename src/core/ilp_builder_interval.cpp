// Retention-interval backend of IlpFormulation (IlpFormulationKind::
// kInterval).
//
// The dense Problem 9 encoding spends almost all of its size on exact
// intra-stage memory accounting: O(n^2) per-step U variables, O(n E) FREE
// deallocation binaries and their hazard linearization rows. On deep graphs
// that machinery dominates the LP (a 240-node chain carries >100k rows) and
// the root relaxation alone blows any reasonable time limit.
//
// The interval backend trades intra-stage free precision for size, the way
// Moccasin trades exact liveness for O(n k) retention intervals. Residency
// is stage-granular: every value computed in stage t (R[t][i] = 1) or
// carried into it (S[t][i] = 1) is charged to stage t's memory row for the
// whole stage. Together with the checkpoint-chaining constraint (1c) --
// S[t][i] <= S[t-1][i] + R[t-1][i] -- the S columns of a value form
// maximal runs, each opened by a (re)computation and closed by a drop:
// exactly the "retained from its (re)computation until stage e" interval
// variables, with the per-stage memory row assembled from interval
// membership:
//
//   U[t] = overhead + sum_i M_i (S[t][i] + R[t][i]),   U[t] <= budget.
//
// One continuous U column and one equality row per stage replace the
// per-step recurrence and the FREE machinery entirely. The budget enters
// only through the U upper bounds, so set_budget() stays a pure bound
// rebind and the formulation cache's budget-sweep reuse carries over
// unchanged.
//
// Soundness: stage-granular residency can only over-count the dense
// per-step usage, so every interval-feasible schedule is dense-feasible at
// the same budget and simulator validation always passes. The converse is
// a restriction -- schedules that rely on eager intra-stage frees (drop a
// checkpoint mid-stage while accumulating new ones) may need a slightly
// larger budget here. The equivalence suite cross-checks proven objectives
// against the dense backend on the whole small-instance corpus, and the
// bench gate (scripts/compare_bench.py) enforces dense-vs-interval
// objective equality on every benched instance.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/ilp_builder.h"

namespace checkmate {

namespace {
using Term = std::pair<int, double>;
}

void IlpFormulation::build_interval() {
  const RematProblem& p = *problem_;
  const int n = p.size();
  if (!opts_.partitioned)
    throw std::invalid_argument(
        "IlpFormulation: the interval backend requires the partitioned "
        "(frontier-advancing) form");

  // Same scaling contract as the dense backend: frozen at construction so
  // set_budget() later touches only the U upper bounds.
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

  // Interval-class pruning. Two ingredients:
  //
  //  (a) Class restriction: backward (gradient) nodes are computed exactly
  //      once, at their own stage -- rematerializing a gradient re-opens
  //      its whole upstream window and is never profitable on the corpus
  //      (the equivalence suite cross-checks the objectives).
  //  (b) Exact dominance within that class: computing or retaining a value
  //      past the last stage at which anything can still read it is
  //      useless. "Can still read" is transitive -- a value may be kept
  //      late solely to feed a *recomputation* of its consumer -- so the
  //      bound is the reach through forward users, cut off at backward
  //      users (which by (a) compute only at their own stage).
  //
  // comp_until[i]: last stage at which R[t][i] may be 1.
  // keep_until[i]: last stage at which S[t][i] may be 1
  //              = latest stage any user of i may compute.
  // Node indices are a topological order, so one reverse sweep suffices.
  // On mirror-structured training graphs this halves both triangles and
  // their chaining rows.
  std::vector<int> comp_until(n), keep_until(n);
  for (int i = n - 1; i >= 0; --i) {
    keep_until[i] = i;
    for (NodeId j : p.graph.users(i))
      keep_until[i] = std::max(keep_until[i], comp_until[j]);
    comp_until[i] = p.is_backward[i] ? i : keep_until[i];
  }

  // ---- Variables: the pruned R/S triangles of the partitioned form plus
  // one stage-residency column U[t]. No per-step U, no FREE.
  r_.assign(n, std::vector<int>(n, -1));
  s_.assign(n, std::vector<int>(n, -1));
  u_.assign(n, std::vector<int>(n, -1));
  free_.assign(n, {});

  for (int t = 0; t < n; ++t) {
    for (int i = 0; i <= t; ++i) {
      if (i != t && t > comp_until[i]) continue;
      const double lb = (i == t) ? 1.0 : 0.0;  // (8a): frontier recomputed
      r_[t][i] = lp_.add_var(lb, 1.0, cost[i], /*integer=*/true);
    }
    for (int i = 0; i < t; ++i) {
      if (t > keep_until[i]) continue;
      s_[t][i] = lp_.add_var(0.0, 1.0, 0.0, /*integer=*/true);
    }
    u_[t][0] = lp_.add_var(0.0, budget, 0.0, /*integer=*/false);
    u_flat_.push_back(u_[t][0]);
  }

  // ---- (1b): R[t][j] <= R[t][i] + S[t][i] for each edge (i, j). Rows are
  // emitted only where R[t][j] survived pruning; the availability terms
  // for the source always exist there (keep_until[src] >= comp_until[dst]
  // by construction), modulo backward sources whose only computation is
  // the diagonal.
  for (int t = 0; t < n; ++t) {
    for (const Edge& e : p.graph.edges()) {
      if (e.dst > t || r_[t][e.dst] < 0) continue;
      std::vector<Term> terms{{r_[t][e.dst], 1.0}};
      if (e.src <= t && r_[t][e.src] >= 0)
        terms.push_back({r_[t][e.src], -1.0});
      if (s_[t][e.src] >= 0) terms.push_back({s_[t][e.src], -1.0});
      lp_.add_le(terms, 0.0);
    }
  }

  // ---- (1c), read as interval chaining: a retention run S[.][i] must be
  // opened by a computation of i and is contiguous until dropped.
  for (int t = 1; t < n; ++t) {
    for (int i = 0; i < t; ++i) {
      if (s_[t][i] < 0) continue;
      std::vector<Term> terms{{s_[t][i], 1.0}};
      if (r_[t - 1][i] >= 0) terms.push_back({r_[t - 1][i], -1.0});
      if (s_[t - 1][i] >= 0) terms.push_back({s_[t - 1][i], -1.0});
      lp_.add_le(terms, 0.0);
    }
  }

  // ---- Stage-residency rows: interval membership priced per stage.
  for (int t = 0; t < n; ++t) {
    std::vector<Term> terms{{u_[t][0], 1.0}};
    for (int i = 0; i < t; ++i)
      if (s_[t][i] >= 0) terms.push_back({s_[t][i], -mem[i]});
    for (int i = 0; i <= t; ++i)
      if (r_[t][i] >= 0) terms.push_back({r_[t][i], -mem[i]});
    lp_.add_eq(terms, overhead);
  }

  // ---- Optional total-cost cap (Eq. 10).
  if (opts_.cost_cap) {
    std::vector<Term> terms;
    for (int t = 0; t < n; ++t)
      for (int i = 0; i <= t; ++i)
        if (r_[t][i] >= 0) terms.push_back({r_[t][i], cost[i]});
    lp_.add_le(terms, *opts_.cost_cap / cost_scale_);
  }
}

milp::FormulationStructure IlpFormulation::cut_structure_interval() const {
  const RematProblem& p = *problem_;
  const int n = p.size();
  milp::FormulationStructure s;

  // Each stage-residency row is already a single 0/1 knapsack over the
  // stage's S/R binaries: sum_i M_i (S[t][i] + R[t][i]) fits under
  // ub(U[t]) - overhead - M_t (R[t][t] is fixed at 1, so its mass folds
  // into the offset). The dependency-strengthened variant additionally
  // folds in the mass of deps(t): (1b) with R[t][t] = 1 forces
  // S[t][i] + R[t][i] >= 1 for every dependency i of the frontier node,
  // so that mass is resident whatever the solution and the remaining
  // items face a strictly tighter capacity.
  for (int t = 0; t < n; ++t) {
    std::vector<uint8_t> is_dep(n, 0);
    double forced = overhead_scaled_ + mem_scaled_[t];
    for (NodeId i : p.graph.deps(t)) {
      is_dep[i] = 1;
      forced += mem_scaled_[i];
    }

    milp::KnapsackRow plain;
    plain.capacity_var = u_[t][0];
    plain.capacity_offset = overhead_scaled_ + mem_scaled_[t];
    milp::KnapsackRow strong;
    strong.capacity_var = u_[t][0];
    strong.capacity_offset = forced;
    for (int i = 0; i < t; ++i) {
      if (mem_scaled_[i] <= 0.0) continue;
      if (s_[t][i] >= 0) plain.items.push_back({s_[t][i], mem_scaled_[i]});
      if (r_[t][i] >= 0) plain.items.push_back({r_[t][i], mem_scaled_[i]});
      if (!is_dep[i]) {
        if (s_[t][i] >= 0) strong.items.push_back({s_[t][i], mem_scaled_[i]});
        if (r_[t][i] >= 0) strong.items.push_back({r_[t][i], mem_scaled_[i]});
      }
    }
    if (plain.items.size() >= 2) s.knapsacks.push_back(std::move(plain));
    if (strong.capacity_offset > plain.capacity_offset + 1e-12 &&
        strong.items.size() >= 2)
      s.knapsacks.push_back(std::move(strong));
  }
  return s;
}

std::optional<std::vector<double>> IlpFormulation::assemble_assignment_interval(
    const RematSolution& sol) const {
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

  // Stage-residency footprint (mirrors the equality row exactly, including
  // the double charge when a value is both carried and redundantly
  // recomputed); reject schedules whose whole-stage resident set busts the
  // budget -- they may still be dense-feasible, the interval class is a
  // restriction and such seeds simply cannot warm-start it.
  for (int t = 0; t < n; ++t) {
    double bytes = p.fixed_overhead;
    for (int i = 0; i < n; ++i) {
      if (i < t && sol.S[t][i]) bytes += p.memory[i];
      if (i <= t && sol.R[t][i]) bytes += p.memory[i];
    }
    if (bytes > opts_.budget_bytes + 1e-6) return std::nullopt;
    x[u_[t][0]] = bytes / mem_scale_;
  }
  return x;
}

}  // namespace checkmate
