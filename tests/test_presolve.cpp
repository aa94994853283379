// Presolve correctness: fixings, implied bounds and row removal must never
// cut off an integer-feasible point, verified both on hand-built programs
// and against the brute-force oracle on tiny Checkmate instances.
#include "milp/presolve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>

#include "core/ilp_builder.h"
#include "core/rounding.h"
#include "core/solution.h"
#include "milp/milp.h"

namespace checkmate::milp {
namespace {

using lp::kInf;
using lp::LinearProgram;

std::vector<std::pair<int, double>> terms(
    std::initializer_list<std::pair<int, double>> t) {
  return t;
}

MilpOptions bounded(double time_limit_sec = 30.0) {
  MilpOptions opts;
  opts.time_limit_sec = time_limit_sec;
  return opts;
}

TEST(Presolve, SingletonUpperRowFixesBinaryToZero) {
  // x binary, x <= 0: the Checkmate "S forced to 0 by topology" pattern.
  LinearProgram lp;
  int x = lp.add_binary(-1.0);
  lp.add_le(terms({{x, 1.0}}), 0.0);
  auto res = presolve(lp);
  ASSERT_FALSE(res.stats.proven_infeasible);
  EXPECT_EQ(res.lp.lb[x], 0.0);
  EXPECT_EQ(res.lp.ub[x], 0.0);
  EXPECT_EQ(res.stats.vars_fixed, 1);
  // The row is implied by the fixed bounds and must be dropped.
  EXPECT_EQ(res.lp.num_rows(), 0);
  EXPECT_EQ(res.stats.rows_removed, 1);
}

TEST(Presolve, FixingsCascadeThroughChainedRows) {
  // a <= 0, b <= a, c <= b: one round fixes a, later rounds fix b then c.
  LinearProgram lp;
  int a = lp.add_binary(0.0);
  int b = lp.add_binary(0.0);
  int c = lp.add_binary(0.0);
  lp.add_le(terms({{a, 1.0}}), 0.0);
  lp.add_le(terms({{b, 1.0}, {a, -1.0}}), 0.0);
  lp.add_le(terms({{c, 1.0}, {b, -1.0}}), 0.0);
  auto res = presolve(lp);
  ASSERT_FALSE(res.stats.proven_infeasible);
  EXPECT_EQ(res.stats.vars_fixed, 3);
  for (int j : {a, b, c}) EXPECT_EQ(res.lp.ub[j], 0.0);
  EXPECT_EQ(res.lp.num_rows(), 0);
}

TEST(Presolve, IntegerBoundsRoundedInward) {
  // 0.4 <= x <= 2.6 integer: bounds must shrink to [1, 2].
  LinearProgram lp;
  int x = lp.add_var(0.0, 10.0, 1.0, /*integer=*/true);
  lp.add_constraint(terms({{x, 1.0}}), 0.4, 2.6);
  auto res = presolve(lp);
  ASSERT_FALSE(res.stats.proven_infeasible);
  EXPECT_EQ(res.lp.lb[x], 1.0);
  EXPECT_EQ(res.lp.ub[x], 2.0);
}

TEST(Presolve, IntegerHoleProvesInfeasible) {
  // 0.4 <= x <= 0.6 with x integer: no integer fits, presolve proves it
  // without a single simplex iteration.
  LinearProgram lp;
  int x = lp.add_var(0.0, 1.0, 1.0, /*integer=*/true);
  lp.add_constraint(terms({{x, 1.0}}), 0.4, 0.6);
  auto res = presolve(lp);
  EXPECT_TRUE(res.stats.proven_infeasible);
  // And solve_milp must report it identically.
  auto mres = solve_milp(lp, bounded());
  EXPECT_EQ(mres.status, MilpStatus::kInfeasible);
}

TEST(Presolve, ContradictoryRowsProveInfeasible) {
  LinearProgram lp;
  int x = lp.add_var(0.0, 1.0, 1.0);
  int y = lp.add_var(0.0, 1.0, 1.0);
  lp.add_ge(terms({{x, 1.0}, {y, 1.0}}), 3.0);  // max activity is 2
  auto res = presolve(lp);
  EXPECT_TRUE(res.stats.proven_infeasible);
}

TEST(Presolve, RedundantRowRemovedTightRowKept) {
  LinearProgram lp;
  int x = lp.add_var(0.0, 1.0, -1.0);
  int y = lp.add_var(0.0, 1.0, -1.0);
  lp.add_le(terms({{x, 1.0}, {y, 1.0}}), 5.0);  // activity can reach 2 at most
  lp.add_le(terms({{x, 1.0}, {y, 1.0}}), 1.5);  // genuinely binding
  auto res = presolve(lp);
  ASSERT_FALSE(res.stats.proven_infeasible);
  EXPECT_EQ(res.lp.num_rows(), 1);
  EXPECT_EQ(res.lp.row_ub[0], 1.5);
  EXPECT_EQ(res.stats.rows_removed, 1);
}

TEST(Presolve, ImpliedBoundTightensContinuousVariable) {
  // x + y <= 4 with y >= 1 implies x <= 3.
  LinearProgram lp;
  int x = lp.add_var(0.0, 100.0, -1.0);
  int y = lp.add_var(1.0, 2.0, 0.0);
  lp.add_le(terms({{x, 1.0}, {y, 1.0}}), 4.0);
  auto res = presolve(lp);
  ASSERT_FALSE(res.stats.proven_infeasible);
  EXPECT_NEAR(res.lp.ub[x], 3.0, 1e-9);
  EXPECT_GT(res.stats.bounds_tightened, 0);
}

TEST(Presolve, ForcingRowFixesAllParticipants) {
  // x + y >= 2 with x, y binary: only x = y = 1 works.
  LinearProgram lp;
  int x = lp.add_binary(1.0);
  int y = lp.add_binary(1.0);
  lp.add_ge(terms({{x, 1.0}, {y, 1.0}}), 2.0);
  auto res = presolve(lp);
  ASSERT_FALSE(res.stats.proven_infeasible);
  EXPECT_EQ(res.lp.lb[x], 1.0);
  EXPECT_EQ(res.lp.lb[y], 1.0);
  EXPECT_EQ(res.stats.vars_fixed, 2);
}

TEST(Presolve, ClampUpperBounds) {
  LinearProgram prog;
  prog.add_var(0.0, 10.0, 1.0);
  prog.add_var(2.0, 10.0, 1.0);
  prog.add_var(0.0, 1.0, 1.0);
  const int vars[] = {0, 1};
  EXPECT_TRUE(clamp_upper_bounds(prog, vars, 4.0));
  EXPECT_DOUBLE_EQ(prog.ub[0], 4.0);
  EXPECT_DOUBLE_EQ(prog.ub[1], 4.0);
  EXPECT_DOUBLE_EQ(prog.ub[2], 1.0);  // not listed: untouched
  // Clamping below a lower bound proves infeasibility.
  EXPECT_FALSE(clamp_upper_bounds(prog, vars, 1.0));
}

TEST(Presolve, ChecksmateFormulationShrinksButKeepsOptimum) {
  // The partitioned Checkmate ILP carries structurally-forced variables
  // (diagonal R fixings, topology-killed S entries). Presolve must find a
  // non-trivial reduction and leave the optimum untouched.
  auto p = RematProblem::unit_training_chain(4);  // n = 9
  IlpBuildOptions build;
  build.budget_bytes = 6.0;
  IlpFormulation f(p, build);

  auto pre = presolve(f.lp());
  ASSERT_FALSE(pre.stats.proven_infeasible);
  EXPECT_GT(pre.stats.vars_fixed, 0);
  EXPECT_GT(pre.stats.rows_removed, 0);
  EXPECT_LT(pre.lp.num_rows(), f.lp().num_rows());

  MilpOptions on = bounded(), off = bounded();
  on.presolve = true;
  off.presolve = false;
  auto r_on = solve_milp(f.lp(), on);
  auto r_off = solve_milp(f.lp(), off);
  ASSERT_EQ(r_on.status, MilpStatus::kOptimal);
  ASSERT_EQ(r_off.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r_on.objective, r_off.objective, 1e-6);
}

TEST(Presolve, CascadeAgainstRowOrderTakesOneRoundPerLink) {
  // x[k-1] <= x[k-2] <= ... <= x[0] <= 0 with the rows laid out from the
  // far end of the chain: each round's sweep reaches the fixing of x[i]
  // only after the row of x[i+1] has gone by, so the worklist must carry
  // every link into the next round. k links take k rounds plus one that
  // finds nothing; past kMaxRounds (16) the cascade stops where it got to.
  for (int k : {6, 20}) {
    LinearProgram lp;
    std::vector<int> x(k);
    for (int i = 0; i < k; ++i) x[i] = lp.add_binary(0.0);
    for (int i = k - 2; i >= 0; --i)
      lp.add_le(terms({{x[i + 1], 1.0}, {x[i], -1.0}}), 0.0);
    lp.add_le(terms({{x[0], 1.0}}), 0.0);
    auto res = presolve(lp);
    ASSERT_FALSE(res.stats.proven_infeasible);
    const int fixed = std::min(k, 16);
    EXPECT_EQ(res.stats.rounds, std::min(k + 1, 16)) << "k " << k;
    EXPECT_EQ(res.stats.vars_fixed, fixed) << "k " << k;
    EXPECT_EQ(res.stats.rows_removed, fixed) << "k " << k;
    EXPECT_EQ(res.lp.num_rows(), k - fixed) << "k " << k;
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(res.lp.lb[x[i]], 0.0);
      EXPECT_EQ(res.lp.ub[x[i]], i < fixed ? 0.0 : 1.0) << "k " << k << " i " << i;
    }
  }
}

TEST(Presolve, UnitChainIntervalReductionsArePinned) {
  // The deep-chain interval LPs: one fixing per stage plus the frontier,
  // in three rounds. A worklist that drops a dirty row stops short here.
  for (int n : {40, 180}) {
    IlpBuildOptions build;
    build.budget_bytes = 6.0;
    build.formulation = IlpFormulationKind::kInterval;
    IlpFormulation f(RematProblem::unit_chain(n), build);
    auto res = presolve(f.lp());
    ASSERT_FALSE(res.stats.proven_infeasible);
    EXPECT_EQ(res.stats.rounds, 3) << "n " << n;
    EXPECT_EQ(res.stats.rows_removed, n) << "n " << n;
    EXPECT_EQ(res.stats.vars_fixed, n + 1) << "n " << n;
    EXPECT_EQ(res.stats.bounds_tightened, n) << "n " << n;
    EXPECT_EQ(res.lp.num_rows(), f.lp().num_rows() - n) << "n " << n;
  }
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void expect_same_stats(const PresolveStats& a, const PresolveStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.vars_fixed, b.vars_fixed);
  EXPECT_EQ(a.bounds_tightened, b.bounds_tightened);
  EXPECT_EQ(a.rows_removed, b.rows_removed);
  EXPECT_EQ(a.proven_infeasible, b.proven_infeasible);
}

// Bounds, row ranges and entries, bit for bit; `sorted` first orders the
// entries by (row, col).
void expect_same_output(const PresolveResult& a, const PresolveResult& b,
                        bool sorted = false) {
  expect_same_stats(a.stats, b.stats);
  EXPECT_TRUE(same_bytes(a.lp.lb, b.lp.lb));
  EXPECT_TRUE(same_bytes(a.lp.ub, b.lp.ub));
  EXPECT_TRUE(same_bytes(a.lp.row_lb, b.lp.row_lb));
  EXPECT_TRUE(same_bytes(a.lp.row_ub, b.lp.row_ub));
  EXPECT_EQ(a.lp.obj, b.lp.obj);
  EXPECT_EQ(a.lp.is_integer, b.lp.is_integer);
  auto key = [](const lp::Triplet& t) {
    uint64_t bits;
    std::memcpy(&bits, &t.value, sizeof bits);
    return std::make_tuple(t.row, t.col, bits);
  };
  std::vector<std::tuple<int, int, uint64_t>> ea, eb;
  for (const lp::Triplet& t : a.lp.entries) ea.push_back(key(t));
  for (const lp::Triplet& t : b.lp.entries) eb.push_back(key(t));
  if (sorted) {
    std::sort(ea.begin(), ea.end());
    std::sort(eb.begin(), eb.end());
  }
  EXPECT_EQ(ea, eb);
}

TEST(Presolve, SplitDuplicateEntriesMatchPreMergedOnes) {
  // The same program twice: once with every coefficient in one entry, once
  // with coefficients split across duplicate entries and a column (y) whose
  // entries cancel. Merging sums each column into its first appearance and
  // drops the zero sum, so both presolve to the same bits.
  auto build = [](bool split) {
    LinearProgram lp;
    const int x = lp.add_var(0.0, 10.0, -1.0);
    const int y = lp.add_var(0.0, 4.0, 1.0);
    const int z = lp.add_binary(0.0);
    const int w = lp.add_var(0.0, 8.0, -1.0, /*integer=*/true);
    if (split) {
      lp.add_le(terms({{x, 1.0}, {y, 1.0}, {z, -1.0}, {x, 2.0}, {y, -1.0}}),
                6.0);
      lp.add_le(terms({{w, 0.5}, {x, 0.25}, {w, 1.5}, {x, 0.25}}), 5.0);
      lp.add_ge(terms({{z, 1.0}, {y, 2.0}, {y, -2.0}}), 1.0);
    } else {
      lp.add_le(terms({{x, 3.0}, {z, -1.0}}), 6.0);
      lp.add_le(terms({{w, 2.0}, {x, 0.5}}), 5.0);
      lp.add_ge(terms({{z, 1.0}}), 1.0);
    }
    return lp;
  };
  const auto merged = presolve(build(false));
  const auto split = presolve(build(true));
  // z >= 1 fixes z; then x <= 7/3 makes the first row redundant, and the
  // second row rounds w down to 2 and stays.
  ASSERT_FALSE(merged.stats.proven_infeasible);
  EXPECT_EQ(merged.stats.rows_removed, 2);
  EXPECT_EQ(merged.lp.num_rows(), 1);
  EXPECT_EQ(merged.lp.ub[3], 2.0);
  expect_same_output(merged, split);
}

TEST(Presolve, TripletOrderDoesNotChangeDyadicOutput) {
  // With dyadic coefficients and bounds every activity sum is exact, so the
  // reductions cannot depend on the order a row's entries are summed in.
  // A full shuffle of the triplets must give the same bounds, stats and
  // entry set; a shuffle that keeps each row's entries in order (only the
  // rows interleave differently) must give the same bits, entry order
  // included.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>(state >> 33);
  };
  constexpr double kCoefs[] = {-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0};
  for (int trial = 0; trial < 20; ++trial) {
    LinearProgram lp;
    const int n = 24;
    for (int j = 0; j < n; ++j) {
      if (j % 3 == 0)
        lp.add_var(0.0, 8.0 + j % 5, 1.0);
      else
        lp.add_binary(-1.0);
    }
    for (int r = 0; r < 30; ++r) {
      std::vector<std::pair<int, double>> row;
      const int len = 2 + next() % 4;
      for (int e = 0; e < len; ++e)
        row.push_back({(r + 5 * e + next() % 3) % n, kCoefs[next() % 8]});
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                row.end());
      const double rhs = 0.5 * (next() % 9);
      if (r % 2)
        lp.add_le(row, rhs);
      else
        lp.add_ge(row, -rhs);
    }
    const auto base = presolve(lp);
    ASSERT_FALSE(base.stats.proven_infeasible) << "trial " << trial;
    EXPECT_GT(base.stats.rows_removed + base.stats.bounds_tightened, 0)
        << "trial " << trial;

    LinearProgram shuffled = lp;
    for (size_t i = shuffled.entries.size(); i > 1; --i)
      std::swap(shuffled.entries[i - 1], shuffled.entries[next() % i]);
    expect_same_output(base, presolve(shuffled), /*sorted=*/true);

    // Interleave: deal rows' entries out round-robin, row order kept.
    LinearProgram dealt = lp;
    dealt.entries.clear();
    std::vector<std::vector<lp::Triplet>> by_row(lp.num_rows());
    for (const lp::Triplet& t : lp.entries) by_row[t.row].push_back(t);
    for (size_t e = 0; dealt.entries.size() < lp.entries.size(); ++e)
      for (int r = lp.num_rows() - 1; r >= 0; --r)
        if (e < by_row[r].size()) dealt.entries.push_back(by_row[r][e]);
    expect_same_output(base, presolve(dealt));
  }
}

// ---------------------------------------------------------------------
// Brute-force oracle corpus (same construction as test_integration.cpp):
// enumerate every lower-triangular S, back-solve minimal R, keep the
// cheapest in-budget schedule. Presolved solves must match it exactly.

double brute_force_cost(const RematProblem& p, double budget) {
  const int n = p.size();
  std::vector<std::pair<int, int>> slots;
  for (int t = 1; t < n; ++t)
    for (int i = 0; i < t; ++i) slots.emplace_back(t, i);
  double best = std::numeric_limits<double>::infinity();
  const int64_t combos = 1LL << slots.size();
  for (int64_t mask = 0; mask < combos; ++mask) {
    BoolMatrix s = make_bool_matrix(n, n);
    for (size_t b = 0; b < slots.size(); ++b)
      if (mask & (1LL << b)) s[slots[b].first][slots[b].second] = 1;
    RematSolution sol;
    sol.S = s;
    sol.R = solve_r_given_s(p.graph, s);
    if (!sol.check_feasible(p).empty()) continue;
    if (peak_memory_usage(p, sol) > budget + 1e-9) continue;
    best = std::min(best, sol.compute_cost(p));
  }
  return best;
}

RematProblem tiny_diamond() {
  RematProblem p;
  p.name = "diamond";
  p.graph = Graph(5);
  p.graph.add_edge(0, 1);
  p.graph.add_edge(0, 2);
  p.graph.add_edge(1, 3);
  p.graph.add_edge(2, 3);
  p.graph.add_edge(3, 4);
  p.graph.add_edge(1, 4);
  p.cost = {1.0, 3.0, 2.0, 1.0, 1.0};
  p.memory = {2.0, 1.0, 1.0, 1.0, 1.0};
  p.is_backward = {0, 0, 0, 0, 1};
  p.grad_of = {-1, -1, -1, -1, 3};
  p.node_names = {"a", "b", "c", "d", "gd"};
  p.validate();
  return p;
}

TEST(Presolve, MatchesBruteForceOracleOnCorpus) {
  struct Instance {
    RematProblem problem;
    std::vector<double> budgets;
  };
  std::vector<Instance> corpus;
  corpus.push_back({RematProblem::unit_training_chain(2), {4.0, 5.0, 6.0}});
  corpus.push_back({tiny_diamond(), {4.0, 5.0, 6.0}});

  for (const Instance& inst : corpus) {
    for (double budget : inst.budgets) {
      const double oracle = brute_force_cost(inst.problem, budget);
      if (!std::isfinite(oracle)) continue;
      IlpBuildOptions build;
      build.budget_bytes = budget;
      IlpFormulation f(inst.problem, build);
      for (bool with_presolve : {true, false}) {
        MilpOptions opts = bounded();
        opts.presolve = with_presolve;
        auto res = solve_milp(f.lp(), opts);
        ASSERT_EQ(res.status, MilpStatus::kOptimal)
            << inst.problem.name << " budget " << budget << " presolve "
            << with_presolve;
        EXPECT_NEAR(f.unscale_cost(res.objective), oracle, 1e-5)
            << inst.problem.name << " budget " << budget << " presolve "
            << with_presolve;
      }
    }
  }
}

}  // namespace
}  // namespace checkmate::milp
