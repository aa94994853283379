#include "dense_simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace checkmate::lp {

namespace {

constexpr double kTol = 1e-9;

// Standard-form problem: min c'x, Ax = b, x >= 0.
struct StandardForm {
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  std::vector<double> c;
  double obj_constant = 0.0;
  // Recovers original variable values from standard-form values.
  // orig_x[j] = shift[j] + sign[j] * x[pos[j]] (+ optional negative part).
  struct VarMap {
    double shift = 0.0;
    double sign = 1.0;
    int pos = -1;
    int neg_pos = -1;  // for free variables split as x+ - x-
  };
  std::vector<VarMap> var_map;
  int num_vars() const { return static_cast<int>(c.size()); }
  int num_rows() const { return static_cast<int>(b.size()); }
};

StandardForm to_standard_form(const LinearProgram& lp) {
  StandardForm sf;
  sf.var_map.resize(lp.num_vars());

  // Rows are built as dense coefficient vectors over standard variables;
  // we add standard variables first, collecting substitutions.
  struct PendingRow {
    std::vector<std::pair<int, double>> terms;  // (std var, coef)
    double rhs = 0.0;
    int type = 0;  // -1: <=, 0: ==, +1: >=
  };
  std::vector<PendingRow> rows;

  auto new_var = [&](double cost) {
    sf.c.push_back(cost);
    return sf.num_vars() - 1;
  };

  for (int j = 0; j < lp.num_vars(); ++j) {
    auto& vm = sf.var_map[j];
    const double lo = lp.lb[j], hi = lp.ub[j];
    if (lo == -kInf && hi == kInf) {
      vm.pos = new_var(lp.obj[j]);
      vm.neg_pos = new_var(-lp.obj[j]);
    } else if (lo != -kInf) {
      // x = lo + x', x' >= 0, optionally x' <= hi - lo.
      vm.shift = lo;
      vm.sign = 1.0;
      vm.pos = new_var(lp.obj[j]);
      sf.obj_constant += lp.obj[j] * lo;
      if (hi != kInf)
        rows.push_back({{{vm.pos, 1.0}}, hi - lo, -1});
    } else {
      // Only upper bound: x = hi - x', x' >= 0.
      vm.shift = hi;
      vm.sign = -1.0;
      vm.pos = new_var(-lp.obj[j]);
      sf.obj_constant += lp.obj[j] * hi;
    }
  }

  // Constraint rows. Ranged rows expand to two one-sided rows.
  std::vector<std::vector<std::pair<int, double>>> row_terms(lp.num_rows());
  for (const Triplet& t : lp.entries) {
    const auto& vm = sf.var_map[t.col];
    row_terms[t.row].emplace_back(vm.pos, t.value * vm.sign);
    if (vm.neg_pos >= 0) row_terms[t.row].emplace_back(vm.neg_pos, -t.value);
  }
  for (int r = 0; r < lp.num_rows(); ++r) {
    double shift = 0.0;
    for (const Triplet& t : lp.entries)
      if (t.row == r) shift += t.value * sf.var_map[t.col].shift;
    const double lo = lp.row_lb[r], hi = lp.row_ub[r];
    if (lo == hi) {
      rows.push_back({row_terms[r], lo - shift, 0});
    } else {
      if (hi != kInf) rows.push_back({row_terms[r], hi - shift, -1});
      if (lo != -kInf) rows.push_back({row_terms[r], lo - shift, +1});
    }
  }

  // Add slack / surplus variables and densify.
  for (auto& row : rows) {
    if (row.type == -1) row.terms.emplace_back(new_var(0.0), 1.0);
    if (row.type == +1) row.terms.emplace_back(new_var(0.0), -1.0);
  }
  sf.a.assign(rows.size(), std::vector<double>(sf.num_vars(), 0.0));
  sf.b.resize(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (auto& [v, coef] : rows[r].terms) sf.a[r][v] += coef;
    sf.b[r] = rows[r].rhs;
    if (sf.b[r] < 0) {
      sf.b[r] = -sf.b[r];
      for (double& v : sf.a[r]) v = -v;
    }
  }
  return sf;
}

// Tableau simplex with Bland's rule on min c'x, Ax=b, x>=0, b>=0.
// Returns false if unbounded.
struct Tableau {
  std::vector<std::vector<double>> rows;  // m x (n+1), last col = rhs
  std::vector<double> cost;               // n+1, last = -objective
  std::vector<int> basis;                 // basic variable per row

  bool pivot_until_optimal(int max_iters) {
    const int n = static_cast<int>(cost.size()) - 1;
    const int m = static_cast<int>(rows.size());
    for (int iter = 0; iter < max_iters; ++iter) {
      int enter = -1;
      for (int j = 0; j < n; ++j)
        if (cost[j] < -kTol) {
          enter = j;  // Bland: smallest index
          break;
        }
      if (enter < 0) return true;
      int leave = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < m; ++i) {
        if (rows[i][enter] > kTol) {
          double ratio = rows[i].back() / rows[i][enter];
          if (leave < 0 || ratio < best_ratio - kTol ||
              (std::abs(ratio - best_ratio) <= kTol &&
               basis[i] < basis[leave])) {
            leave = i;
            best_ratio = ratio;
          }
        }
      }
      if (leave < 0) return false;  // unbounded
      pivot(leave, enter);
    }
    return true;  // iteration cap; caller validates result
  }

  void pivot(int r, int j) {
    const double p = rows[r][j];
    for (double& v : rows[r]) v /= p;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (static_cast<int>(i) == r) continue;
      const double f = rows[i][j];
      if (f == 0.0) continue;
      for (size_t k = 0; k < rows[i].size(); ++k)
        rows[i][k] -= f * rows[r][k];
    }
    const double f = cost[j];
    if (f != 0.0)
      for (size_t k = 0; k < cost.size(); ++k) cost[k] -= f * rows[r][k];
    basis[r] = j;
  }
};

}  // namespace

LpResult solve_dense_reference(const LinearProgram& lp) {
  StandardForm sf = to_standard_form(lp);
  const int n = sf.num_vars();
  const int m = sf.num_rows();

  // Phase 1 with artificial variables.
  Tableau t;
  t.rows.assign(m, std::vector<double>(n + m + 1, 0.0));
  t.basis.resize(m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) t.rows[i][j] = sf.a[i][j];
    t.rows[i][n + i] = 1.0;
    t.rows[i].back() = sf.b[i];
    t.basis[i] = n + i;
  }
  t.cost.assign(n + m + 1, 0.0);
  for (int j = n; j < n + m; ++j) t.cost[j] = 1.0;
  // Price out the artificial basis.
  for (int i = 0; i < m; ++i)
    for (size_t k = 0; k < t.cost.size(); ++k) t.cost[k] -= t.rows[i][k];

  LpResult result;
  const int max_iters = 200000;
  if (!t.pivot_until_optimal(max_iters)) {
    result.status = LpStatus::kNumericalError;
    return result;
  }
  if (-t.cost.back() > 1e-7) {
    result.status = LpStatus::kInfeasible;
    result.objective = kInf;
    return result;
  }
  // Drive artificials out of the basis where possible.
  for (int i = 0; i < m; ++i) {
    if (t.basis[i] < n) continue;
    int j = 0;
    while (j < n && std::abs(t.rows[i][j]) <= kTol) ++j;
    if (j < n) t.pivot(i, j);
    // Otherwise the row is redundant; leave the artificial at zero.
  }

  // Phase 2: real objective, artificial columns forbidden (cost +inf-like).
  t.cost.assign(n + m + 1, 0.0);
  for (int j = 0; j < n; ++j) t.cost[j] = sf.c[j];
  for (int j = n; j < n + m; ++j) t.cost[j] = 1e30;
  for (int i = 0; i < m; ++i) {
    const double f = t.cost[t.basis[i]];
    if (f != 0.0)
      for (size_t k = 0; k < t.cost.size(); ++k)
        t.cost[k] -= f * t.rows[i][k];
  }
  if (!t.pivot_until_optimal(max_iters)) {
    result.status = LpStatus::kUnbounded;
    result.objective = -kInf;
    return result;
  }

  // Extract standard-form solution, then map back.
  std::vector<double> xs(n, 0.0);
  for (int i = 0; i < m; ++i)
    if (t.basis[i] < n) xs[t.basis[i]] = t.rows[i].back();
  result.x.resize(lp.num_vars());
  for (int j = 0; j < lp.num_vars(); ++j) {
    const auto& vm = sf.var_map[j];
    double v = vm.shift + vm.sign * xs[vm.pos];
    if (vm.neg_pos >= 0) v -= xs[vm.neg_pos];
    result.x[j] = v;
  }
  result.status = LpStatus::kOptimal;
  result.objective = lp.objective_value(result.x);
  return result;
}

}  // namespace checkmate::lp
