#include "milp/presolve.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace checkmate::milp {

namespace {

// Propagation rounds before giving up on a fixpoint.
constexpr int kMaxRounds = 16;
constexpr double kFeasibilityTol = 1e-9;
constexpr double kIntegralityTol = 1e-6;
// Minimum improvement for a continuous-bound tightening to be recorded
// (avoids churning on epsilon improvements that never fix anything).
constexpr double kMinTighten = 1e-7;

// One row of the flat CSR view: entries [begin, end) of cols/coefs.
struct RowView {
  int begin = 0, end = 0;
  double lb = -lp::kInf, ub = lp::kInf;
  bool removed = false;
};

// Activity range of a row under current bounds, with infinity counting so
// the one-infinite-term residual trick stays O(1) per entry.
struct Activity {
  double min_finite = 0.0, max_finite = 0.0;
  int min_inf = 0, max_inf = 0;

  double min() const { return min_inf ? -lp::kInf : min_finite; }
  double max() const { return max_inf ? lp::kInf : max_finite; }
};

}  // namespace

PresolveResult presolve(const lp::LinearProgram& input) {
  PresolveResult out;
  PresolveStats& stats = out.stats;
  const int n = input.num_vars();
  const int m = input.num_rows();

  std::vector<double> lo = input.lb, hi = input.ub;

  // Row-major CSR view. A stable counting sort by row keeps each row's
  // entries in input order; duplicate columns then merge into their first
  // appearance (summed in input order) and zero sums drop out.
  std::vector<int> cols(input.entries.size());
  std::vector<double> coefs(input.entries.size());
  std::vector<RowView> rows(m);
  {
    std::vector<int> next(m + 1, 0);
    for (const lp::Triplet& t : input.entries) ++next[t.row + 1];
    for (int r = 0; r < m; ++r) next[r + 1] += next[r];
    for (const lp::Triplet& t : input.entries) {
      const int k = next[t.row]++;
      cols[k] = t.col;
      coefs[k] = t.value;
    }
    // next[r] is now the end of row r's sorted run (= start of row r + 1).
    // Merge in place: slot[j] is column j's slot in row r while
    // stamp[j] == r.
    std::vector<int> stamp(n, -1), slot(n);
    int kept = 0, k = 0;
    for (int r = 0; r < m; ++r) {
      RowView& row = rows[r];
      row.lb = input.row_lb[r];
      row.ub = input.row_ub[r];
      row.begin = kept;
      for (; k < next[r]; ++k) {
        const int j = cols[k];
        if (stamp[j] == r) {
          coefs[slot[j]] += coefs[k];
          continue;
        }
        stamp[j] = r;
        slot[j] = kept;
        cols[kept] = j;
        coefs[kept++] = coefs[k];
      }
      int live = row.begin;
      for (int e = row.begin; e < kept; ++e) {
        if (coefs[e] == 0.0) continue;
        cols[live] = cols[e];
        coefs[live++] = coefs[e];
      }
      kept = row.end = live;
    }
    cols.resize(kept);
    coefs.resize(kept);
  }

  // Column -> rows index (rows ascending) for the dirty-row worklist.
  std::vector<int> col_start(n + 1, 0);
  for (int j : cols) ++col_start[j + 1];
  for (int j = 0; j < n; ++j) col_start[j + 1] += col_start[j];
  std::vector<int> col_rows(cols.size());
  {
    std::vector<int> next(col_start.begin(), col_start.end() - 1);
    for (int r = 0; r < m; ++r)
      for (int e = rows[r].begin; e < rows[r].end; ++e)
        col_rows[next[cols[e]]++] = r;
  }
  // A row is re-examined only after a bound of one of its columns moved.
  std::vector<char> dirty(m, 1);

  auto round_integer_bounds = [&](int j, double& new_lo, double& new_hi) {
    if (!input.is_integer[j]) return;
    new_lo = std::ceil(new_lo - kIntegralityTol);
    new_hi = std::floor(new_hi + kIntegralityTol);
  };

  // Tightens one side; returns false on proven infeasibility.
  auto tighten = [&](int j, double new_lo, double new_hi) -> bool {
    round_integer_bounds(j, new_lo, new_hi);
    const double old_lo = lo[j], old_hi = hi[j];
    bool changed = false;
    if (new_lo > lo[j] + kMinTighten) {
      lo[j] = new_lo;
      changed = true;
    }
    if (new_hi < hi[j] - kMinTighten) {
      hi[j] = new_hi;
      changed = true;
    }
    if (lo[j] > hi[j]) {
      if (lo[j] - hi[j] <= kFeasibilityTol * std::max(1.0, std::abs(lo[j]))) {
        lo[j] = hi[j];  // numerically-equal bounds: snap to a fixing
      } else {
        stats.proven_infeasible = true;
        return false;
      }
    }
    if (changed) ++stats.bounds_tightened;
    if (lo[j] != old_lo || hi[j] != old_hi)
      for (int k = col_start[j]; k < col_start[j + 1]; ++k)
        dirty[col_rows[k]] = 1;
    return true;
  };

  auto activity = [&](const RowView& row) {
    Activity a;
    for (int e = row.begin; e < row.end; ++e) {
      const int j = cols[e];
      const double c = coefs[e];
      const double at_min = c > 0 ? lo[j] : hi[j];
      const double at_max = c > 0 ? hi[j] : lo[j];
      if (std::isinf(at_min))
        ++a.min_inf;
      else
        a.min_finite += c * at_min;
      if (std::isinf(at_max))
        ++a.max_inf;
      else
        a.max_finite += c * at_max;
    }
    return a;
  };

  // Rounds sweep the dirty rows in index order: a bound moved by row r
  // dirties the later rows of its columns for this round and the earlier
  // ones (r included) for the next, exactly the rows whose visit a full
  // sweep could change.
  bool changed_this_round = true;
  for (int round = 0; round < kMaxRounds && changed_this_round; ++round) {
    ++stats.rounds;
    changed_this_round = false;
    for (int r = 0; r < m; ++r) {
      RowView& row = rows[r];
      if (!dirty[r] || row.removed) continue;
      dirty[r] = 0;
      const Activity act = activity(row);

      // Infeasible: the reachable activity range misses [lb, ub] entirely.
      if (act.min() > row.ub + kFeasibilityTol ||
          act.max() < row.lb - kFeasibilityTol) {
        stats.proven_infeasible = true;
        break;
      }
      // Redundant: every bound-feasible point satisfies the row.
      if (act.min() >= row.lb - kFeasibilityTol &&
          act.max() <= row.ub + kFeasibilityTol) {
        row.removed = true;
        ++stats.rows_removed;
        changed_this_round = true;
        continue;
      }
      // Forcing: the row is only satisfiable at one extreme of every
      // participating variable -- fix them all and drop the row.
      const bool forces_min =
          !act.min_inf && act.min_finite >= row.ub - kFeasibilityTol;
      const bool forces_max =
          !act.max_inf && act.max_finite <= row.lb + kFeasibilityTol;
      if (forces_min || forces_max) {
        for (int e = row.begin; e < row.end; ++e) {
          const int j = cols[e];
          const double c = coefs[e];
          const bool at_lower = forces_min ? (c > 0) : (c < 0);
          const double v = at_lower ? lo[j] : hi[j];
          if (std::isinf(v)) continue;  // cannot force onto an infinite bound
          if (!tighten(j, v, v)) break;
        }
        if (stats.proven_infeasible) break;
        row.removed = true;
        ++stats.rows_removed;
        changed_this_round = true;
        continue;
      }

      // Implied per-variable bounds from the residual activity.
      for (int e = row.begin; e < row.end; ++e) {
        const int j = cols[e];
        const double c = coefs[e];
        if (lo[j] == hi[j]) continue;

        // Residual min/max of the row without variable j, or +/-inf if some
        // *other* variable contributes an infinity.
        const double at_min = c > 0 ? lo[j] : hi[j];
        const double at_max = c > 0 ? hi[j] : lo[j];
        double res_min = -lp::kInf, res_max = lp::kInf;
        if (act.min_inf == 0)
          res_min = act.min_finite - c * at_min;
        else if (act.min_inf == 1 && std::isinf(at_min))
          res_min = act.min_finite;
        if (act.max_inf == 0)
          res_max = act.max_finite - c * at_max;
        else if (act.max_inf == 1 && std::isinf(at_max))
          res_max = act.max_finite;

        double new_lo = lo[j], new_hi = hi[j];
        if (c > 0) {
          if (!std::isinf(row.ub) && !std::isinf(res_min))
            new_hi = std::min(new_hi, (row.ub - res_min) / c);
          if (!std::isinf(row.lb) && !std::isinf(res_max))
            new_lo = std::max(new_lo, (row.lb - res_max) / c);
        } else {
          if (!std::isinf(row.ub) && !std::isinf(res_min))
            new_lo = std::max(new_lo, (row.ub - res_min) / c);
          if (!std::isinf(row.lb) && !std::isinf(res_max))
            new_hi = std::min(new_hi, (row.lb - res_max) / c);
        }
        const double before_lo = lo[j], before_hi = hi[j];
        if (!tighten(j, new_lo, new_hi)) break;
        if (lo[j] != before_lo || hi[j] != before_hi)
          changed_this_round = true;
      }
      if (stats.proven_infeasible) break;
    }
    if (stats.proven_infeasible) break;
  }

  for (int j = 0; j < n; ++j)
    if (lo[j] == hi[j]) ++stats.vars_fixed;
  if (stats.proven_infeasible) return out;

  // Assemble the reduced program from the CSR view: identical columns,
  // surviving rows only, each row's entries in merged input order.
  lp::LinearProgram& red = out.lp;
  red.obj = input.obj;
  red.lb = std::move(lo);
  red.ub = std::move(hi);
  red.is_integer = input.is_integer;
  size_t nnz = 0;
  for (const RowView& row : rows)
    if (!row.removed) nnz += row.end - row.begin;
  red.row_lb.reserve(m - stats.rows_removed);
  red.row_ub.reserve(m - stats.rows_removed);
  red.entries.reserve(nnz);
  for (const RowView& row : rows) {
    if (row.removed) continue;
    const int i = red.num_rows();
    red.row_lb.push_back(row.lb);
    red.row_ub.push_back(row.ub);
    for (int e = row.begin; e < row.end; ++e)
      red.entries.push_back({i, cols[e], coefs[e]});
  }
  return out;
}

bool clamp_upper_bounds(lp::LinearProgram& lp, std::span<const int> vars,
                        double upper, double feasibility_tol) {
  bool feasible = true;
  for (int j : vars) {
    if (upper >= lp.ub[j]) continue;
    if (lp.lb[j] > upper) {
      if (lp.lb[j] - upper <= feasibility_tol * std::max(1.0, std::abs(upper))) {
        lp.ub[j] = lp.lb[j];  // numerically equal: snap to a fixing
        continue;
      }
      feasible = false;
    }
    lp.ub[j] = upper;
  }
  return feasible;
}

bool raise_lower_bounds(lp::LinearProgram& lp, std::span<const int> vars,
                        double lower, double feasibility_tol) {
  bool feasible = true;
  for (int j : vars) {
    if (lower <= lp.lb[j]) continue;
    if (lp.ub[j] < lower) {
      if (lower - lp.ub[j] <= feasibility_tol * std::max(1.0, std::abs(lower))) {
        lp.lb[j] = lp.ub[j];  // numerically equal: snap to a fixing
        continue;
      }
      feasible = false;
    }
    lp.lb[j] = lower;
  }
  return feasible;
}

}  // namespace checkmate::milp
