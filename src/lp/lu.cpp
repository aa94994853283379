#include "lp/lu.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <ranges>

#include "robust/fault_injection.h"

namespace checkmate::lp {

namespace {
constexpr double kPivotTol = 1e-11;
// Forrest-Tomlin stability guards: an update is rejected (forcing a full
// refactorize) when an eliminator multiplier blows up or the replacement
// diagonal is a near-total cancellation.
constexpr double kFtMuMax = 1e8;
constexpr double kFtDiagTol = 1e-10;
// Density switch (Hall and McKinnon 2005): a triangular pass whose
// right-hand side or reach covers more than this fraction of the m steps
// runs the dense loop instead. Both paths give the same bits.
constexpr double kMaxSparseDensity = 0.10;
// Below this many rows every pass is dense: the reach bookkeeping costs
// more than the steps it could skip.
constexpr int kMinSparseRows = 1024;

// Removes the entry keyed by `slot` from a (slot, value) list, preserving
// the order of the remaining entries (list order feeds floating-point
// summation order, which must stay a pure function of the update sequence).
void erase_slot(std::vector<std::pair<int, double>>& list, int slot) {
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].first == slot) {
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}
}  // namespace

bool LuFactorization::factorize(int m, std::span<const BasisColumn> cols) {
  // Chaos tier: an injected LU breakdown reports the basis singular, which
  // exercises the same recovery ladder as a genuinely degenerate basis.
  reset_identity(m);
  if (robust::fault(robust::FaultPoint::kLuFactorize)) return false;
  l_ptr_.assign(1, 0);
  u_ptr_.assign(1, 0);
  u_diag_.assign(m, 0.0);
  pivot_row_.assign(m, -1);

  // row_step_[r] = elimination step whose pivot is row r, or -1.
  row_step_.assign(m, -1);
  std::vector<double> work(m, 0.0);     // dense accumulator for column solve
  std::vector<int> pattern;             // nonzero rows of work
  pattern.reserve(64);
  std::vector<int> topo;                // elimination steps, topo order
  topo.reserve(64);
  std::vector<char> visited(m, 0);      // per-step DFS mark
  std::vector<int> dfs_stack, dfs_pos;  // iterative DFS state

  for (int j = 0; j < m; ++j) {
    // ---- Symbolic: find reachable elimination steps via DFS through L.
    topo.clear();
    pattern.clear();
    auto brows = cols[j].rows;
    auto bvals = cols[j].values;
    for (size_t k = 0; k < brows.size(); ++k) {
      int r = brows[k];
      int step = row_step_[r];
      if (step < 0 || visited[step]) continue;
      // Iterative DFS from `step` over steps reachable through L columns.
      dfs_stack.assign(1, step);
      dfs_pos.assign(1, l_ptr_[step]);
      visited[step] = 1;
      while (!dfs_stack.empty()) {
        int s = dfs_stack.back();
        int& p = dfs_pos.back();
        bool descended = false;
        while (p < l_ptr_[s + 1]) {
          int child = row_step_[l_idx_[p]];
          ++p;
          if (child >= 0 && !visited[child]) {
            visited[child] = 1;
            dfs_stack.push_back(child);
            dfs_pos.push_back(l_ptr_[child]);
            descended = true;
            break;
          }
        }
        if (!descended && !dfs_stack.empty() &&
            dfs_pos.back() >= l_ptr_[dfs_stack.back() + 1]) {
          topo.push_back(dfs_stack.back());
          dfs_stack.pop_back();
          dfs_pos.pop_back();
        }
      }
    }
    // topo holds the reached steps in DFS postorder, where every step comes
    // after all the steps reachable from it through its L column. Walked in
    // reverse it is a topological order: each step is applied only after
    // every step whose elimination updates its pivot row.

    // ---- Numeric: scatter b, then eliminate.
    for (size_t k = 0; k < brows.size(); ++k) work[brows[k]] = bvals[k];

    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      int step = *it;
      visited[step] = 0;  // reset mark for next column
      double piv_val = work[pivot_row_[step]];
      if (piv_val != 0.0) {
        for (int p = l_ptr_[step]; p < l_ptr_[step + 1]; ++p)
          work[l_idx_[p]] -= l_val_[p] * piv_val;
      }
    }

    // ---- Collect pattern: pivoted rows -> U column, unpivoted -> pivot
    // candidates. We must enumerate all rows that may be nonzero: the
    // original pattern plus fill from eliminations.
    pattern.assign(brows.begin(), brows.end());
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      int step = *it;
      pattern.push_back(pivot_row_[step]);
      for (int p = l_ptr_[step]; p < l_ptr_[step + 1]; ++p)
        pattern.push_back(l_idx_[p]);
    }

    // Deduplicate via the work array itself: first pass picks pivot.
    int best_row = -1;
    double best_abs = 0.0;
    for (int r : pattern) {
      if (row_step_[r] >= 0) continue;  // already pivoted: U entry
      double v = std::abs(work[r]);
      if (v > best_abs) {
        best_abs = v;
        best_row = r;
      }
    }
    if (best_row < 0 || best_abs < kPivotTol) {
      // Singular basis: clean the dense work array, then leave the object
      // in a safe identity state so a rogue solve on a failed
      // factorization cannot index with -1 pivot rows.
      reset_identity(m);
      return false;
    }

    // Emit U column j (entries at already-pivoted rows, indexed by step;
    // row dedup handled by zeroing the work array as entries are drained).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      int step = *it;
      int r = pivot_row_[step];
      double v = work[r];
      if (v != 0.0) {
        u_idx_.push_back(step);
        u_val_.push_back(v);
        work[r] = 0.0;
      }
    }
    // Original-pattern rows that were already pivoted but not reached via
    // DFS cannot exist: if work[r] != 0 and row_step_[r] >= 0 the DFS would
    // have visited that step. Remaining nonzeros are unpivoted rows.
    u_ptr_.push_back(static_cast<int>(u_idx_.size()));

    const double pivot = work[best_row];
    u_diag_[j] = pivot;
    pivot_row_[j] = best_row;
    row_step_[best_row] = j;
    work[best_row] = 0.0;

    // Emit L column j: multipliers for remaining unpivoted nonzero rows.
    for (int r : pattern) {
      double v = work[r];
      if (v != 0.0) {
        l_idx_.push_back(r);
        l_val_.push_back(v / pivot);
        work[r] = 0.0;
      }
    }
    l_ptr_.push_back(static_cast<int>(l_idx_.size()));
  }
  build_transposes();
  return true;
}

void LuFactorization::reset_identity(int m) {
  m_ = m;
  l_ptr_.assign(m + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_ptr_.assign(m + 1, 0);
  u_idx_.clear();
  u_val_.clear();
  u_diag_.assign(m, 1.0);
  pivot_row_.resize(m);
  row_step_.resize(m);
  for (int k = 0; k < m; ++k) pivot_row_[k] = row_step_[k] = k;
  lt_ptr_.assign(m + 1, 0);
  lt_idx_.clear();
  ut_ptr_.assign(m + 1, 0);
  ut_idx_.clear();
  // Any accumulated Forrest-Tomlin state is superseded. urows_/ucols_ are
  // dead until ensure_mutable() refills them; their inner vectors keep
  // their capacity for that.
  mutable_u_ = false;
  r_etas_.clear();
  eta_nnz_ = 0;
  u_nnz_ = 0;
  spike_valid_ = false;
  spike_.assign(m, 0.0);
  spike_idx_.clear();
  mark_.assign(m, 0);
  work_.assign(m, 0.0);
}

void LuFactorization::build_transposes() {
  // Counting sort of each factor's entries by the step of their row.
  auto transpose = [&](const std::vector<int>& ptr, const std::vector<int>& idx,
                       auto step_of, std::vector<int>& t_ptr,
                       std::vector<int>& t_idx) {
    t_ptr.assign(m_ + 1, 0);
    for (int e : idx) ++t_ptr[step_of(e) + 1];
    for (int k = 0; k < m_; ++k) t_ptr[k + 1] += t_ptr[k];
    t_idx.resize(idx.size());
    std::vector<int> next(t_ptr.begin(), t_ptr.end() - 1);
    for (int k = 0; k < m_; ++k)
      for (int p = ptr[k]; p < ptr[k + 1]; ++p)
        t_idx[next[step_of(idx[p])]++] = k;
  };
  transpose(l_ptr_, l_idx_, [&](int r) { return row_step_[r]; }, lt_ptr_,
            lt_idx_);
  transpose(u_ptr_, u_idx_, [](int t) { return t; }, ut_ptr_, ut_idx_);
}

int LuFactorization::reach_limit() const {
  if (path_ == Path::kSparse) return m_;
  if (path_ == Path::kDense || m_ < kMinSparseRows) return -1;
  return static_cast<int>(kMaxSparseDensity * m_);
}

template <class NodeOf>
bool LuFactorization::seed_reach(const std::vector<int>& starts,
                                 NodeOf&& node_of) const {
  reach_.clear();
  if (static_cast<int>(starts.size()) > reach_limit()) return false;
  for (int v : starts) reach_add(node_of(v));
  return true;
}

template <class Children>
bool LuFactorization::close_reach(Children&& children) const {
  const int limit = reach_limit();
  bool sparse = static_cast<int>(reach_.size()) <= limit;
  for (size_t i = 0; sparse && i < reach_.size(); ++i) {
    children(reach_[i]);
    sparse = static_cast<int>(reach_.size()) <= limit;
  }
  for (int v : reach_) mark_[v] = 0;
  return sparse;
}

void LuFactorization::sort_reach_by_order(bool descending) const {
  // Static U eliminates in step order; the mutable form in key order.
  if (mutable_u_)
    for (int& s : reach_) s = pos_of_[s];
  if (descending)
    std::sort(reach_.begin(), reach_.end(), std::greater<>());
  else
    std::sort(reach_.begin(), reach_.end());
  if (mutable_u_)
    for (int& key : reach_) key = order_[key];
}

template <class Steps>
void LuFactorization::lower_pass(std::span<double> x,
                                 Steps&& steps) const {
  // Forward eliminate: for each step k in order, subtract multiples of the
  // pivot value from the rows of L column k.
  for (int k : steps) {
    double piv = x[pivot_row_[k]];
    if (piv == 0.0) continue;
    for (int p = l_ptr_[k]; p < l_ptr_[k + 1]; ++p)
      x[l_idx_[p]] -= l_val_[p] * piv;
  }
}

void LuFactorization::lower_solve(WorkVector& x) const {
  const bool sparse =
      seed_reach(x.idx, [&](int r) { return row_step_[r]; }) &&
      close_reach([&](int k) {
        for (int p = l_ptr_[k]; p < l_ptr_[k + 1]; ++p)
          reach_add(row_step_[l_idx_[p]]);
      });
  if (!sparse) {
    lower_pass(x.val, std::views::iota(0, m_));
    x.index_all();
    return;
  }
  std::sort(reach_.begin(), reach_.end());
  lower_pass(x.val, reach_);
  x.idx.clear();
  for (int k : reach_) x.idx.push_back(pivot_row_[k]);
  std::sort(x.idx.begin(), x.idx.end());
}

void LuFactorization::apply_etas(WorkVector& x) const {
  // x := R_k ... R_1 x with R_i = I - e_s mu', applied in row space via
  // pivot_row_. Only the spiked row changes per eta; a row that turns
  // nonzero joins the index list.
  if (r_etas_.empty()) return;
  const size_t listed = x.idx.size();
  const bool all_listed = static_cast<int>(listed) == m_;
  if (!all_listed)
    for (int r : x.idx) mark_[r] = 1;
  for (const RowEta& e : r_etas_) {
    const int r = pivot_row_[e.slot];
    double acc = x.val[r];
    for (const auto& [t, mu] : e.mu) acc -= mu * x.val[pivot_row_[t]];
    if (all_listed || mark_[r]) {
      x.val[r] = acc;
    } else if (acc != 0.0) {
      x.val[r] = acc;
      mark_[r] = 1;
      x.idx.push_back(r);
    }
  }
  if (all_listed) return;
  for (int r : x.idx) mark_[r] = 0;
  if (x.idx.size() > listed) {
    const auto mid = x.idx.begin() + static_cast<std::ptrdiff_t>(listed);
    std::sort(mid, x.idx.end());
    std::inplace_merge(x.idx.begin(), mid, x.idx.end());
  }
}

template <class Steps>
void LuFactorization::upper_pass(std::span<double> x,
                                 Steps&& steps) const {
  if (!mutable_u_) {
    // Back substitute on U, steps descending. x is keyed by pivot row
    // throughout; upper_solve permutes to basis positions afterwards.
    // x_pos[j] = (z[pivot_row_[j]] - sum_{k>j} U[j,k] x_pos[k]) / u_diag_[j]
    // U stored by column: column k holds entries (step j < k, value U[j,k]).
    for (int k : steps) {
      double v = x[pivot_row_[k]] / u_diag_[k];
      // Stash the solved value in place, keyed by pivot row, and scatter
      // contributions of x_pos[k] to earlier steps.
      x[pivot_row_[k]] = v;
      for (int p = u_ptr_[k]; p < u_ptr_[k + 1]; ++p)
        x[pivot_row_[u_idx_[p]]] -= u_val_[p] * v;
    }
  } else {
    // Same back substitution over the mutable form, walking slots in
    // reverse logical elimination order (skipping order_'s tombstones).
    for (int s : steps) {
      if (s < 0) continue;
      const double v = x[pivot_row_[s]] / diag_[s];
      x[pivot_row_[s]] = v;
      if (v != 0.0) {
        for (const auto& [t, u] : ucols_[s]) x[pivot_row_[t]] -= u * v;
      }
    }
  }
}

void LuFactorization::upper_solve(WorkVector& x) const {
  const bool sparse =
      seed_reach(x.idx, [&](int r) { return row_step_[r]; }) &&
      close_reach([&](int s) {
        if (!mutable_u_) {
          for (int p = u_ptr_[s]; p < u_ptr_[s + 1]; ++p) reach_add(u_idx_[p]);
        } else {
          for (const auto& e : ucols_[s]) reach_add(e.first);
        }
      });
  if (!sparse) {
    if (!mutable_u_) {
      upper_pass(x.val, std::views::iota(0, m_) | std::views::reverse);
    } else {
      upper_pass(x.val, order_ | std::views::reverse);
    }
    // Permute from row keyed (x_pos[k] at pivot_row_[k]) to position keyed.
    std::copy(x.val.begin(), x.val.end(), work_.begin());
    for (int k = 0; k < m_; ++k) x.val[k] = work_[pivot_row_[k]];
    std::fill(work_.begin(), work_.end(), 0.0);
    x.index_all();
    return;
  }
  sort_reach_by_order(/*descending=*/true);
  upper_pass(x.val, reach_);
  // The same permutation over the reach: every row holding a nonzero is
  // the pivot row of a reached step.
  for (int k : reach_) work_[k] = x.val[pivot_row_[k]];
  for (int k : reach_) x.val[pivot_row_[k]] = 0.0;
  for (int k : reach_) {
    x.val[k] = work_[k];
    work_[k] = 0.0;
  }
  x.idx.assign(reach_.begin(), reach_.end());
  std::sort(x.idx.begin(), x.idx.end());
}

void LuFactorization::ftran(WorkVector& x) const {
  lower_solve(x);
  apply_etas(x);
  upper_solve(x);
}

void LuFactorization::ftran_spike(WorkVector& x) {
  lower_solve(x);
  apply_etas(x);
  for (int r : spike_idx_) spike_[r] = 0.0;
  for (int r : x.idx) spike_[r] = x.val[r];
  spike_idx_.assign(x.idx.begin(), x.idx.end());
  spike_valid_ = true;
}

void LuFactorization::ftran_finish(WorkVector& x) const { upper_solve(x); }

template <class Steps>
void LuFactorization::btran_upper_pass(std::span<double> w,
                                       Steps&& steps) const {
  // Solve U' w = y in place, forward in elimination order since U is upper
  // triangular in that order.
  if (!mutable_u_) {
    for (int k : steps) {
      double acc = w[k];
      for (int p = u_ptr_[k]; p < u_ptr_[k + 1]; ++p)
        acc -= u_val_[p] * w[u_idx_[p]];
      w[k] = acc / u_diag_[k];
    }
  } else {
    for (int s : steps) {
      if (s < 0) continue;  // tombstone
      double acc = w[s];
      for (const auto& [t, u] : ucols_[s]) acc -= u * w[t];
      w[s] = acc / diag_[s];
    }
  }
}

template <class Steps>
void LuFactorization::btran_lower_pass(std::span<const double> w,
                                       std::span<double> y,
                                       Steps&& steps) const {
  // Solve L' P y = w, output in row space, steps descending.
  for (int k : steps) {
    double acc = w[k];
    for (int p = l_ptr_[k]; p < l_ptr_[k + 1]; ++p)
      acc -= l_val_[p] * y[l_idx_[p]];
    y[pivot_row_[k]] = acc;
  }
}

void LuFactorization::btran(WorkVector& y) const {
  // Input y is in basis-position space: y_pos[k]. Move it into the
  // slot-space scratch w (positions are slots) and solve U' w = y_pos.
  std::span<double> w(work_);
  for (int k : y.idx) {
    w[k] = y.val[k];
    y.val[k] = 0.0;
  }
  const bool u_sparse =
      seed_reach(y.idx, [](int k) { return k; }) && close_reach([&](int t) {
        if (!mutable_u_) {
          for (int p = ut_ptr_[t]; p < ut_ptr_[t + 1]; ++p)
            reach_add(ut_idx_[p]);
        } else {
          for (const auto& e : urows_[t]) reach_add(e.first);
        }
      });
  if (u_sparse) {
    sort_reach_by_order(/*descending=*/false);
    btran_upper_pass(w, reach_);
    // From here on reach_ lists (and marks) every slot where w may be
    // nonzero: the start set of the L' pass.
    for (int s : reach_) mark_[s] = 1;
  } else if (!mutable_u_) {
    btran_upper_pass(w, std::views::iota(0, m_));
  } else {
    btran_upper_pass(w, order_);
  }
  // Transposed row etas, reverse order: R' = I - mu e_s', so each eta
  // scatters the spiked slot's value into its support. Slot space here.
  for (auto it = r_etas_.rbegin(); it != r_etas_.rend(); ++it) {
    const double ws = w[it->slot];
    if (ws != 0.0) {
      for (const auto& [t, mu] : it->mu) {
        w[t] -= mu * ws;
        if (u_sparse) reach_add(t);
      }
    }
  }
  // L' pass from those slots (slot == step of the L factor); a dense U'
  // pass leaves w dense, so the L' pass is dense too.
  const bool l_sparse = u_sparse && close_reach([&](int k) {
    for (int p = lt_ptr_[k]; p < lt_ptr_[k + 1]; ++p) reach_add(lt_idx_[p]);
  });
  if (l_sparse) {
    std::sort(reach_.begin(), reach_.end(), std::greater<>());
    btran_lower_pass(w, y.val, reach_);
    y.idx.clear();
    for (int k : reach_) y.idx.push_back(pivot_row_[k]);
    std::sort(y.idx.begin(), y.idx.end());
  } else {
    btran_lower_pass(w, y.val, std::views::iota(0, m_) | std::views::reverse);
    y.index_all();
  }
  if (u_sparse) {
    for (int s : reach_) w[s] = 0.0;  // reach_ still covers the start set
  } else {
    std::fill(w.begin(), w.end(), 0.0);
  }
}

void LuFactorization::ensure_mutable() {
  if (mutable_u_) return;
  // Clear rather than reallocate: the mirrors are rebuilt after every
  // refactorization, and the entries land in the same order either way.
  urows_.resize(m_);
  ucols_.resize(m_);
  for (auto& row : urows_) row.clear();
  for (auto& col : ucols_) col.clear();
  diag_ = u_diag_;
  order_.resize(m_);
  pos_of_.resize(m_);
  for (int k = 0; k < m_; ++k) order_[k] = pos_of_[k] = k;
  for (int k = 0; k < m_; ++k) {
    for (int p = u_ptr_[k]; p < u_ptr_[k + 1]; ++p) {
      ucols_[k].push_back({u_idx_[p], u_val_[p]});
      urows_[u_idx_[p]].push_back({k, u_val_[p]});
    }
  }
  u_nnz_ = static_cast<int64_t>(u_idx_.size());
  mutable_u_ = true;
}

bool LuFactorization::update(int pos) {
  if (!spike_valid_ || pos < 0 || pos >= m_) return false;
  ensure_mutable();
  spike_valid_ = false;
  const int sp = pos;

  // ---- Eliminate old row sp against the rows at later logical positions.
  // Min-heap on logical position keeps elimination order well defined; fill
  // only ever lands at strictly later positions, so a single sweep works.
  const std::greater<> later;
  heap_.clear();
  for (const auto& [t, u] : urows_[sp]) {
    work_[t] = u;
    heap_.push_back({pos_of_[t], t});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  std::vector<std::pair<int, double>> mu;
  double spike_dot = 0.0;  // sum_t mu_t * spike[t]
  bool unstable = false;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const int t = heap_.back().second;
    heap_.pop_back();
    const double val = work_[t];
    work_[t] = 0.0;
    if (val == 0.0) continue;  // cancelled out, or duplicate heap entry
    const double mu_t = val / diag_[t];
    if (!(std::abs(mu_t) <= kFtMuMax)) {  // also catches NaN
      unstable = true;
      break;
    }
    mu.push_back({t, mu_t});
    spike_dot += mu_t * spike_[pivot_row_[t]];
    for (const auto& [t2, u] : urows_[t]) {
      if (work_[t2] == 0.0) {
        heap_.push_back({pos_of_[t2], t2});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
      work_[t2] -= mu_t * u;
    }
  }
  if (unstable) {
    for (const auto& entry : heap_) work_[entry.second] = 0.0;
    return false;
  }

  const double v_sp = spike_[pivot_row_[sp]];
  const double new_diag = v_sp - spike_dot;
  // Stability check before any mutation: a near-cancelled diagonal means
  // the updated factorization would be garbage -- refuse and let the caller
  // refactorize from scratch.
  const double ref = std::abs(v_sp) + std::abs(spike_dot);
  if (!(std::abs(new_diag) >= kPivotTol &&
        std::abs(new_diag) >= kFtDiagTol * ref)) {
    return false;
  }

  // ---- Commit: drop old row sp and old column sp, install the spike as
  // the new column sp, record the eta, and move sp to the end of the order.
  for (const auto& [t, u] : urows_[sp]) erase_slot(ucols_[t], sp);
  u_nnz_ -= static_cast<int64_t>(urows_[sp].size());
  urows_[sp].clear();
  for (const auto& [s, u] : ucols_[sp]) erase_slot(urows_[s], sp);
  u_nnz_ -= static_cast<int64_t>(ucols_[sp].size());
  ucols_[sp].clear();

  for (int r : spike_idx_) {  // ascending rows, as the dense sweep
    const double v = spike_[r];
    if (v == 0.0) continue;
    const int t = row_step_[r];
    if (t == sp) continue;  // diagonal handled below
    ucols_[sp].push_back({t, v});
    urows_[t].push_back({sp, v});
    ++u_nnz_;
  }
  diag_[sp] = new_diag;
  eta_nnz_ += static_cast<int64_t>(mu.size());
  r_etas_.push_back({sp, std::move(mu)});

  order_[pos_of_[sp]] = -1;  // tombstone
  pos_of_[sp] = static_cast<int>(order_.size());
  order_.push_back(sp);
  // Drop the tombstones once they reach a quarter of m, so the dense loops
  // never walk much past m entries: O(m) every m/4 updates, and the keys
  // keep their relative order.
  if (static_cast<int>(order_.size()) >= m_ + m_ / 4) {
    std::erase(order_, -1);
    for (int k = 0; k < m_; ++k) pos_of_[order_[k]] = k;
  }
  return true;
}

}  // namespace checkmate::lp
