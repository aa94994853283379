#include "lp/simplex.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <chrono>
#include <cstddef>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "robust/fault_injection.h"

namespace checkmate::lp {

namespace {

// Primal feasibility, dual optimality and pivot-element tolerances.
constexpr double kFeasibilityTol = 1e-7;
constexpr double kOptimalityTol = 1e-7;
constexpr double kPivotTol = 1e-9;
// Forrest-Tomlin refresh triggers: the full refactorization waits until
// this many updates accumulate or the factor fill grows past this multiple
// of the post-refactorize nnz (an update rejected as unstable forces one
// immediately).
constexpr int kFtUpdateLimit = 192;
constexpr double kFtGrowthLimit = 3.0;
// Partial (candidate-list) dual pricing: the leaving-row scan keeps a
// deterministic short list of the worst primal violations (by dse-scaled
// score) and only rescans the full row set when the list drains or its
// refresh cadence lapses. List membership is a pure function of the solve
// trajectory, so node counts stay bit-identical across thread counts.
// Engaged only from this many rows up.
constexpr int kPartialPricingMinRows = 256;
// Deterministic tiny cost perturbation to break dual degeneracy (the
// rematerialization LPs have thousands of zero-cost columns). Scaled per
// column by |c_j| (zero-cost columns use the global max |c|) so that
// badly-ranged objectives are not distorted: a jitter proportional to the
// GLOBAL max cost can dwarf a small column's true cost and park the solve
// on a perturbed-optimal vertex that is macroscopically suboptimal for the
// real objective. The true objective is always recomputed from unperturbed
// costs.
constexpr double kPerturbation = 1e-8;
// Finite stand-in bound for dual-infeasible columns lacking a usable
// bound; solutions resting on it are reported as unbounded. Kept modest:
// the bound's magnitude multiplies into floating-point cancellation error
// (~bound * 1e-16) during pivoting.
constexpr double kArtificialBound = 1e7;

// The keyframe rule's depth cap: a snapshot whose chain would hold more
// deltas than this is captured as a keyframe. The byte half of the rule
// (a chain's deltas never outweigh a full copy) keeps restore() within ~2x
// a keyframe copy; this cap bounds the pointer walk and the recursion of a
// chain's shared_ptr release. It sits high enough that chains of small
// deltas on the large LPs end at the byte bound first.
constexpr int kMaxDeltaDepth = 128;

// Equality of the stored bits: snapshot deltas must be lossless, so a
// steepest-edge weight or a bound that differs only in the sign of zero or
// a NaN payload still counts as a difference.
template <class T>
bool same_bits(T a, T b) {
  if constexpr (std::is_floating_point_v<T>)
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  else
    return a == b;
}

// Diffs cur[0, len) against a base state given as `overlay` over a
// keyframe: base[p] is the overlay's value where it has one, key(p)
// elsewhere. `next` receives every position where cur differs from the
// keyframe (the overlay once cur becomes the base), `edits` every position
// where cur differs from the base; both ascend. The overlay covers only
// positions below len (rows are only ever appended).
template <class T, class Key, class E>
void diff_state(const T* cur, int len, const Key& key, const E& overlay,
                E& next, E& edits) {
  next.clear();
  for (int p = 0; p < len; ++p)
    if (!same_bits(cur[p], key(p))) next.push(p, cur[p]);
  for (size_t a = 0, b = 0; a < next.size() || b < overlay.size();) {
    const int pa = a < next.size() ? next.pos[a] : INT_MAX;
    const int pb = b < overlay.size() ? overlay.pos[b] : INT_MAX;
    if (pa < pb) {
      edits.push(pa, next.val[a++]);  // the base holds the keyframe's value
      continue;
    }
    if (!same_bits(cur[pb], overlay.val[b])) edits.push(pb, cur[pb]);
    if (pa == pb) ++a;
    ++b;
  }
}

template <class E, class T>
void apply_edits(const E& edits, T* state) {
  for (size_t k = 0; k < edits.size(); ++k) state[edits.pos[k]] = edits.val[k];
}

// Sorts a work vector's index list and drops repeats (after scatters).
void sort_unique(std::vector<int>& idx) {
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
}

}  // namespace

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration_limit";
    case LpStatus::kObjectiveLimit: return "objective_limit";
    case LpStatus::kNumericalError: return "numerical_error";
  }
  return "unknown";
}

// Curtis-Reid geometric-mean scaling: least-squares fit of log2 row/column
// factors (minimize sum (log2|a_ij| + rho_i + gamma_j)^2) by Gauss-Seidel
// sweeps of the normal equations, factors rounded to powers of two so every
// scale/unscale is exact. Rows at or past LinearProgram::scaling_rows
// (dynamically appended cut rows) keep unit row scale, which makes the
// factors identical for every engine constructed over the working LP at any
// point in the cut lifecycle.
void DualSimplex::compute_scaling(const LinearProgram& lp) {
  scale_.assign(num_total(), 1.0);
  const uint64_t kFnvOffset = 1469598103934665603ull;
  const uint64_t kFnvPrime = 1099511628211ull;
  // Hash only non-unit factors, keyed by column: engines constructed over
  // the same LP before and after cut-row appends (whose factors are all 1)
  // must agree on the identity.
  scaling_hash_ = kFnvOffset;
  auto hash_exp = [&](int col, int e) {
    if (e == 0) return;
    scaling_hash_ ^= static_cast<uint64_t>(col);
    scaling_hash_ *= kFnvPrime;
    scaling_hash_ ^= static_cast<uint64_t>(static_cast<int64_t>(e));
    scaling_hash_ *= kFnvPrime;
  };
  const int prefix =
      lp.scaling_rows < 0 ? m_ : std::min(lp.scaling_rows, m_);
  // The live entries' log-magnitudes, laid out once row-major (row_log,
  // row_col) and column-major (col_log, col_row) by stable counting sorts:
  // each row's and each column's sum adds its entries in lp.entries order,
  // so the factors do not depend on the layout.
  std::vector<int> row_start(m_ + 1, 0), col_start(n_ + 1, 0);
  for (const Triplet& t : lp.entries) {
    if (t.row >= prefix || t.value == 0.0) continue;
    ++row_start[t.row + 1];
    ++col_start[t.col + 1];
  }
  for (int i = 0; i < m_; ++i) row_start[i + 1] += row_start[i];
  for (int j = 0; j < n_; ++j) col_start[j + 1] += col_start[j];
  const int live = row_start[m_];
  std::vector<double> row_log(live), col_log(live);
  std::vector<int> row_col(live), col_row(live);
  {
    std::vector<int> row_next(row_start.begin(), row_start.end() - 1);
    std::vector<int> col_next(col_start.begin(), col_start.end() - 1);
    for (const Triplet& t : lp.entries) {
      if (t.row >= prefix || t.value == 0.0) continue;
      const double log = std::log2(std::abs(t.value));
      const int r = row_next[t.row]++, c = col_next[t.col]++;
      row_log[r] = log;
      row_col[r] = t.col;
      col_log[c] = log;
      col_row[c] = t.row;
    }
  }
  // Gauss-Seidel sweeps: rho from the current gamma, then gamma from rho.
  std::vector<double> rho(m_, 0.0), gamma(n_, 0.0);
  for (int sweep = 0; sweep < 20; ++sweep) {
    for (int i = 0; i < m_; ++i) {
      if (row_start[i] == row_start[i + 1]) continue;
      double acc = 0.0;
      for (int k = row_start[i]; k < row_start[i + 1]; ++k)
        acc += row_log[k] + gamma[row_col[k]];
      rho[i] = -acc / (row_start[i + 1] - row_start[i]);
    }
    for (int j = 0; j < n_; ++j) {
      if (col_start[j] == col_start[j + 1]) continue;
      double acc = 0.0;
      for (int k = col_start[j]; k < col_start[j + 1]; ++k)
        acc += col_log[k] + rho[col_row[k]];
      gamma[j] = -acc / (col_start[j + 1] - col_start[j]);
    }
  }
  auto rounded = [](double v) {
    const double c = std::max(-20.0, std::min(20.0, v));
    return static_cast<int>(std::lround(c));
  };
  for (int j = 0; j < n_; ++j) {
    const int e = col_start[j] < col_start[j + 1] ? rounded(gamma[j]) : 0;
    scale_[j] = std::exp2(static_cast<double>(e));
    hash_exp(j, e);
  }
  for (int i = 0; i < m_; ++i) {
    // Slack column scale is 1/r_i: the scaled slack column stays exactly
    // -1, so the engine's hardcoded slack handling is untouched.
    const int e = row_start[i] < row_start[i + 1] ? rounded(rho[i]) : 0;
    scale_[n_ + i] = std::exp2(static_cast<double>(-e));
    hash_exp(n_ + i, -e);
  }
}

DualSimplex::DualSimplex(const LinearProgram& lp, SimplexOptions options)
    : lp_(&lp), opt_(options), n_(lp.num_vars()), m_(lp.num_rows()),
      entries_synced_(lp.entries.size()) {
  compute_scaling(lp);
  // Structural matrix in the scaled frame: entry (i, j) picks up r_i * q_j
  // (powers of two, exact). r_i = 1 / scale_[n_+i] by the slack convention.
  {
    std::vector<Triplet> scaled(lp.entries.begin(), lp.entries.end());
    for (Triplet& t : scaled)
      t.value *= scale_[t.col] / scale_[n_ + t.row];
    a_ = SparseMatrix(m_, n_, scaled);
  }
  cost_.assign(num_total(), 0.0);
  lo_.assign(num_total(), 0.0);
  hi_.assign(num_total(), 0.0);
  // Deterministic cost perturbation: breaks the massive dual degeneracy of
  // 0/1 scheduling LPs. Scaled per column by the column's own cost
  // magnitude (zero-cost columns fall back to the global max so they
  // still get jitter) -- a purely global scale would distort badly-ranged
  // objectives, see kPerturbation. Jitter is
  // applied in the original frame, then scaled with the cost.
  double max_cost = 1.0;
  for (int j = 0; j < n_; ++j)
    max_cost = std::max(max_cost, std::abs(lp.obj[j]));
  cost_scale_ = max_cost;
  unsigned h = 0x2545f491u;
  for (int j = 0; j < n_; ++j) {
    h = h * 1664525u + 1013904223u;
    const double mag = lp.obj[j] == 0.0 ? max_cost : std::abs(lp.obj[j]);
    const double jitter =
        kPerturbation * mag * (1.0 + static_cast<double>(h % 1024) / 1024.0);
    cost_[j] = (lp.obj[j] + jitter) * scale_[j];
    lo_[j] = lp.lb[j] / scale_[j];
    hi_[j] = lp.ub[j] / scale_[j];
  }
  for (int i = 0; i < m_; ++i) {
    lo_[n_ + i] = lp.row_lb[i] / scale_[n_ + i];
    hi_[n_ + i] = lp.row_ub[i] / scale_[n_ + i];
  }
  status_.assign(num_total(), kNonbasicLower);
  x_.assign(num_total(), 0.0);
  xb_.assign(m_, 0.0);
  d_.assign(num_total(), 0.0);
  basic_var_.assign(m_, -1);
  dse_w_.assign(m_, 1.0);
  alpha_v_.assign(num_total(), 0.0);
  alpha_mark_.assign(num_total(), 0);
  banned_mark_.assign(num_total(), 0);
}

void DualSimplex::set_var_bounds(int var, double lower, double upper) {
  if (var < 0 || var >= n_) throw std::out_of_range("set_var_bounds");
  if (lower > upper) throw std::invalid_argument("set_var_bounds: lb > ub");
  lo_[var] = lower / scale_[var];
  hi_[var] = upper / scale_[var];
  if (status_[var] != kBasic) {
    // Snap a nonbasic variable back inside its (possibly shrunken) box.
    // (All in the scaled frame: x_ and lo_/hi_ live scaled.)
    if (status_[var] == kNonbasicLower || x_[var] < lo_[var]) {
      if (lo_[var] != -kInf) {
        status_[var] = kNonbasicLower;
        x_[var] = lo_[var];
      }
    }
    if (status_[var] == kNonbasicUpper || x_[var] > hi_[var]) {
      if (hi_[var] != kInf) {
        status_[var] = kNonbasicUpper;
        x_[var] = hi_[var];
      }
    }
    // Keep the dual-feasible side when both bounds finite and d has a sign.
    if (d_[var] > kOptimalityTol && lo_[var] != -kInf) {
      status_[var] = kNonbasicLower;
      x_[var] = lo_[var];
    } else if (d_[var] < -kOptimalityTol && hi_[var] != kInf) {
      status_[var] = kNonbasicUpper;
      x_[var] = hi_[var];
    }
  }
  xb_dirty_ = true;
  // Reduced costs of previously-fixed columns are not maintained while
  // fixed; refresh them before the next solve.
  d_dirty_ = true;
}

void DualSimplex::sync_rows() {
  const int m_new = lp_->num_rows();
  if (m_new == m_) return;
  if (m_new < m_)
    throw std::logic_error("sync_rows: rows were removed from the LP");
  // Fold the appended entries into the matrix, in the scaled frame.
  // Appended rows may only reference rows >= m_ (cuts never retouch
  // existing rows) and keep unit row scale, so only the column factor
  // applies.
  {
    std::vector<Triplet> tail(lp_->entries.begin() + entries_synced_,
                              lp_->entries.end());
    for (Triplet& t : tail) t.value *= scale_[t.col];
    a_.append_rows(m_new - m_, tail);
  }
  entries_synced_ = lp_->entries.size();
  scale_.resize(n_ + m_new, 1.0);

  // Grow the column-indexed state: structural columns keep their indices,
  // existing slacks keep theirs (slack of row i is column n_ + i), and the
  // new rows' slacks append at the end.
  const int total_new = n_ + m_new;
  cost_.resize(total_new, 0.0);
  lo_.resize(total_new, 0.0);
  hi_.resize(total_new, 0.0);
  status_.resize(total_new, static_cast<int8_t>(kNonbasicLower));
  x_.resize(total_new, 0.0);
  d_.resize(total_new, 0.0);
  alpha_v_.resize(total_new, 0.0);
  alpha_mark_.resize(total_new, 0);
  banned_mark_.resize(total_new, 0);
  basic_var_.resize(m_new, -1);
  xb_.resize(m_new, 0.0);
  dse_w_.resize(m_new, 1.0);
  for (int i = m_; i < m_new; ++i) {
    const int sj = n_ + i;
    lo_[sj] = lp_->row_lb[i];
    hi_[sj] = lp_->row_ub[i];
    if (basis_valid_) {
      // The new row enters with its slack basic: the extended basis matrix
      // is block lower triangular over the old one, so it stays
      // nonsingular; the LU factors are rebuilt lazily.
      status_[sj] = kBasic;
      basic_var_[i] = sj;
      dse_w_[i] = 1.0;
    }
  }
  m_ = m_new;
  if (basis_valid_) {
    needs_refactor_ = true;
    d_dirty_ = true;
  }
  xb_dirty_ = true;
}

size_t BasisSnapshot::bytes() const {
  const auto held = [](const auto& v) {
    return v.capacity() *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return sizeof(*this) + held(status_) + held(basic_var_) + held(dse_) +
         held(bounds_) + held(bounds_cleared_) + held(status_edits_.pos) +
         held(status_edits_.val) + held(basic_edits_.pos) +
         held(basic_edits_.val) + held(dse_edits_.pos) +
         held(dse_edits_.val) + held(free_values_);
}

void DualSimplex::current_overrides(std::vector<BoundOverride>& out) const {
  // Captured even before the first solve (invalid basis): a clone taken
  // after set_var_bounds but before solve() must still see the same
  // feasible region as the original.
  out.clear();
  for (int j = 0; j < num_total(); ++j) {
    const double base_lo =
        (j < n_ ? lp_->lb[j] : lp_->row_lb[j - n_]) / scale_[j];
    const double base_hi =
        (j < n_ ? lp_->ub[j] : lp_->row_ub[j - n_]) / scale_[j];
    if (lo_[j] != base_lo || hi_[j] != base_hi)
      out.push_back({j, lo_[j] * scale_[j], hi_[j] * scale_[j]});
  }
}

std::shared_ptr<BasisSnapshot> DualSimplex::new_snapshot() const {
  auto s = std::make_shared<BasisSnapshot>();
  s->valid_ = basis_valid_;
  s->num_rows_ = m_;
  s->scaling_hash_ = scaling_hash_;
  if (!s->valid_) return s;
  s->used_artificial_bound_ = used_artificial_bound_;
  for (int j = 0; j < num_total(); ++j)
    if (status_[j] == kFree && x_[j] != 0.0)
      s->free_values_.emplace_back(j, x_[j] * scale_[j]);
  return s;
}

std::shared_ptr<BasisSnapshot> DualSimplex::capture_keyframe(
    std::vector<BoundOverride> bounds) const {
  std::shared_ptr<BasisSnapshot> s = new_snapshot();
  s->bounds_ = std::move(bounds);
  if (!s->valid_) return s;
  s->status_ = status_;
  s->basic_var_ = basic_var_;
  s->dse_ = dse_w_;
  return s;
}

bool DualSimplex::capture_delta(BasisSnapshot& s,
                                const std::vector<BoundOverride>& bounds) {
  const BasisSnapshot& key = *base_key_;
  const int km = key.num_rows_;
  const int klen = n_ + km;
  // Rows the keyframe lacks read as freshly appended: slack basic in its
  // own row at unit weight (restore() materializes them the same way).
  diff_state(
      status_.data(), num_total(),
      [&](int p) {
        return p < klen ? key.status_[p] : static_cast<int8_t>(kBasic);
      },
      status_ov_, next_status_ov_, s.status_edits_);
  diff_state(
      basic_var_.data(), m_,
      [&](int i) { return i < km ? key.basic_var_[i] : n_ + i; }, basic_ov_,
      next_basic_ov_, s.basic_edits_);
  diff_state(
      dse_w_.data(), m_, [&](int i) { return i < km ? key.dse_[i] : 1.0; },
      dse_ov_, next_dse_ov_, s.dse_edits_);
  // Bound overrides: both lists ascend by column.
  for (size_t a = 0, b = 0; a < bounds.size() || b < base_bounds_.size();) {
    const int ca = a < bounds.size() ? bounds[a].col : INT_MAX;
    const int cb = b < base_bounds_.size() ? base_bounds_[b].col : INT_MAX;
    if (ca < cb) {
      s.bounds_.push_back(bounds[a++]);
    } else if (cb < ca) {
      s.bounds_cleared_.push_back(base_bounds_[b++].col);
    } else {
      if (!same_bits(bounds[a].lo, base_bounds_[b].lo) ||
          !same_bits(bounds[a].hi, base_bounds_[b].hi))
        s.bounds_.push_back(bounds[a]);
      ++a;
      ++b;
    }
  }
  // The snapshot may outlive many others: hold no spare capacity.
  s.status_edits_.shrink_to_fit();
  s.basic_edits_.shrink_to_fit();
  s.dse_edits_.shrink_to_fit();
  s.bounds_.shrink_to_fit();
  s.bounds_cleared_.shrink_to_fit();
  s.parent_ = base_;
  s.depth_ = base_->depth_ + 1;
  s.chain_bytes_ = base_->chain_bytes_ + s.bytes();
  const size_t keyframe_bytes =
      sizeof(BasisSnapshot) + static_cast<size_t>(num_total()) +
      static_cast<size_t>(m_) * (sizeof(int) + sizeof(double)) +
      bounds.size() * sizeof(BoundOverride) +
      s.free_values_.size() * sizeof(s.free_values_[0]);
  return s.chain_bytes_ <= keyframe_bytes;
}

std::shared_ptr<const BasisSnapshot> DualSimplex::snapshot() {
  current_overrides(bounds_scratch_);
  if (basis_valid_ && base_ && base_->depth_ < kMaxDeltaDepth) {
    std::shared_ptr<BasisSnapshot> s = new_snapshot();
    if (capture_delta(*s, bounds_scratch_)) {
      std::swap(status_ov_, next_status_ov_);
      std::swap(basic_ov_, next_basic_ov_);
      std::swap(dse_ov_, next_dse_ov_);
      base_bounds_.swap(bounds_scratch_);
      base_ = s;
      return s;
    }
  }
  auto s = capture_keyframe(bounds_scratch_);
  status_ov_.clear();
  basic_ov_.clear();
  dse_ov_.clear();
  if (s->valid_) {
    base_bounds_.swap(bounds_scratch_);
    base_ = s;
    base_key_ = s.get();
  } else {
    base_ = nullptr;
    base_key_ = nullptr;
  }
  return s;
}

void DualSimplex::restore(const std::shared_ptr<const BasisSnapshot>& snap) {
  // Adopt any rows appended to the working LP since this engine last saw
  // it; the snapshot may have been captured before those rows existed (a
  // parent basis restored into a child LP that has more cuts).
  sync_rows();
  static const BasisSnapshot kInvalid;
  const BasisSnapshot& s = snap ? *snap : kInvalid;
  // The chain, keyframe first; its deltas apply in that order.
  std::vector<const BasisSnapshot*>& chain = chain_scratch_;
  chain.clear();
  for (const BasisSnapshot* p = &s; p != nullptr; p = p->parent_.get())
    chain.push_back(p);
  std::reverse(chain.begin(), chain.end());
  const BasisSnapshot& key = *chain.front();
  // The snapshot's full override list (ascending by column): the
  // keyframe's, with each delta's edits merged in.
  base_bounds_ = key.bounds_;
  for (size_t c = 1; c < chain.size(); ++c) {
    const BasisSnapshot& d = *chain[c];
    bounds_scratch_.clear();
    size_t a = 0, b = 0, k = 0;
    while (a < base_bounds_.size() || b < d.bounds_.size()) {
      const int ca = a < base_bounds_.size() ? base_bounds_[a].col : INT_MAX;
      const int cb = b < d.bounds_.size() ? d.bounds_[b].col : INT_MAX;
      if (cb <= ca) {
        bounds_scratch_.push_back(d.bounds_[b++]);
        if (cb == ca) ++a;
        continue;
      }
      while (k < d.bounds_cleared_.size() && d.bounds_cleared_[k] < ca) ++k;
      if (k < d.bounds_cleared_.size() && d.bounds_cleared_[k] == ca)
        ++a;
      else
        bounds_scratch_.push_back(base_bounds_[a++]);
    }
    base_bounds_.swap(bounds_scratch_);
  }
  // Basis membership, statuses, bound overrides, and free values are all
  // frame-independent (the numeric ones are stored in the true frame), so
  // a snapshot restores correctly into an engine with a different scale
  // vector. Only the steepest-edge weights live in the scaled frame: on a
  // scaling-identity mismatch they reset to the unit frame -- correct,
  // deterministic, just a different pricing trajectory. Engines that must
  // stay bit-identical (branch & bound workers) share a scale vector by
  // construction via LinearProgram::scaling_rows.
  const bool same_frame = s.scaling_hash_ == scaling_hash_;
  // Reset bounds to the base LP (scaled), then overlay the snapshot's
  // overrides (true frame -- see snapshot()). The engine constructor
  // may never have run make_initial_basis, and a prior make_initial_basis
  // may have installed artificial bounds; both are wiped here so the
  // restored state carries no history.
  for (int j = 0; j < n_; ++j) {
    lo_[j] = lp_->lb[j] / scale_[j];
    hi_[j] = lp_->ub[j] / scale_[j];
  }
  for (int i = 0; i < m_; ++i) {
    lo_[n_ + i] = lp_->row_lb[i] / scale_[n_ + i];
    hi_[n_ + i] = lp_->row_ub[i] / scale_[n_ + i];
  }
  stall_count_ = 0;
  price_dirty_ = true;
  std::fill(d_.begin(), d_.end(), 0.0);
  for (const auto& b : base_bounds_) {
    // Only structural overrides apply: branch decisions only ever target
    // structural columns, and slack bounds always come from the LP's rows.
    if (b.col < n_) {
      lo_[b.col] = b.lo / scale_[b.col];
      hi_[b.col] = b.hi / scale_[b.col];
    }
  }
  status_ov_.clear();
  basic_ov_.clear();
  dse_ov_.clear();
  // Cold start: the fresh-engine state, keeping the bound overrides
  // applied above -- always correct, just slower.
  if (!s.valid_ || s.num_rows_ > m_) {
    basis_valid_ = false;
    needs_refactor_ = false;
    d_dirty_ = false;
    xb_dirty_ = true;
    used_artificial_bound_ = false;
    std::fill(status_.begin(), status_.end(),
              static_cast<int8_t>(kNonbasicLower));
    std::fill(x_.begin(), x_.end(), 0.0);
    std::fill(basic_var_.begin(), basic_var_.end(), -1);
    dse_w_.assign(m_, 1.0);
    base_ = nullptr;
    base_key_ = nullptr;
    return;
  }

  // Prefix path: the snapshot's rows are the first rows of the LP (cut
  // rows only ever append). Adopt the keyframe, make the newer rows' slacks
  // basic -- exactly the state a freshly appended cut row enters in --
  // then replay the deltas, whose rows are all within the snapshot's.
  const int km = key.num_rows_;
  std::copy(key.status_.begin(), key.status_.end(), status_.begin());
  std::copy(key.basic_var_.begin(), key.basic_var_.end(), basic_var_.begin());
  for (int i = km; i < m_; ++i) {
    status_[n_ + i] = kBasic;
    basic_var_[i] = n_ + i;
  }
  for (size_t c = 1; c < chain.size(); ++c) {
    apply_edits(chain[c]->status_edits_, status_.data());
    apply_edits(chain[c]->basic_edits_, basic_var_.data());
  }
  if (same_frame) {
    std::copy(key.dse_.begin(), key.dse_.end(), dse_w_.begin());
    std::fill(dse_w_.begin() + km, dse_w_.end(), 1.0);
    for (size_t c = 1; c < chain.size(); ++c)
      apply_edits(chain[c]->dse_edits_, dse_w_.data());
  } else {
    dse_w_.assign(m_, 1.0);
  }
  used_artificial_bound_ = s.used_artificial_bound_;
  for (int j = 0; j < num_total(); ++j) {
    if (status_[j] == kBasic) continue;
    if (status_[j] == kFree)
      x_[j] = 0.0;
    else
      x_[j] = status_[j] == kNonbasicUpper ? hi_[j] : lo_[j];
  }
  for (const auto& [j, v] : s.free_values_) x_[j] = v / scale_[j];
  basis_valid_ = true;
  needs_refactor_ = true;  // LU rebuilt lazily by the next solve()
  d_dirty_ = true;
  xb_dirty_ = true;

  // The restored snapshot becomes the delta base of the next capture
  // (a foreign-frame one cannot: its weights were not adopted). Where the
  // base may differ from its keyframe is where the chain's deltas wrote.
  if (!same_frame) {
    base_ = nullptr;
    base_key_ = nullptr;
    return;
  }
  base_ = snap;
  base_key_ = &key;
  const auto overlay = [&](auto edits, const auto* state, auto& out) {
    for (size_t c = 1; c < chain.size(); ++c) {
      const auto& e = chain[c]->*edits;
      out.pos.insert(out.pos.end(), e.pos.begin(), e.pos.end());
    }
    if (chain.size() > 2) {
      std::sort(out.pos.begin(), out.pos.end());
      out.pos.erase(std::unique(out.pos.begin(), out.pos.end()),
                    out.pos.end());
    }
    out.val.resize(out.pos.size());
    for (size_t k = 0; k < out.pos.size(); ++k)
      out.val[k] = state[out.pos[k]];
  };
  overlay(&BasisSnapshot::status_edits_, status_.data(), status_ov_);
  overlay(&BasisSnapshot::basic_edits_, basic_var_.data(), basic_ov_);
  overlay(&BasisSnapshot::dse_edits_, dse_w_.data(), dse_ov_);
}

std::shared_ptr<const BasisSnapshot> DualSimplex::keyframe() const {
  std::vector<BoundOverride> bounds;
  current_overrides(bounds);
  return capture_keyframe(std::move(bounds));
}

DualSimplex DualSimplex::clone() const {
  DualSimplex copy(*lp_, opt_);
  copy.restore(keyframe());
  return copy;
}

double DualSimplex::dot_work_column(int col,
                                    const std::vector<double>& dense) const {
  if (is_slack(col)) return -dense[col - n_];
  return a_.dot_column(col, dense);
}

void DualSimplex::axpy_work_column(int col, double alpha,
                                   std::vector<double>& dense) const {
  if (is_slack(col)) {
    dense[col - n_] -= alpha;
    return;
  }
  a_.axpy_column(col, alpha, dense);
}

void DualSimplex::scatter_work_column(int col, double alpha,
                                      WorkVector& x) const {
  axpy_work_column(col, alpha, x.val);
  if (is_slack(col)) {
    x.idx.push_back(col - n_);
  } else {
    for (int r : a_.col_rows(col)) x.idx.push_back(r);
  }
}

bool DualSimplex::refactorize() {
  std::vector<BasisColumn> cols(m_);
  // Slack columns are synthesized; keep their storage alive in one arena.
  std::vector<int> slack_rows(m_);
  static const double kMinusOne = -1.0;
  for (int i = 0; i < m_; ++i) {
    int col = basic_var_[i];
    if (is_slack(col)) {
      slack_rows[i] = col - n_;
      cols[i] = {{&slack_rows[i], 1}, {&kMinusOne, 1}};
    } else {
      cols[i] = {a_.col_rows(col), a_.col_values(col)};
    }
  }
  ++stats_.lp_refactorizations;
  const bool ok = lu_.factorize(m_, cols);
  nnz_base_ = lu_.nnz();
  return ok;
}

void DualSimplex::recompute_reduced_costs() {
  // y = B^-T c_B, d_j = c_j - y . W_j
  WorkVector& y = rho_;
  y.reset(m_);
  for (int i = 0; i < m_; ++i) y.val[i] = cost_[basic_var_[i]];
  y.index_all();
  lu_.btran(y);
  for (int j = 0; j < num_total(); ++j) {
    if (status_[j] == kBasic) {
      d_[j] = 0.0;
    } else {
      d_[j] = cost_[j] - dot_work_column(j, y.val);
    }
  }
}

void DualSimplex::recompute_basic_values() {
  // x_B = -B^-1 W_N x_N  (rhs of W x = 0 moved to the right).
  WorkVector& rhs = w_;
  rhs.reset(m_);
  for (int j = 0; j < num_total(); ++j) {
    if (status_[j] == kBasic || x_[j] == 0.0) continue;
    axpy_work_column(j, -x_[j], rhs.val);
  }
  rhs.index_all();
  lu_.ftran(rhs);
  xb_ = rhs.val;
  xb_dirty_ = false;
  // Wholesale basic-value motion invalidates the pricing candidate list.
  price_dirty_ = true;
}

double DualSimplex::bound_for_status(int col, int status) const {
  return status == kNonbasicLower ? lo_[col] : hi_[col];
}

void DualSimplex::make_initial_basis() {
  used_artificial_bound_ = false;
  for (int i = 0; i < m_; ++i) {
    basic_var_[i] = n_ + i;
    status_[n_ + i] = kBasic;
  }
  for (int j = 0; j < n_; ++j) {
    // Dual-feasible placement: cost >= 0 wants lower bound, cost < 0 wants
    // upper bound. Missing bounds fall back to the other side, or to an
    // artificial bound for genuinely free dual-infeasible columns.
    const double c = cost_[j];
    if (c >= 0.0) {
      if (lo_[j] != -kInf) {
        status_[j] = kNonbasicLower;
        x_[j] = lo_[j];
      } else if (c == 0.0) {
        status_[j] = kFree;
        x_[j] = 0.0;
      } else if (hi_[j] != kInf) {
        // Placing at the upper bound makes d_j = c > 0 with status upper:
        // dual infeasible. Use an artificial lower bound instead.
        lo_[j] = -kArtificialBound;
        used_artificial_bound_ = true;
        status_[j] = kNonbasicLower;
        x_[j] = lo_[j];
      } else {
        lo_[j] = -kArtificialBound;
        used_artificial_bound_ = true;
        status_[j] = kNonbasicLower;
        x_[j] = lo_[j];
      }
    } else {
      if (hi_[j] != kInf) {
        status_[j] = kNonbasicUpper;
        x_[j] = hi_[j];
      } else {
        hi_[j] = kArtificialBound;
        used_artificial_bound_ = true;
        status_[j] = kNonbasicUpper;
        x_[j] = hi_[j];
      }
    }
  }
  basis_valid_ = true;
  xb_dirty_ = true;
  dse_w_.assign(m_, 1.0);
}

void DualSimplex::compute_pivot_row(const WorkVector& rho) {
  ++alpha_stamp_;
  alpha_idx_.clear();
  const int64_t stamp = alpha_stamp_;
  for (int i : rho.idx) {
    const double r = rho.val[i];
    if (r == 0.0) continue;
    // Slack column n+i is -e_i, so its alpha is just -rho_i.
    const int sj = n_ + i;
    alpha_v_[sj] = -r;
    alpha_mark_[sj] = stamp;
    alpha_idx_.push_back(sj);
    const auto cols = a_.row_cols(i);
    const auto vals = a_.row_values(i);
    for (size_t k = 0; k < cols.size(); ++k) {
      const int j = cols[k];
      const double add = vals[k] * r;
      if (alpha_mark_[j] == stamp) {
        alpha_v_[j] += add;
      } else {
        alpha_mark_[j] = stamp;
        alpha_v_[j] = add;
        alpha_idx_.push_back(j);
      }
    }
  }
}

double DualSimplex::truncated_dual_bound() const {
  if (!basis_valid_) return -kInf;
  double z = 0.0;
  for (int j = 0; j < num_total(); ++j)
    if (status_[j] != kBasic && x_[j] != 0.0) z += cost_[j] * x_[j];
  for (int i = 0; i < m_; ++i) z += cost_[basic_var_[i]] * xb_[i];
  // z is the dual objective of the current dual-feasible basis, so it
  // bounds the *perturbed* optimum from below; subtracting each column's
  // worst-case jitter contribution over its box makes it sound for the
  // true costs. A jittered column with no finite hot-side bound leaves
  // nothing to correct against. (Jitter and hot bound are derived in the
  // original frame: cost_ and lo_/hi_ live scaled, and the per-column
  // factors cancel exactly -- powers of two.)
  double corr = 0.0;
  for (int j = 0; j < n_; ++j) {
    const double jit = cost_[j] / scale_[j] - lp_->obj[j];
    if (jit == 0.0) continue;
    const double hot = (jit > 0.0 ? hi_[j] : lo_[j]) * scale_[j];
    if (hot == kInf || hot == -kInf) return -kInf;
    corr += jit * hot;
  }
  return z - corr;
}

bool DualSimplex::tableau_row(int pos, std::vector<int>& cols,
                              std::vector<double>& coefs) {
  cols.clear();
  coefs.clear();
  if (!basis_valid_ || needs_refactor_ || pos < 0 || pos >= m_) return false;
  // Row pos of B^-1 W, read exactly like a pricing pass: rho = B^-T e_pos,
  // then alpha = W' rho over rho's nonzeros. The homogeneous system W x = 0
  // gives the identity x_B[pos] + sum_j coef_j * x_j = 0 over nonbasic j.
  // Engine columns are scaled; multiplying by q_B / q_j returns each
  // coefficient to the caller's frame (exact -- powers of two).
  WorkVector& rho = rho_;
  rho.reset(m_);
  rho.val[pos] = 1.0;
  rho.idx.push_back(pos);
  lu_.btran(rho);
  compute_pivot_row(rho);
  const double qb = scale_[basic_var_[pos]];
  for (int j : alpha_idx_) {
    if (status_[j] == kBasic) continue;
    const double a = alpha_v_[j];
    if (std::abs(a) <= 1e-11) continue;
    cols.push_back(j);
    coefs.push_back(a * qb / scale_[j]);
  }
  return true;
}

void DualSimplex::rebuild_price_list() {
  // Full deterministic scan: every violated row scored like the full
  // pricing rule (viol^2 / dse weight), worst kept. The list is a superset
  // filter only -- selection always re-scores fresh from the current
  // xb_/dse_w_, so staleness can cost an extra rebuild but never a wrong
  // pivot.
  std::vector<std::pair<double, int>> scored;
  for (int i = 0; i < m_; ++i) {
    const int col = basic_var_[i];
    const double v = xb_[i];
    const double viol = std::max(lo_[col] - v, v - hi_[col]);
    if (viol <= kFeasibilityTol) continue;
    scored.push_back({-(viol * viol / dse_w_[i]), i});
  }
  std::sort(scored.begin(), scored.end());
  const size_t cap = static_cast<size_t>(std::max(32, m_ / 8));
  if (scored.size() > cap) scored.resize(cap);
  price_cand_.clear();
  for (const auto& [neg_score, i] : scored) price_cand_.push_back(i);
  price_countdown_ = 64;
  price_dirty_ = false;
  ++stats_.lp_pricing_resets;
}

int DualSimplex::select_leave_row(bool bland) {
  if (bland) {
    // Bland fallback: least-index leaving column, full scan.
    int best_col = std::numeric_limits<int>::max();
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      const int col = basic_var_[i];
      const double v = xb_[i];
      const double viol = std::max(lo_[col] - v, v - hi_[col]);
      if (viol > kFeasibilityTol && col < best_col) {
        best_col = col;
        leave = i;
      }
    }
    return leave;
  }
  if (m_ < kPartialPricingMinRows) {
    double best_score = 0.0;
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      const int col = basic_var_[i];
      const double v = xb_[i];
      const double viol = std::max(lo_[col] - v, v - hi_[col]);
      if (viol <= kFeasibilityTol) continue;
      const double score = viol * viol / dse_w_[i];
      if (score > best_score) {
        best_score = score;
        leave = i;
      }
    }
    return leave;
  }
  // Partial pricing over the candidate list; an empty pick right after a
  // rebuild IS the authoritative full scan saying primal feasible.
  bool rebuilt = false;
  if (price_dirty_ || price_countdown_ <= 0) {
    rebuild_price_list();
    rebuilt = true;
  }
  for (;;) {
    double best_score = 0.0;
    int leave = -1;
    for (int i : price_cand_) {
      const int col = basic_var_[i];
      const double v = xb_[i];
      const double viol = std::max(lo_[col] - v, v - hi_[col]);
      if (viol <= kFeasibilityTol) continue;
      const double score = viol * viol / dse_w_[i];
      if (score > best_score) {
        best_score = score;
        leave = i;
      }
    }
    if (leave >= 0) {
      --price_countdown_;
      return leave;
    }
    if (rebuilt) return -1;
    rebuild_price_list();
    rebuilt = true;
  }
}

int DualSimplex::iterate() {
  // ---- Anti-stall refresh: long degenerate streaks usually mean the
  // updated factors have drifted; rebuild the factorization and all
  // derived state.
  // (The streak counter is NOT reset -- if the stall survives the refresh
  // it keeps growing into the Bland fallback below.)
  if (stall_count_ == 512) {
    ++stall_count_;  // refresh once per streak
    if (!refactorize()) return 3;
    recompute_reduced_costs();
    recompute_basic_values();
  }
  // Cycle breaker: a streak of degenerate pivots that survives the
  // refactorization is treated as cycling, and the pivot selection drops
  // to Bland's least-index rule (leaving row by smallest basic column,
  // entering by smallest column among the minimum-ratio ties, no bound
  // flips) until a pivot makes real dual progress. Slow but finite, and
  // deterministic -- the fallback trips at a fixed pivot count.
  const bool bland = stall_count_ >= 768;

  // ---- Leaving variable: most-violated basic, scaled by the dual
  // steepest-edge weight (viol^2 / w_i with w_i ~ ||B^-T e_i||^2 measures
  // the violation in the metric of the dual ascent direction, steering
  // toward rows whose pivot actually moves the dual objective). On large
  // bases the scan runs over a periodically rebuilt candidate list instead
  // of all m rows (see select_leave_row).
  const int leave_pos = select_leave_row(bland);
  if (leave_pos < 0) return 1;  // primal feasible => optimal

  const int leave_col = basic_var_[leave_pos];
  const double sigma = xb_[leave_pos] > hi_[leave_col] ? 1.0 : -1.0;
  const double target =
      sigma > 0 ? hi_[leave_col] : lo_[leave_col];

  // ---- Pivot row rho = B^-T e_r; alpha = W' rho over rho's nonzeros only
  // (hypersparse pricing through the CSR mirror).
  WorkVector& rho = rho_;
  rho.reset(m_);
  rho.val[leave_pos] = 1.0;
  rho.idx.push_back(leave_pos);
  lu_.btran(rho);
  compute_pivot_row(rho);

  // ---- Two-pass long-step ratio test.
  // Pass 1: collect the dual-feasible breakpoints and order them by the
  // dual step at which each reduced cost hits zero; among equal steps the
  // larger pivot wins (Harris-style stabilization -- on these massively
  // degenerate LPs most breakpoints sit at step zero, and picking the
  // biggest |alpha| there is what keeps the updated factors well
  // conditioned).
  auto& cand = cand_scratch_;
  cand.clear();
  for (int j : alpha_idx_) {
    if (status_[j] == kBasic) continue;
    if (banned_mark_[j] == ban_stamp_) continue;  // FTRAN/BTRAN disagreement
    if (hi_[j] - lo_[j] < 1e-12 && status_[j] != kFree) continue;  // fixed
    const double aj = alpha_v_[j];
    const double sa = sigma * aj;
    bool candidate = false;
    if (status_[j] == kNonbasicLower && sa > kPivotTol)
      candidate = true;
    else if (status_[j] == kNonbasicUpper && sa < -kPivotTol)
      candidate = true;
    else if (status_[j] == kFree && std::abs(sa) > kPivotTol)
      candidate = true;
    if (!candidate) continue;
    cand.push_back({std::abs(d_[j] / aj), std::abs(aj), j});
  }
  if (cand.empty()) {
    // With columns banned the emptiness may be an artifact of the bans,
    // not proof of dual unboundedness: report numerical trouble so the
    // caller restarts from a clean basis instead of declaring infeasible.
    if (banned_count_ > 0) return 3;
    return 2;  // dual unbounded => primal infeasible
  }
  if (bland) {
    std::sort(cand.begin(), cand.end(),
              [](const RatioCandidate& a, const RatioCandidate& b) {
                if (a.ratio != b.ratio) return a.ratio < b.ratio;
                return a.col < b.col;
              });
  } else {
    std::sort(cand.begin(), cand.end(),
              [](const RatioCandidate& a, const RatioCandidate& b) {
                if (a.ratio != b.ratio) return a.ratio < b.ratio;
                if (a.abs_alpha != b.abs_alpha)
                  return a.abs_alpha > b.abs_alpha;
                return a.col < b.col;
              });
  }

  // Pass 2: walk the breakpoints in order. A boxed candidate whose flip
  // keeps the leaving row infeasible is flipped to its opposite bound (its
  // reduced cost changes sign across the breakpoint, so the flipped side
  // is the dual-feasible one) instead of entering; the first candidate
  // that cannot absorb the remaining infeasibility enters. Each flip
  // replaces what would otherwise be a full (usually degenerate) pivot.
  auto& flips = flip_cols_;
  flips.clear();
  int enter_col = -1;
  double enter_ratio = 0.0;
  double remaining = sigma * (xb_[leave_pos] - target);  // infeasibility > 0
  for (const RatioCandidate& c : cand) {
    const int j = c.col;
    if (!bland && status_[j] != kFree && lo_[j] != -kInf && hi_[j] != kInf) {
      const double gain = c.abs_alpha * (hi_[j] - lo_[j]);
      if (remaining - gain > kFeasibilityTol) {
        flips.push_back(j);
        remaining -= gain;
        continue;
      }
    }
    enter_col = j;
    enter_ratio = c.ratio;
    break;
  }
  if (enter_col < 0) {
    // Flipping every breakpoint still leaves the row infeasible: the dual
    // ascent is unbounded along this direction => primal infeasible.
    return 2;
  }
  // Keep only the flips whose breakpoint the entering dual step STRICTLY
  // passes. A flip at the entering ratio itself -- in particular any flip
  // when the step is degenerate (ratio 0) -- gains zero dual objective,
  // and zero-gain flips can shuttle a column between its bounds forever
  // (observed cycling on mass-fixed rematerialization LPs). Dual
  // feasibility does not need those flips: a column with ratio >= theta
  // keeps a valid reduced-cost sign at its current bound.
  if (!flips.empty()) {
    size_t keep = 0;
    size_t ci = 0;
    for (size_t k = 0; k < flips.size(); ++k) {
      while (cand[ci].col != flips[k]) ++ci;  // cand is the walk order
      if (cand[ci].ratio < enter_ratio) flips[keep++] = flips[k];
    }
    flips.resize(keep);
  }

  // ---- FTRAN entering column. The partial solve (L + row etas, before
  // the U back-substitution) is stashed inside the factorization as the
  // spike for the Forrest-Tomlin update(); the two-phase form is exactly
  // lu_.ftran().
  WorkVector& w = w_;
  w.reset(m_);
  scatter_work_column(enter_col, 1.0, w);
  sort_unique(w.idx);
  lu_.ftran_spike(w);
  lu_.ftran_finish(w);
  const double wr = w.val[leave_pos];
  if (std::abs(wr) < kPivotTol) {
    // The FTRAN'd pivot element disagrees with the BTRAN'd one badly;
    // refactorize and let the caller retry. (No flip has been applied yet,
    // so the basis state is untouched.) If the disagreement SURVIVES a
    // fresh factorization the pivot is structurally junk -- both values
    // sit at the tolerance edge -- and retrying would refactorize forever
    // (observed as a 100k-"iteration" non-pivoting loop): ban the column
    // from entering until the next real pivot.
    if (++wr_fail_streak_ >= 2) {
      banned_mark_[enter_col] = ban_stamp_;
      ++banned_count_;
      wr_fail_streak_ = 0;
    }
    if (!refactorize()) return 3;
    recompute_reduced_costs();
    recompute_basic_values();
    return 0;
  }
  wr_fail_streak_ = 0;
  if (banned_count_ > 0) {
    ++ban_stamp_;  // a real pivot landed: forgive all banned columns
    banned_count_ = 0;
  }

  // ---- Apply the bound flips: toggle each column to its opposite bound
  // and repair the basics with one aggregated FTRAN for the whole batch.
  if (!flips.empty()) {
    WorkVector& fl = flip_;
    fl.reset(m_);
    for (int j : flips) {
      const double step = status_[j] == kNonbasicLower ? hi_[j] - lo_[j]
                                                       : lo_[j] - hi_[j];
      z_est_ += d_[j] * step;  // dual objective gained by the flip
      scatter_work_column(j, step, fl);
      status_[j] =
          status_[j] == kNonbasicLower ? kNonbasicUpper : kNonbasicLower;
      x_[j] = bound_for_status(j, status_[j]);
    }
    sort_unique(fl.idx);
    lu_.ftran(fl);
    for (int i : fl.idx) xb_[i] -= fl.val[i];
  }
  const double delta = xb_[leave_pos] - target;

  // ---- Primal step.
  const double t = delta / wr;
  for (int i : w.idx) xb_[i] -= t * w.val[i];
  const double enter_val =
      (status_[enter_col] == kFree ? x_[enter_col]
                                   : bound_for_status(enter_col, status_[enter_col])) +
      t;

  // ---- Dual step (sparse over the pivot row's nonzeros).
  const double theta = d_[enter_col] / wr;
  z_est_ += theta * delta;  // dual objective gained by the pivot
  // Stall detection on actual dual-objective progress |theta * delta|, not
  // theta alone: numerically-cycling bases make pivots whose theta is
  // nonzero but whose objective gain underflows against z (observed on
  // mass-fixed rematerialization LPs), and those must keep feeding the
  // Bland fallback counter.
  if (std::abs(theta * delta) < 1e-12 * cost_scale_) {
    ++stall_count_;  // degenerate step: no dual progress, candidate cycle
  } else {
    stall_count_ = 0;
  }
  for (int j : alpha_idx_) {
    if (status_[j] == kBasic || j == enter_col) continue;
    d_[j] -= theta * alpha_v_[j];
  }
  d_[leave_col] = -theta;
  d_[enter_col] = 0.0;

  // ---- Dual steepest-edge weight update (Forrest-Goldfarb, with the
  // exact leaving-row norm): beta_r is recomputed from the BTRAN'd rho
  // (cheap -- rho is in hand), tau = B^-1 rho costs one extra FTRAN.
  double beta_r = 0.0;
  for (int i : rho.idx) beta_r += rho.val[i] * rho.val[i];
  WorkVector& tau = flip_;  // the flip batch is done with it
  tau.reset(m_);
  for (int i : rho.idx) tau.val[i] = rho.val[i];
  tau.idx = rho.idx;
  lu_.ftran(tau);
  for (int i : w.idx) {
    if (i == leave_pos || w.val[i] == 0.0) continue;
    const double eta = w.val[i] / wr;
    const double cand_w =
        dse_w_[i] - 2.0 * eta * tau.val[i] + eta * eta * beta_r;
    dse_w_[i] = std::max(cand_w, 1e-10);
  }
  dse_w_[leave_pos] = std::max(beta_r / (wr * wr), 1e-10);

  // ---- Status updates.
  status_[leave_col] = sigma > 0 ? kNonbasicUpper : kNonbasicLower;
  x_[leave_col] = target;
  status_[enter_col] = kBasic;
  basic_var_[leave_pos] = enter_col;
  xb_[leave_pos] = enter_val;

  // ---- Commit the basis change into the factorization: Forrest-Tomlin
  // update in place when stable, else fall back to a full refactorize.
  bool force_refactor = false;
  if (lu_.update(leave_pos)) {
    ++stats_.lp_ft_updates;
    // Refresh triggers: update-count cap, or fill growth past
    // kFtGrowthLimit x the fresh factorization's nnz (the +16m floor keeps
    // tiny bases from thrashing on the ratio alone).
    if (lu_.updates() >= kFtUpdateLimit ||
        lu_.nnz() > static_cast<int64_t>(kFtGrowthLimit * nnz_base_) +
                        16 * static_cast<int64_t>(m_)) {
      if (lu_.updates() < kFtUpdateLimit) ++stats_.lp_ft_growth_refactors;
      force_refactor = true;
    }
  } else {
    // Update rejected for stability (spike growth / tiny new diagonal):
    // the factorization still describes the OLD basis, so rebuild now.
    ++stats_.lp_ft_growth_refactors;
    force_refactor = true;
  }
  if (force_refactor) {
    if (!refactorize()) return 3;
    recompute_reduced_costs();
    recompute_basic_values();
  }
  return 0;
}

LpResult DualSimplex::solve() {
  LpResult result;
  sync_rows();  // adopt rows appended to the LP since the last solve
  ++ban_stamp_;
  banned_count_ = 0;
  wr_fail_streak_ = 0;
  if (!basis_valid_) {
    make_initial_basis();
    needs_refactor_ = false;
    if (!refactorize()) {
      // Leave the engine marked invalid so the next solve() rebuilds from
      // scratch instead of touching the failed factorization.
      basis_valid_ = false;
      result.status = LpStatus::kNumericalError;
      return result;
    }
    recompute_reduced_costs();
    d_dirty_ = false;
  } else if (needs_refactor_) {
    // A restored basis: rebuild the factorization now; a singular restored
    // basis (numerically degenerate snapshot, or an injected
    // snapshot-restore mismatch) falls back to a clean slack basis rather
    // than failing the solve. Bound overrides survive the fallback --
    // make_initial_basis keeps the current lo_/hi_ -- so the recovery
    // re-lifts the branch decisions onto a fresh basis.
    needs_refactor_ = false;
    if (robust::fault(robust::FaultPoint::kSnapshotRestore) ||
        !refactorize()) {
      make_initial_basis();
      if (!refactorize()) {
        basis_valid_ = false;
        result.status = LpStatus::kNumericalError;
        return result;
      }
    }
    d_dirty_ = true;
  }
  if (d_dirty_) {
    // Refresh reduced costs and re-place nonbasic columns on their
    // dual-feasible bounds (bound changes can leave stale d signs).
    recompute_reduced_costs();
    for (int j = 0; j < num_total(); ++j) {
      if (status_[j] == kBasic || status_[j] == kFree) continue;
      if (hi_[j] - lo_[j] < 1e-12) continue;
      if (d_[j] > kOptimalityTol && lo_[j] != -kInf) {
        status_[j] = kNonbasicLower;
        x_[j] = lo_[j];
      } else if (d_[j] < -kOptimalityTol && hi_[j] != kInf) {
        status_[j] = kNonbasicUpper;
        x_[j] = hi_[j];
      }
    }
    d_dirty_ = false;
    xb_dirty_ = true;
  }
  if (xb_dirty_) recompute_basic_values();

  // A warm-started re-solve (e.g. a branch bound change) often starts at a
  // basis whose dual objective already clears the caller's cutoff: prune
  // before the first pivot. The same scan seeds the running estimate the
  // in-loop check triggers on; without a limit neither is needed.
  const bool check_obj_limit = opt_.objective_limit < kInf;
  z_est_ = -kInf;
  if (check_obj_limit) {
    z_est_ = truncated_dual_bound();
    if (z_est_ >= opt_.objective_limit) {
      result.status = LpStatus::kObjectiveLimit;
      result.dual_bound = z_est_;
      result.iterations = 0;
      return result;
    }
  }

  int iters = 0;
  int numerical_retries = 0;
  // Effective deadline: the per-solve wall-clock cap combined with the
  // caller's absolute deadline; cancellation rides the same check. Checked
  // on a cheap stride (every 64 pivots) and once up front so a solve whose
  // deadline already passed returns immediately with a sound bound.
  const robust::Deadline deadline = robust::Deadline::sooner(
      opt_.deadline, robust::Deadline::after(opt_.time_limit_sec));
  if (deadline.expired() || opt_.cancel.cancelled()) {
    result.status = LpStatus::kIterationLimit;
    result.dual_bound = truncated_dual_bound();
    result.iterations = 0;
    return result;
  }
  while (iters < opt_.max_iterations) {
    if ((iters & 0x3f) == 0x3f &&
        (deadline.expired() || opt_.cancel.cancelled())) {
      result.status = LpStatus::kIterationLimit;
      result.dual_bound = truncated_dual_bound();
      result.iterations = iters;
      return result;
    }
    // Deterministic early-out: the dual objective only rises, so once it
    // clears the caller's cutoff the node is prunable no matter where the
    // optimum lands. The estimate is maintained incrementally per pivot
    // (theta * delta plus flip gains) and is only a TRIGGER -- the prune
    // itself re-derives the exact perturbation-corrected bound, so drift
    // in the running sum can cost a wasted check but never soundness.
    if (check_obj_limit && z_est_ >= opt_.objective_limit) {
      const double bound = truncated_dual_bound();
      if (bound >= opt_.objective_limit) {
        result.status = LpStatus::kObjectiveLimit;
        result.dual_bound = bound;
        result.iterations = iters;
        return result;
      }
      z_est_ = bound;  // resync the drifted estimate and keep going
    }
    const int rc = iterate();
    ++iters;
    ++total_iterations_;
    if (rc == 0) continue;
    if (rc == 1) break;  // optimal
    if (rc == 2) {
      result.status = LpStatus::kInfeasible;
      result.objective = kInf;
      result.dual_bound = kInf;
      result.iterations = iters;
      return result;
    }
    if (rc == 3) {
      if (++numerical_retries > 3) {
        basis_valid_ = false;  // force a clean rebuild next time
        result.status = LpStatus::kNumericalError;
        result.iterations = iters;
        return result;
      }
      // Full reset: rebuild from the slack basis.
      make_initial_basis();
      if (!refactorize()) {
        basis_valid_ = false;
        result.status = LpStatus::kNumericalError;
        return result;
      }
      recompute_reduced_costs();
      recompute_basic_values();
      if (check_obj_limit) z_est_ = truncated_dual_bound();
    }
  }
  if (iters >= opt_.max_iterations) {
    result.status = LpStatus::kIterationLimit;
    result.dual_bound = truncated_dual_bound();
    result.iterations = iters;
    return result;
  }

  // Assemble the structural solution (still in the scaled frame).
  result.x.assign(n_, 0.0);
  for (int j = 0; j < n_; ++j)
    if (status_[j] != kBasic) result.x[j] = x_[j];
  for (int i = 0; i < m_; ++i)
    if (basic_var_[i] < n_) result.x[basic_var_[i]] = xb_[i];

  // The artificial-bound check runs on the scaled values (the bound was
  // installed in the scaled frame by make_initial_basis).
  if (used_artificial_bound_) {
    for (int j = 0; j < n_; ++j) {
      if (std::abs(std::abs(result.x[j]) - kArtificialBound) < 1e-3) {
        result.status = LpStatus::kUnbounded;
        result.objective = -kInf;
        result.iterations = iters;
        result.x.clear();
        return result;
      }
    }
  }
  // Unscale to the caller's frame: x_true = x_scaled * q_j (exact -- the
  // factors are powers of two).
  for (int j = 0; j < n_; ++j) result.x[j] *= scale_[j];
  result.status = LpStatus::kOptimal;
  result.objective = lp_->objective_value(result.x);
  result.dual_bound = result.objective;
  result.iterations = iters;
  return result;
}

LpResult solve_lp(const LinearProgram& lp, SimplexOptions options) {
  DualSimplex solver(lp, options);
  return solver.solve();
}

std::ostream& operator<<(std::ostream& os, const SolveStats& stats) {
  const char* sep = "";
  for (const auto& [name, field] : kSolveCounters) {
    os << sep << name << '=' << stats.*field;
    sep = " ";
  }
  return os;
}

}  // namespace checkmate::lp
