// Sparse bounded-variable dual simplex.
//
// The engine works on the computational form
//
//   minimize c'x   subject to   A x - s = 0,   lb <= x <= ub,
//                               row_lb <= s <= row_ub
//
// i.e. the working matrix is W = [A | -I] and every constraint is an
// equality against zero with slack activity bounded by the row range. The
// initial all-slack basis is made dual feasible by placing each nonbasic
// column at its sign-correct bound (cost-shifted bound flips); primal
// feasibility is then restored by dual simplex pivots.
//
// Dual simplex is chosen over primal because branch-and-bound re-solves
// after bound changes: bound changes preserve dual feasibility, so every
// B&B node warm-starts from the parent basis.
//
// Hot-path design (the system's innermost loop -- every B&B node and every
// solved sweep query bottoms out here):
//   - leaving row by dual steepest-edge weights (Forrest-Goldfarb,
//     updated exactly per pivot with one extra FTRAN of the pivot row);
//   - two-pass long-step ratio test with bound flips: boxed columns whose
//     reduced cost would change sign flip to the opposite bound instead of
//     pivoting, so one pivot absorbs whole runs of degenerate steps -- the
//     decisive move on 0/1 scheduling LPs where almost every column is
//     boxed [0,1];
//   - hypersparse pricing: alpha = W' rho accumulated over the nonzeros of
//     the BTRAN'd rho via the SparseMatrix row mirror, into a stamped
//     sparse scratch (no per-pivot dense pass over all columns);
//   - hypersparse FTRAN/BTRAN: rho, the entering column, the flip column
//     and the steepest-edge tau ride in sparse work vectors (lp/lu.h), so
//     the solves, the pricing pass, the basic-value updates and the
//     steepest-edge weight loop all walk index lists, not all m rows.
//
// Basis representation: sparse LU (Gilbert-Peierls) with Forrest-Tomlin
// updates: each pivot folds into the factors as one row eta plus a column
// replacement, and the full refactorization waits until the update count
// or fill growth crosses its limit, or an update is rejected as unstable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "lp/lp_problem.h"
#include "lp/lu.h"
#include "lp/sparse_matrix.h"
#include "robust/deadline.h"

namespace checkmate::lp {

struct SimplexOptions {
  int max_iterations = 200000;
  // Wall-clock cap for a single solve() call; exceeded => kIterationLimit.
  double time_limit_sec = 60.0;
  // Dual objective cutoff: once the (perturbation-corrected) dual bound of
  // the current basis provably exceeds this, solve() exits with
  // kObjectiveLimit instead of grinding to optimality. Checked on a fixed
  // iteration cadence, so truncation points are machine-independent.
  double objective_limit = kInf;
  // Curtis-Reid geometric-mean scaling at engine load time: equilibrates
  // the badly-ranged memory rows (byte coefficients vs. 0/1 logic rows) by
  // least-squares log2 row/column factors rounded to powers of two, so
  // scaling and unscaling are exact and the solution/duals extract
  // bit-clean. Snapshots carry the scaling identity; engines over the same
  // LP derive identical factors, preserving the restore contract.
  bool scaling = true;
  // Absolute deadline and cancellation token, checked on the same cheap
  // iteration stride as the wall-clock limit. Either trips the solve into
  // kIterationLimit with a sound truncated dual bound. Both default inert.
  robust::Deadline deadline;
  robust::CancelToken cancel;
};

// The deterministic work counters of one solve, declared once. DualSimplex
// increments only the lp_* engine counters; branch & bound adds the search
// counters and sums engine deltas (operator-) into its result.
// milp::MilpResult and ScheduleResult inherit the struct, and the bench
// JSON is written from kSolveCounters. Every counter is bit-identical for
// any num_threads: each slot's engine trajectory is snapshot-pure.
struct SolveStats {
  int64_t nodes = 0;
  int64_t lp_iterations = 0;    // cumulative simplex iterations
  int64_t cuts_added = 0;       // cut rows appended (root rounds + barriers)
  int64_t strong_branches = 0;  // reliability-branching probe solves
  int64_t gomory_cuts = 0;      // of cuts_added: from the Gomory separator
  int64_t cuts_removed = 0;     // cut rows later deleted by in-LP aging
  int64_t root_fixings = 0;     // variables fixed by root reduced-cost fixing
  int64_t lp_refactorizations = 0;  // full LU rebuilds
  int64_t lp_ft_updates = 0;        // Forrest-Tomlin updates absorbed
  // Refactorizations forced by FT fill growth or an unstable update (a
  // subset of lp_refactorizations; the rest are cadence/anti-stall/restore).
  int64_t lp_ft_growth_refactors = 0;
  int64_t lp_pricing_resets = 0;  // partial-pricing candidate-list rebuilds

  SolveStats& operator+=(const SolveStats& other);
  bool operator==(const SolveStats&) const = default;
};

// Every SolveStats counter with its bench-JSON key, in row order.
inline constexpr std::pair<const char*, int64_t SolveStats::*>
    kSolveCounters[] = {
        {"nodes", &SolveStats::nodes},
        {"lp_iterations", &SolveStats::lp_iterations},
        {"cuts", &SolveStats::cuts_added},
        {"strong_branches", &SolveStats::strong_branches},
        {"gomory_cuts", &SolveStats::gomory_cuts},
        {"cuts_removed", &SolveStats::cuts_removed},
        {"root_fixings", &SolveStats::root_fixings},
        {"lp_refactorizations", &SolveStats::lp_refactorizations},
        {"lp_ft_updates", &SolveStats::lp_ft_updates},
        {"lp_ft_growth_refactors", &SolveStats::lp_ft_growth_refactors},
        {"lp_pricing_resets", &SolveStats::lp_pricing_resets},
};

inline SolveStats& SolveStats::operator+=(const SolveStats& other) {
  for (const auto& [name, field] : kSolveCounters)
    this->*field += other.*field;
  return *this;
}

// The growth of a cumulative counter set since `base`.
inline SolveStats operator-(SolveStats now, const SolveStats& base) {
  for (const auto& [name, field] : kSolveCounters) now.*field -= base.*field;
  return now;
}

// "name=value" over kSolveCounters (the gtest printer of the tests).
std::ostream& operator<<(std::ostream& os, const SolveStats& stats);

// Engine-independent capture of the warm-start-relevant simplex state:
// basis status, the basic-position assignment, bound overrides relative to
// the base LinearProgram, and the values of free nonbasic columns. The LU
// factors are deliberately NOT captured -- a restoring engine refactorizes
// lazily on its next solve(), so a snapshot is a few dozen KB
// even for the large rematerialization LPs and two sibling B&B nodes can
// share one via shared_ptr. Restoring into ANY engine built over the same
// LinearProgram (same options) yields the same solve trajectory, which is
// what lets the parallel tree search hand a child node to whichever worker
// thread picks it up.
struct BasisSnapshot {
  struct BoundOverride {
    int col;  // structural j in [0, n) or slack n + row
    double lo, hi;
  };
  // Row count of the LP when the snapshot was captured, plus the identity
  // (LinearProgram::row_ids) of each of those rows. Cut rows append to a
  // working LP between epochs and aged-out cut rows are garbage-collected
  // from it, so the row set a snapshot was captured over and the row set it
  // restores into may differ in both directions. restore() matches rows by
  // id: when the snapshot's ids are a prefix of the LP's (the common pure-
  // append case) the basis is adopted directly and newer rows' slacks made
  // basic; otherwise surviving rows keep their captured basis state,
  // removed rows' basic columns are re-placed deterministically (structural
  // -> its sign-correct bound, vanished slack -> the position's own slack),
  // and a full consistency validation guards the result -- any mismatch
  // falls back to the fresh slack basis with the bound overrides kept.
  // Either way the restored state is a pure function of (snapshot, current
  // LP), which is the parallel-search determinism contract.
  int num_rows = 0;
  std::vector<int64_t> row_ids;  // size num_rows when valid
  std::vector<int8_t> status;                       // size n + num_rows
  std::vector<int> basic_var;                       // size num_rows
  std::vector<BoundOverride> bounds;                // cols differing from the LP
  std::vector<std::pair<int, double>> free_values;  // x of kFree columns
  // Dual steepest-edge weights by basis position (size num_rows when
  // captured).
  // The weights approximate ||B^-T e_i||^2 of the captured basis, so
  // carrying them keeps exact pricing quality across the parallel B&B's
  // snapshot/restore handoffs; a restoring engine without them (invalid or
  // foreign snapshot) deterministically resets to the unit frame -- either
  // way the post-restore trajectory is a pure function of the snapshot,
  // preserving the bit-identity contract.
  std::vector<double> dse_weights;
  // Hash of the engine's Curtis-Reid scale exponents. Everything numeric
  // in the snapshot is stored in the TRUE frame (exactly, since the scale
  // factors are powers of two) except the steepest-edge weights, which are
  // norms in the scaled frame: on a scaling-identity mismatch restore()
  // resets them to the unit frame instead of carrying garbage. Engines
  // over the same LinearProgram (same scaling_rows prefix) always agree,
  // so the bit-exact clone/restore contract is unaffected.
  uint64_t scaling_hash = 0;
  bool used_artificial_bound = false;
  // False (the default-constructed snapshot): restore() resets the engine
  // to its freshly-constructed state (next solve builds the slack basis).
  bool valid = false;
};

class DualSimplex {
 public:
  explicit DualSimplex(const LinearProgram& lp, SimplexOptions options = {});

  // Overrides the bounds of structural variable j (branch-and-bound).
  // Preserves the current basis; the next solve() re-optimizes.
  void set_var_bounds(int var, double lower, double upper);

  // Adopts rows appended to the underlying LinearProgram since this engine
  // last saw it (branch & cut appends cut rows to the shared working LP at
  // epoch barriers). Each new row's slack becomes basic -- the basis stays
  // nonsingular because the new slack columns extend it block-triangularly
  // -- its steepest-edge weight starts at the unit frame, and the
  // factorization is rebuilt lazily on the next solve(). Idempotent; also
  // invoked by restore() and solve(), so callers normally never need it
  // explicitly. Rows must only ever be appended, never removed.
  void sync_rows();
  // Current (possibly branch-overridden) bounds in the ORIGINAL frame;
  // internally bounds live scaled, and the scale factors are powers of two
  // so the round trip through set_var_bounds is exact.
  double var_lower(int var) const { return lo_[var] * scale_[var]; }
  double var_upper(int var) const { return hi_[var] * scale_[var]; }

  // Solves (or re-solves after bound changes) to optimality.
  LpResult solve();

  // Captures the current basis + bound state (see BasisSnapshot). Taken
  // before the first solve() the snapshot is marked invalid and restores to
  // the fresh-engine state.
  BasisSnapshot snapshot() const;

  // Adopts a snapshot previously captured from this engine or any clone
  // over the same LinearProgram: bounds are reset to the base LP and the
  // snapshot's overrides reapplied, the basis is adopted as-is, and the
  // factorization is rebuilt lazily on the next solve(). Reduced costs are
  // cleared (recomputed on the next solve), so the post-restore trajectory
  // is independent of this engine's prior history -- the determinism
  // contract the parallel branch & bound relies on.
  void restore(const BasisSnapshot& snap);

  // A fresh engine over the same LinearProgram restored to snapshot().
  // Iteration accounting starts at zero in the clone; each engine's
  // iterations_total() is monotone over its own solves only.
  DualSimplex clone() const;

  // Adjusts the per-solve wall-clock cap (branch & bound shrinks it to its
  // remaining budget).
  void set_time_limit(double seconds) { opt_.time_limit_sec = seconds; }

  // Adjusts the dual objective cutoff for subsequent solve() calls (branch
  // & bound passes the incumbent prune threshold). kInf disables it.
  void set_objective_limit(double limit) { opt_.objective_limit = limit; }

  // Adjusts the per-solve pivot cap (reliability branching runs its
  // strong-branch probes under a small deterministic cap, then restores
  // the configured value).
  void set_iteration_limit(int iterations) { opt_.max_iterations = iterations; }
  int iteration_limit() const { return opt_.max_iterations; }

  int64_t iterations_total() const { return total_iterations_; }

  // Cumulative engine counters over every solve on this instance.
  const SolveStats& stats() const { return stats_; }

  // Reduced costs of the structural columns at the current basis (valid
  // after an optimal solve(); computed against the perturbed costs, so
  // consumers must budget a small safety margin), unscaled to the original
  // frame. Branch & bound reads these at the root for reduced-cost fixing.
  std::vector<double> structural_reduced_costs() const {
    std::vector<double> out(d_.begin(), d_.begin() + n_);
    for (int j = 0; j < n_; ++j) out[j] /= scale_[j];
    return out;
  }

  // ---- Tableau inspection (valid after an optimal solve; Gomory cut
  // separation reads basis rows in the original, unscaled frame).
  enum Status : int8_t { kNonbasicLower, kNonbasicUpper, kBasic, kFree };
  int num_rows() const { return m_; }
  int basic_col(int pos) const { return basic_var_[pos]; }
  int col_status(int col) const { return status_[col]; }
  // Value of the basic column at basis position `pos`, unscaled.
  double basic_value(int pos) const {
    return xb_[pos] * scale_[basic_var_[pos]];
  }
  // Value of a nonbasic column, unscaled (bound or free value).
  double nonbasic_value(int col) const { return x_[col] * scale_[col]; }
  // Simplex tableau row of basis position `pos`: every nonbasic column
  // (structural or slack; |coef| > 1e-11) in the identity
  //   x_B[pos] + sum_k coefs[k] * x[cols[k]] = 0
  // in the original (unscaled) frame -- the working form is homogeneous, so
  // rows have no constant term; the current basic value is basic_value(pos)
  // with nonbasics at nonbasic_value(). Costs one BTRAN + one hypersparse
  // pivot-row pass; returns false when the basis is not factorized.
  bool tableau_row(int pos, std::vector<int>& cols,
                   std::vector<double>& coefs);

 private:
  int num_total() const { return n_ + m_; }
  bool is_slack(int col) const { return col >= n_; }

  // W[:, col]' . dense (dense has length m_).
  double dot_work_column(int col, const std::vector<double>& dense) const;
  // dense += alpha * W[:, col].
  void axpy_work_column(int col, double alpha,
                        std::vector<double>& dense) const;
  // The same on a work vector, appending the touched rows to x.idx
  // (unsorted and possibly repeated until the caller sorts them).
  void scatter_work_column(int col, double alpha, WorkVector& x) const;

  bool refactorize();            // rebuild LU from current basis
  void recompute_reduced_costs();
  void recompute_basic_values();
  void make_initial_basis();
  double bound_for_status(int col, int status) const;
  // Curtis-Reid scale factors for the constructor (fills scale_ and
  // scaling_hash_; all-ones when opt_.scaling is off or the ranges are
  // already balanced enough that every rounded factor is 1).
  void compute_scaling(const LinearProgram& lp);
  // Partial pricing: rebuilds the leaving-row candidate list with a full
  // deterministic scan (worst violations by dse-scaled score).
  void rebuild_price_list();
  // Leaving-row selection (full scan, or over the candidate list when
  // partial pricing is engaged). Returns -1 when primal feasible.
  int select_leave_row(bool bland);

  // Hypersparse pivot-row computation: alpha = W' rho accumulated over the
  // nonzeros of rho only (CSR rows of A + the slack diagonal), written into
  // the stamped scratch alpha_v_ / alpha_idx_.
  void compute_pivot_row(const WorkVector& rho);

  // Dual objective of the current (dual-feasible) basis corrected for the
  // cost perturbation: a sound lower bound on the true LP optimum, used to
  // populate LpResult::dual_bound on truncated exits. -inf when no finite
  // correction exists (a perturbed column with an unbounded hot side).
  double truncated_dual_bound() const;

  // One dual simplex pivot. Returns:
  //   0: pivoted, 1: optimal, 2: infeasible, 3: numerical trouble
  int iterate();

  const LinearProgram* lp_;
  SimplexOptions opt_;
  SparseMatrix a_;  // structural columns (Curtis-Reid scaled)
  int n_ = 0, m_ = 0;
  // Count of lp_->entries already folded into a_; sync_rows() consumes the
  // tail (appended cut rows reference only rows >= m_).
  size_t entries_synced_ = 0;

  // Curtis-Reid column scale factors, size n+m: structural j holds q_j
  // (internal x~_j = x_j / q_j), slack n+i holds 1/r_i so the slack column
  // of the scaled working matrix stays exactly -1. All powers of two, so
  // every scale/unscale is exact in floating point. All-ones when scaling
  // is off, which keeps the engine bit-identical to the unscaled build.
  std::vector<double> scale_;
  uint64_t scaling_hash_ = 0;
  // Identity of each LP row this engine has adopted (mirrors
  // LinearProgram::row_ids; synthesized 0..m-1 for LPs that don't carry
  // ids). Captured into snapshots for restore-time row remapping.
  std::vector<int64_t> row_ids_;

  std::vector<double> cost_;     // size n+m (slack cost 0), scaled
  std::vector<double> lo_, hi_;  // size n+m, current (overridden), scaled

  std::vector<int8_t> status_;   // size n+m
  std::vector<int> basic_var_;   // size m: column index in basis position i
  std::vector<double> x_;        // nonbasic values (valid where nonbasic)
  std::vector<double> xb_;       // basic values by basis position
  std::vector<double> d_;        // reduced costs, size n+m

  LuFactorization lu_;

  bool basis_valid_ = false;
  bool needs_refactor_ = false;  // restored basis awaiting a lazy refactorize
  bool xb_dirty_ = true;
  bool d_dirty_ = false;
  bool used_artificial_bound_ = false;
  int64_t nnz_base_ = 0;  // factor nnz right after the last refactorize
  SolveStats stats_;
  // Partial-pricing candidate list (basis positions, worst-first) and its
  // refresh bookkeeping; dirtied by anything that moves many basics at
  // once (restore, refactorize-with-recompute, row sync).
  std::vector<int> price_cand_;
  int price_countdown_ = 0;
  bool price_dirty_ = true;
  // Cumulative across every solve() on this instance; branch & bound runs
  // millions of warm-started re-solves, so this must not wrap at int range.
  int64_t total_iterations_ = 0;
  int stall_count_ = 0;
  double cost_scale_ = 1.0;  // max |obj| coefficient; stall-progress scale
  // Entering columns rejected for persistent FTRAN/BTRAN pivot-element
  // disagreements, kept as a stamp set so several junk columns can be
  // sidelined at once; cleared by the next successful pivot (and at
  // solve() entry, keeping the trajectory a pure function of basis +
  // bounds).
  std::vector<int64_t> banned_mark_;
  int64_t ban_stamp_ = 1;
  int banned_count_ = 0;  // bans since the last successful pivot
  int wr_fail_streak_ = 0;
  // Running dual-objective estimate during a solve() (incremented by each
  // pivot's theta*delta and each flip's d*step); trigger-only, see solve().
  double z_est_ = -kInf;

  // Dual steepest-edge weights by basis position (approximate
  // ||B^-T e_i||^2; reset to the unit frame on make_initial_basis and on
  // restore-without-weights, floored at 1e-10 against cancellation).
  std::vector<double> dse_w_;

  // Per-iteration scratch (avoids ~100KB of allocation per pivot). The
  // solve vectors are sparse work vectors, cleared in O(nnz); the pivot
  // row alpha lives in a stamped sparse scratch: alpha_v_ holds values,
  // alpha_idx_ the touched columns, and alpha_mark_[j] == stamp marks
  // validity -- no O(n+m) memset per pivot.
  WorkVector rho_, w_, flip_;
  std::vector<double> alpha_v_;
  std::vector<int> alpha_idx_;
  std::vector<int64_t> alpha_mark_;
  int64_t alpha_stamp_ = 0;
  struct RatioCandidate {
    double ratio;      // |d_j / alpha_j|: dual step at which d_j hits zero
    double abs_alpha;  // pivot magnitude (tie-break + flip slope)
    int col;
  };
  std::vector<RatioCandidate> cand_scratch_;
  std::vector<int> flip_cols_;
};

// Convenience: solve the LP relaxation of `lp` with a fresh engine.
LpResult solve_lp(const LinearProgram& lp, SimplexOptions options = {});

}  // namespace checkmate::lp
