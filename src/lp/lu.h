// Sparse LU factorization of a simplex basis matrix, in the style of
// Gilbert-Peierls left-looking LU with partial pivoting. The factorization
// consumes the basis as a list of sparse columns and provides the two solves
// the simplex engine needs:
//
//   ftran: solve B x = b   (b given in row space, x in basis-position space)
//   btran: solve B' y = c  (c given in basis-position space, y in row space)
//
// Between refactorizations the factors can absorb basis changes via
// Forrest-Tomlin updates: update(pos) replaces the column at basis position
// `pos` with the column whose partial solve ftran_spike() stashed last. Each
// update costs one row elimination (recorded as a row eta applied inside
// F^-1 = R_k ... R_1 L^-1) plus a column swap in U, so the expensive full
// refactorization can be deferred for hundreds of pivots instead of ~64.
//
// Hypersparse solves. Every solve runs on a WorkVector (below) and costs
// O(nonzeros touched), not O(m): each triangular pass first finds the
// reach of the right-hand side's nonzeros through the factor's structure
// (Gilbert-Peierls: L columns for the L pass, U columns for the U pass, and
// row-wise copies of U and L for BTRAN's transposed passes), sorts the reach
// into the order the dense loop would visit it (ascending step, descending
// step, or Forrest-Tomlin elimination order), and runs the dense loop's
// body over that sorted reach only. A step outside the reach holds an exact
// zero, so the dense loop does nothing there but flip the sign of zeros:
// the sparse result equals the dense one bit for bit, except possibly the
// sign of exact zeros. When the right-hand side or its reach exceeds a
// fixed fraction of m, or the basis is too small to profit, the pass falls
// back to the dense loop (Hall and McKinnon's density switch) -- a choice
// of speed only, never of result.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

namespace checkmate::lp {

// One sparse basis column handed to the factorization.
struct BasisColumn {
  std::span<const int> rows;
  std::span<const double> values;
};

// Sparse work vector for the solves: dense values plus an index list.
// Contract: `val` has length m and is zero (of either sign) at every
// position not in `idx`; `idx` is ascending, has no repeats, and covers
// every nonzero of `val`. It may also list zeros: an entry that cancelled,
// or every position after a dense pass. The solves keep the contract on
// output, and the count of `idx` is the density they switch on.
struct WorkVector {
  std::vector<double> val;
  std::vector<int> idx;

  // Zeroes the vector at length m: O(|idx|) when the length is unchanged.
  void reset(int m) {
    if (static_cast<int>(val.size()) != m) {
      val.assign(m, 0.0);
    } else {
      for (int i : idx) val[i] = 0.0;
    }
    idx.clear();
  }
  // Lists every position, O(m): for callers that filled val densely (the
  // solves' dense fallback ends the same way).
  void index_all() {
    idx.resize(val.size());
    std::iota(idx.begin(), idx.end(), 0);
  }
};

class LuFactorization {
 public:
  // Factors the m x m basis whose k-th column is cols[k]. Returns false if
  // the basis is numerically singular (no acceptable pivot in some column)
  // or an LU fault is injected; the factors are then a benign identity.
  // Discards any accumulated Forrest-Tomlin updates.
  bool factorize(int m, std::span<const BasisColumn> cols);

  // In-place solves on work vectors of length m. See file comment for the
  // row-space / position-space convention.
  void ftran(WorkVector& x) const;
  void btran(WorkVector& y) const;

  // Partial FTRAN for Forrest-Tomlin: applies only F^-1 (the L factor plus
  // the accumulated row etas), leaving x in row space. The result is stashed
  // as the candidate spike for a subsequent update(); complete the solve
  // with ftran_finish, which yields exactly ftran()'s result.
  void ftran_spike(WorkVector& x);
  void ftran_finish(WorkVector& x) const;

  // Forrest-Tomlin basis replacement: the column at basis position `pos` is
  // replaced by the column ftran_spike() last stashed. Returns false --
  // leaving the factors untouched, caller must refactorize -- when the
  // update would be numerically unstable (tiny replacement diagonal or huge
  // eliminator multipliers) or no spike is pending.
  bool update(int pos);

  // Number of Forrest-Tomlin updates absorbed since the last factorize().
  int updates() const { return static_cast<int>(r_etas_.size()); }

  int dim() const { return m_; }
  // Fill-in diagnostic: total stored nonzeros in L, U, and the FT row etas.
  int64_t nnz() const {
    const int64_t u =
        mutable_u_ ? u_nnz_ : static_cast<int64_t>(u_idx_.size());
    return static_cast<int64_t>(l_idx_.size()) + u + m_ + eta_nnz_;
  }

 private:
  friend struct LuTestAccess;  // pins the sparse or dense path in tests

  void reset_identity(int m);  // benign identity factors after a failure
  void build_transposes();     // row-wise L and U structure for btran
  void lower_solve(WorkVector& x) const;  // x := L^-1 x (row space)
  void apply_etas(WorkVector& x) const;   // x := R_k...R_1 x
  void upper_solve(WorkVector& x) const;  // back-subst + permute
  void ensure_mutable();

  // The numeric loops, each over a sequence of steps (slots for the
  // mutable U) in processing order. The dense path passes every step; the
  // sparse path passes the sorted reach. Same body either way.
  template <class Steps>
  void lower_pass(std::span<double> x, Steps&& steps) const;
  template <class Steps>
  void upper_pass(std::span<double> x, Steps&& steps) const;
  template <class Steps>
  void btran_upper_pass(std::span<double> w, Steps&& steps) const;
  template <class Steps>
  void btran_lower_pass(std::span<const double> w, std::span<double> y,
                        Steps&& steps) const;
  // Sorts reach_ (U steps/slots) into elimination order.
  void sort_reach_by_order(bool descending) const;

  // Reach search. seed_reach starts reach_ at node_of(v) for v in starts,
  // or returns false when the starts already exceed the density limit;
  // close_reach closes the marked nodes in reach_ under children(node),
  // which calls reach_add for each successor, clears the marks, and
  // returns false once the reach outgrows the limit. Either false sends
  // the caller to the dense loop.
  int reach_limit() const;
  template <class NodeOf>
  bool seed_reach(const std::vector<int>& starts, NodeOf&& node_of) const;
  void reach_add(int node) const {
    if (!mark_[node]) {
      mark_[node] = 1;
      reach_.push_back(node);
    }
  }
  template <class Children>
  bool close_reach(Children&& children) const;

  int m_ = 0;

  // L stored by elimination step (column) k: strictly-below-diagonal
  // multipliers indexed by *original row id*. Unit diagonal implicit.
  std::vector<int> l_ptr_, l_idx_;
  std::vector<double> l_val_;
  // Row-wise structure of L by step: lt_idx_[lt_ptr_[k] .. lt_ptr_[k+1])
  // lists the steps whose L column holds row pivot_row_[k] (BTRAN's L'
  // reach).
  std::vector<int> lt_ptr_, lt_idx_;

  // Static U straight out of factorize(), stored by column j:
  // above-diagonal entries indexed by *elimination step*, diagonal kept
  // separately. Used verbatim until the first update() converts to the
  // mutable form below. ut_ptr_/ut_idx_ is its row-wise structure (BTRAN's
  // U' reach): the columns holding an entry in row t.
  std::vector<int> u_ptr_, u_idx_;
  std::vector<double> u_val_;
  std::vector<double> u_diag_;
  std::vector<int> ut_ptr_, ut_idx_;

  std::vector<int> pivot_row_;  // elimination step k -> original row id
  std::vector<int> row_step_;   // original row id -> step (inverse)

  // ---- Mutable U for Forrest-Tomlin updates. A "slot" is an elimination
  // step of the original factorization == a basis position; slots are never
  // renumbered by updates, only their logical elimination ORDER changes
  // (each spiked slot moves to the end). urows_/ucols_ mirror the
  // off-diagonal entries of U by slot, diag_ holds the diagonal.
  bool mutable_u_ = false;
  std::vector<std::vector<std::pair<int, double>>> urows_;  // row s: (t, U[s][t])
  std::vector<std::vector<std::pair<int, double>>> ucols_;  // col t: (s, U[s][t])
  std::vector<double> diag_;
  // Elimination order with monotone position keys: order_[pos_of_[s]] == s,
  // and an update moves its slot to a fresh key at the end, leaving a
  // tombstone (-1) at the old key that the dense loops skip until update()
  // compacts them away. Keys compare in elimination order.
  std::vector<int> order_;
  std::vector<int> pos_of_;
  int64_t u_nnz_ = 0;

  // Row eta from one update: R = I - e_s mu' with mu supported on the slots
  // that eliminated old row s, applied in row space through pivot_row_.
  struct RowEta {
    int slot;
    std::vector<std::pair<int, double>> mu;  // (slot t, multiplier)
  };
  std::vector<RowEta> r_etas_;
  int64_t eta_nnz_ = 0;

  // Spike stash from ftran_spike (dense values in row space, zero outside
  // spike_idx_) and update()'s elimination heap.
  std::vector<double> spike_;
  std::vector<int> spike_idx_;
  bool spike_valid_ = false;
  std::vector<std::pair<int, int>> heap_;  // (position key, slot) min-heap

  // Scratch shared by the solves and update(), length m and zero (marks
  // clear) between calls: work_ holds btran's slot-space vector, the
  // permutation in upper_solve and update()'s eliminated row. A
  // factorization belongs to one engine, which is used by one thread.
  mutable std::vector<char> mark_;
  mutable std::vector<int> reach_;
  mutable std::vector<double> work_;

  // Test hook: kAuto applies the density switch; the others pin a path.
  enum class Path : int8_t { kAuto, kSparse, kDense };
  Path path_ = Path::kAuto;
};

}  // namespace checkmate::lp
