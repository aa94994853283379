// Cutting planes for the Checkmate rematerialization MILPs.
//
// The LP relaxation of the R/S polytope is tight on the objective but
// massively degenerate: the real-model instances prove a 5e-4 gap in
// seconds and then plateau, because thousands of alternative fractional
// optima sit just below the integer optimum. Generic search cannot
// separate them; the structure of the formulation can. Two families of
// globally valid cuts are separated here, both over *knapsack views* of
// the memory-budget rows that the formulation layer exposes through
// FormulationStructure (so this file never parses raw LP rows):
//
//   - lifted cover cuts: each memory row is a 0/1 knapsack over the
//     checkpoint/recompute binaries with coefficients from the tensor-size
//     vector. A cover C (a set of tensors that cannot all be resident) is
//     found greedily against the fractional point, minimalized, and then
//     up-lifted with EXACT sequential lifting coefficients -- the lifting
//     subproblems are tiny integer knapsacks solved by a min-weight-per-
//     profit DP, so the emitted inequality is a proper lifted cover, not
//     just an extended one;
//   - clique cuts: pairs of tensors whose sizes sum past the capacity
//     conflict; the conflict graph of a knapsack is an interval graph
//     whose maximal cliques are enumerable in O(k log k) (the heavy set
//     {w_i > cap/2} plus one clique per lighter item), giving
//     sum x_i <= 1 inequalities that dominate the pairwise covers.
//
// The capacity of each knapsack is NOT a baked constant: it is read from
// the current upper bound of a designated U column (capacity_var) at
// separation time, so cuts automatically respect presolve and
// root-fixing tightenings of the U bounds -- a smaller capacity only
// strengthens the separated cuts, never invalidates them.
//
// The CutPool collects separated cuts across separation sites (root
// rounds, node-local separation inside worker dives), deduplicates them by
// content hash, selects the best by normalized violation in a
// deterministic total order, and ages out entries that keep losing the
// selection. The branch & cut search drives the pool from the coordinator
// only (at epoch barriers, in slot order), which is what keeps cut-pool
// contents -- and therefore the explored tree -- bit-identical for any
// worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "lp/lp_problem.h"

namespace checkmate::lp {
class DualSimplex;  // tableau source for the Gomory separator
}

namespace checkmate::milp {

// One 0/1 knapsack implied by a memory-budget row:
//   sum_j weight_j * x_j <= ub(capacity_var) - capacity_offset
// over binary variables x_j with weight_j > 0. The formulation layer
// derives these from the memory accounting rows (see
// IlpFormulation::cut_structure); capacity_offset folds in the
// fixed overhead plus any mass the precedence structure forces resident.
struct KnapsackItem {
  int var = -1;
  double weight = 0.0;
};

struct KnapsackRow {
  std::vector<KnapsackItem> items;
  int capacity_var = -1;
  double capacity_offset = 0.0;
};

// The structural view the separators consume. Built by the formulation
// layer (core/ilp_builder.h); column indices survive presolve unchanged
// (presolve never renumbers columns), so one structure serves the raw and
// the presolved LP alike.
struct FormulationStructure {
  std::vector<KnapsackRow> knapsacks;
  bool empty() const { return knapsacks.empty(); }
};

// A globally valid inequality terms . x <= rhs (terms sorted by variable,
// integer coefficients for the knapsack families above, fractional for
// Gomory cuts). `violation` is the normalized violation at the LP point
// that separated the cut (selection score); `hash` is a content hash over
// terms and rhs (dedup key). `source` tags the separator family for the
// observability counters only -- it is NOT part of the content hash, so a
// Gomory cut that reproduces a knapsack inequality still deduplicates.
struct Cut {
  std::vector<std::pair<int, double>> terms;
  double rhs = 0.0;
  double violation = 0.0;
  uint64_t hash = 0;
  enum Source : int8_t { kKnapsack = 0, kGomory = 1 };
  int8_t source = kKnapsack;
};

// Content hash (FNV-1a over quantized terms and rhs); also recomputed by
// CutPool::offer when a separator leaves hash at 0.
uint64_t cut_hash(const Cut& cut);

// THE deterministic total order on cuts -- strongest normalized violation
// first, then content tie-breaks. Separation emission order and cut-pool
// selection order both use it; the bit-identity contract needs the two
// sites to agree, so there is exactly one definition.
bool cut_order_before(const Cut& a, const Cut& b);

struct SeparationOptions {
  // Minimum L2-normalized violation for a cut to be emitted.
  double min_violation = 1e-4;
  // Per-call emission cap (the best by violation are kept).
  int max_cuts = 32;
  // Work bound on exact lifting: candidates lifted per cover / total
  // profit mass of the lifting DP.
  int max_lift_candidates = 24;
  int max_lift_profit = 256;
  double feasibility_tol = 1e-9;
};

// Runs both separators against the fractional point `x` (structural
// variables only) and appends every violated cut found to `out`,
// best-violation first, capped at options.max_cuts. Variable bounds are
// read from `lp` (the search's working LP), so presolve fixings and root
// reduced-cost fixings shrink the knapsacks before separation.
// Deterministic: the output is a pure function of (structure, lp bounds,
// x, options).
void separate_knapsack_cuts(const FormulationStructure& structure,
                            const lp::LinearProgram& lp,
                            std::span<const double> x,
                            const SeparationOptions& options,
                            std::vector<Cut>* out);

// Gomory mixed-integer cuts read from the optimal simplex tableau of
// `engine` (which must be at an optimal basis over `lp`; rows whose basis
// is stale are skipped wholesale). For every basic structural integer
// column with a usefully fractional value, the tableau row is shifted to
// the nonbasics' bound frame, the GMI inequality is derived (integer
// nonbasics use the fractional-part formula, continuous nonbasics -- and
// ALL slacks, a valid if slightly weaker choice -- the linear one), and
// slack terms are substituted out through one level of the LP's rows so
// the emitted cut is purely structural. Cuts are only globally valid when
// the engine's bounds ARE the LP's global bounds -- i.e. at the root of
// the search -- which is the only place the branch & cut driver calls
// this. Emitted cuts pass dynamic-ratio and density guards; `x` is the
// fractional point used for the violation score.
void separate_gomory_cuts(const lp::LinearProgram& lp,
                          lp::DualSimplex& engine, std::span<const double> x,
                          const SeparationOptions& options,
                          std::vector<Cut>* out);

struct CutPoolOptions {
  // Pool entries that keep losing the per-barrier selection are evicted
  // after this many age ticks without being re-separated.
  int max_age = 4;
  size_t max_entries = 4096;
};

// Deduplicating store for separated-but-not-yet-added cuts. All methods
// are meant to be called from one thread (the branch & cut coordinator at
// epoch barriers); determinism comes from the content-defined total order
// used by select().
class CutPool {
 public:
  explicit CutPool(CutPoolOptions options = {}) : opt_(options) {}

  // Offers a separated cut. A duplicate of a cut already in the LP is
  // dropped; a duplicate of a pooled cut refreshes that entry's age and
  // keeps the larger violation (activity-based aging: cuts that keep
  // getting re-separated stay alive). Returns true when the pool changed.
  bool offer(Cut cut);

  // Deterministically selects up to max_cuts pooled cuts -- ordered by
  // (violation desc, hash asc, rhs asc) -- marks them as in-LP and
  // returns them in selection order. The caller appends them as LP rows.
  std::vector<Cut> select(int max_cuts);

  // One aging step (called at epoch barriers): pooled entries not in the
  // LP age by one; entries past max_age are evicted, and the pool is
  // trimmed to max_entries keeping the best by the selection order.
  void age_tick();

  // Binds just-appended LP rows to their pool entries (matched by content;
  // `chosen` is the select() output and `row_ids` the per-cut stable row
  // ids the caller's LP assigned). Enables age_in_lp below.
  void bind_rows(std::span<const Cut> chosen,
                 std::span<const int64_t> row_ids);

  // Aging for the in-LP population: entries whose cut `loose` judges slack
  // (not supporting the current relaxation point) age by one, tight ones
  // rejuvenate. Entries loose for more than max_age consecutive calls are
  // dropped from the pool and their bound row ids returned -- the caller
  // physically deletes those rows from its LP (snapshot row-id remapping
  // makes that safe) and rebuilds its engines.
  std::vector<int64_t> age_in_lp(const std::function<bool(const Cut&)>& loose);

  int64_t cuts_selected() const { return selected_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Cut cut;
    int age = 0;
    bool in_lp = false;
    int64_t row_id = -1;  // LP row backing an in_lp entry, -1 = unbound
    int lp_age = 0;       // consecutive age_in_lp calls judged loose
  };
  static bool order_before(const Entry& a, const Entry& b);
  CutPoolOptions opt_;
  std::vector<Entry> entries_;
  int64_t selected_ = 0;
};

}  // namespace checkmate::milp
