#include "milp/branch_and_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "lp/simplex.h"
#include "milp/cuts.h"
#include "milp/presolve.h"
#include "robust/fault_injection.h"

namespace checkmate::milp {

namespace {

using Clock = std::chrono::steady_clock;

// A slot never solves more than this many nodes per epoch: long dives would
// otherwise leave the epoch's other workers idle at the barrier, but SHORT
// dives are worse -- cutting a dive before it reaches an integral leaf
// starves the search of incumbents and was measured pathological on
// vgg16_mid_budget (64: 13694 nodes; 256: 4091 nodes, 3x less wall time;
// dives there never exceed 256, so larger caps change nothing). The cap is
// a fixed constant -- like kEpochWidth it is part of the deterministic
// search semantics and must not depend on the worker count.
constexpr int64_t kMaxDiveNodes = 256;

// Nodes deterministically popped from the shared queue per lockstep epoch.
// Unlike num_threads this IS part of the search semantics: a different
// width explores a different tree (a wider epoch expands more frontier
// nodes against the same epoch-start incumbent). It also caps the useful
// worker count (resolve_tree_threads).
constexpr int kEpochWidth = 4;

// Distance from the nearest integer below which a value counts as
// integral (branching candidates, incumbent validation, reduced-cost
// fixing).
constexpr double kIntegralityTol = 1e-6;

// Branch & cut budgets. Separation rounds at the root (each round re-solves
// the root LP on the cut-tightened relaxation and re-separates); cuts
// appended per root round / per epoch barrier (best by normalized
// violation, deterministic order); a hard cap on cut rows appended over the
// whole search (bounds every engine's basis size); workers separate on the
// node LP solution every kCutNodeInterval dive depths (the root is always
// separated); pool entries losing the selection kCutMaxAge barriers in a
// row are evicted (activity-based aging; re-separation resets the clock).
constexpr int kMaxRootCutRounds = 8;
constexpr int kMaxCutsPerRound = 24;
constexpr int64_t kMaxCutsTotal = 256;
constexpr int kCutNodeInterval = 8;
constexpr int kCutMaxAge = 4;

// Reliability branching. A variable with fewer than kReliability pseudocost
// observations in a direction is unreliable; up to kStrongBranchCandidates
// of them (top of the pseudocost score order within the best priority tier)
// are probed per node, each probe capped at kStrongBranchIterations pivots
// (deterministic, machine-independent). Once the committed probe count
// crosses kStrongBranchBudget the search runs on pseudocosts alone; the
// count is projected like the other deterministic work limits (epoch-start
// committed total plus the slot's own probes), so the cutover point is
// worker-count invariant.
constexpr int64_t kReliability = 4;
constexpr size_t kStrongBranchCandidates = 2;
constexpr int kStrongBranchIterations = 50;
constexpr int64_t kStrongBranchBudget = 512;

// The incumbent heuristic runs at the root and then every
// kHeuristicInterval nodes; the effective interval backs off exponentially
// while the heuristic fails to improve the incumbent and snaps back on
// success.
constexpr int64_t kHeuristicInterval = 64;

struct BoundChange {
  int var;
  double lo, hi;
};

// Bound changes live in an append-only arena; each entry points at its
// parent, so a node's root path is its parent chain and children share
// every prefix without copying. Workers read the arena during the solve
// phase (it is frozen then) and create local entries that the coordinator
// rebases into the shared arena at commit.
struct PathEntry {
  int parent;  // arena index, -1 at the root
  BoundChange change;
};

// An open node: an arena path, the branching decision that created it (for
// the pseudocost update when its LP is solved), the parent's final basis to
// warm-start from, and a commit sequence number for deterministic queue
// tie-breaks.
struct OpenNode {
  int path = -1;
  double bound = -lp::kInf;  // parent relaxation: lower bound for the subtree
  int branch_var = -1;
  bool branch_up = false;
  double branch_frac = 0.0;
  int64_t seq = 0;
  std::shared_ptr<const lp::BasisSnapshot> warm;  // null at the root
};

struct PseudocostStore {
  std::vector<double> sum[2];
  std::vector<int64_t> cnt[2];
  double global_sum[2] = {0.0, 0.0};
  int64_t global_cnt[2] = {0, 0};

  void init(int num_vars) {
    for (int d = 0; d < 2; ++d) {
      sum[d].assign(num_vars, 0.0);
      cnt[d].assign(num_vars, 0);
    }
  }
  // Average observed per-unit objective degradation for branching var j in
  // direction d (0 = down, 1 = up). Unobserved variables inherit the global
  // average; with no observations at all the default of 1.0 makes the
  // pseudocost score degenerate to most-fractional ordering.
  double rate(int d, int j) const {
    if (cnt[d][j] > 0) return sum[d][j] / static_cast<double>(cnt[d][j]);
    if (global_cnt[d] > 0)
      return global_sum[d] / static_cast<double>(global_cnt[d]);
    return 1.0;
  }
  void add(int d, int j, double unit) {
    sum[d][j] += unit;
    cnt[d][j] += 1;
    global_sum[d] += unit;
    global_cnt[d] += 1;
  }
};

struct PcObservation {
  int dir;
  int var;
  double unit;
};

struct IncumbentCandidate {
  double objective;
  std::vector<double> x;
};

// Everything a slot produced, committed in slot order at the barrier. The
// counters include the engine's growth over the slot's solves.
struct SlotResult : lp::SolveStats {
  std::vector<PathEntry> entries;  // local arena entries (refs >= shared base)
  std::vector<OpenNode> children;  // for the open queue (paths may be local)
  std::vector<PcObservation> pc_obs;
  std::vector<IncumbentCandidate> incumbents;
  // Cuts separated at this slot's node LP solutions (node-local
  // separation). Globally valid by construction; the coordinator offers
  // them to the pool in slot order at the barrier.
  std::vector<Cut> cuts;
  std::vector<double> heur_x;  // first fractional LP solution of the slot
  double heur_obj = lp::kInf;
  bool solved_root = false;
  bool root_lp_ok = false;
  double root_relaxation = lp::kInf;
  // Captured at the root only: the LP solution and structural reduced
  // costs that drive reduced-cost fixing for the rest of the search.
  std::vector<double> root_x;
  std::vector<double> root_redcost;
  // Root basis (captured only when cut separation is on): the root
  // separation rounds restore it to re-solve the root on the cut-
  // tightened LP.
  std::shared_ptr<const lp::BasisSnapshot> root_snap;
  // Subtrees lost to LP numerical trouble / per-node limits: the search is
  // incomplete and these bounds cap the reportable global bound.
  bool dropped = false;
  double dropped_bound = lp::kInf;
};

class EpochSearch {
 public:
  EpochSearch(const lp::LinearProgram& lp, const MilpOptions& options,
              const IncumbentHeuristic& heuristic)
      : lp_(lp),
        opt_(options),
        heuristic_(heuristic),
        start_(Clock::now()),
        heur_interval_(kHeuristicInterval) {
    tree_workers_ = resolve_tree_threads(opt_);
    // The base rows define the Curtis-Reid scaling prefix: cut rows
    // appended mid-search keep unit row scale, so EVERY engine constructed
    // over this LP -- before or after any append -- derives the identical
    // scale vector, which is what lets basis snapshots carry steepest-edge
    // weights across engines bit-exactly.
    lp_.scaling_rows = lp_.num_rows();
    for (int j = 0; j < lp.num_vars(); ++j)
      if (lp.is_integer[j]) int_vars_.push_back(j);
    pc_.init(lp.num_vars());
    fix_done_.assign(static_cast<size_t>(lp.num_vars()), 0);
    workers_.resize(static_cast<size_t>(tree_workers_));
    // First-incumbent (feasibility-probe) searches stop at the first
    // feasible point: cut rounds and strong-branch probes pay off through
    // bound pruning, which such a search never reaches, so both are off
    // there.
    knapsack_cuts_on_ =
        opt_.cut_structure != nullptr && !opt_.cut_structure->empty();
    // Gomory separation reads the root tableau, so it needs no structural
    // view -- generic MILPs get root cut rounds too.
    cuts_on_ = !int_vars_.empty() && !opt_.stop_at_first_incumbent;
    reliability_on_ = !opt_.stop_at_first_incumbent;
    cut_pool_ = CutPool(CutPoolOptions{kCutMaxAge, 4096});
  }

  ~EpochSearch() {
    {
      std::lock_guard lock(pool_mu_);
      pool_shutdown_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
  }

  MilpResult run() {
    for (const auto& seed : opt_.initial_solutions) offer_candidate(seed);
    search();
    result_.seconds = elapsed();

    if (result_.has_solution()) {
      if (external_bound_met_) {
        // Terminated against the caller's lower bound: report that bound
        // (not the incumbent) so the proven gap is stated honestly.
        result_.best_bound =
            std::min(opt_.known_lower_bound, result_.objective);
        result_.status = MilpStatus::kOptimal;
      } else if (search_complete_) {
        result_.best_bound = result_.objective;  // proved within gap
        result_.status = MilpStatus::kOptimal;
      } else {
        result_.best_bound = sound_incomplete_bound();
        result_.status = MilpStatus::kFeasible;
      }
    } else {
      result_.status =
          search_complete_ ? MilpStatus::kInfeasible : MilpStatus::kNoSolution;
      result_.best_bound =
          search_complete_ ? lp::kInf : sound_incomplete_bound();
    }
    return result_;
  }

 private:
  // ------------------------------------------------------------- shared
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Lower bound valid when the search tree was truncated: unexplored
  // subtrees are bounded by their parent relaxations; if the stop happened
  // before any node finished (e.g. first-incumbent mode at a seed), fall
  // back to the root relaxation.
  double sound_incomplete_bound() const {
    double b = open_bound_;
    if (b == lp::kInf) {
      b = result_.root_relaxation != lp::kInf ? result_.root_relaxation
                                              : -lp::kInf;
    }
    return std::min(b, result_.objective);
  }

  bool limits_hit() {
    if (stop_) return true;
    if (result_.nodes >= opt_.max_nodes ||
        result_.lp_iterations >= opt_.max_lp_iterations ||
        elapsed() > opt_.time_limit_sec || opt_.deadline.expired() ||
        opt_.cancel.cancelled()) {
      stop_ = true;
      search_complete_ = false;
    }
    return stop_;
  }

  // Wall-clock budget still available to the search: the per-solve time
  // limit combined with the caller's absolute deadline. Cancellation is
  // treated as an expired budget everywhere this is consulted.
  double remaining_sec() const {
    const double rem = std::min(opt_.time_limit_sec - elapsed(),
                                opt_.deadline.remaining_sec());
    return opt_.cancel.cancelled() ? 0.0 : rem;
  }

  static double prune_threshold_for(double incumbent_obj, double gap) {
    if (incumbent_obj == lp::kInf) return lp::kInf;
    return incumbent_obj - gap * std::max(1.0, std::abs(incumbent_obj)) -
           1e-9;
  }
  double prune_threshold() const {
    return prune_threshold_for(result_.objective, opt_.relative_gap);
  }

  void try_incumbent(const std::vector<double>& x, double objective) {
    if (objective >= result_.objective - 1e-12) return;
    result_.objective = objective;
    result_.x = x;
    if (opt_.stop_at_first_incumbent) {
      stop_ = true;
      search_complete_ = false;
    }
  }

  // Validates and possibly accepts a heuristic/rounded/seeded candidate.
  void offer_candidate(const std::vector<double>& x) {
    if (static_cast<int>(x.size()) != lp_.num_vars()) return;
    for (int j : int_vars_) {
      const double f = x[j] - std::floor(x[j]);
      if (std::min(f, 1.0 - f) > kIntegralityTol) return;
    }
    if (lp_.max_violation(x) > 1e-6) return;
    try_incumbent(x, lp_.objective_value(x));
  }

  // True once the incumbent is within the relative gap of the
  // caller-guaranteed external lower bound (if any).
  bool external_bound_met() const {
    if (!result_.has_solution() || opt_.known_lower_bound == -lp::kInf)
      return false;
    return result_.objective - opt_.known_lower_bound <=
           opt_.relative_gap * std::max(1.0, std::abs(result_.objective)) +
               1e-12;
  }

  static bool open_after(const OpenNode& a, const OpenNode& b) {
    // Min-heap on (bound, creation sequence): best-bound order with an
    // explicit deterministic tie-break.
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.seq > b.seq;
  }

  void push_open(OpenNode&& node) {
    node.seq = next_seq_++;
    open_.push_back(std::move(node));
    std::push_heap(open_.begin(), open_.end(), open_after);
  }

  OpenNode pop_open() {
    std::pop_heap(open_.begin(), open_.end(), open_after);
    OpenNode n = std::move(open_.back());
    open_.pop_back();
    return n;
  }

  double open_min_bound() const {
    return open_.empty() ? lp::kInf : open_.front().bound;
  }

  // ------------------------------------------------------------ epochs
  void search() {
    std::vector<OpenNode> slots;
    std::vector<SlotResult> results;
    for (;;) {
      if (external_bound_met()) {
        external_bound_met_ = true;
        return;
      }
      if (limits_hit()) break;
      // Gap termination: once every open subtree is bounded within the
      // relative gap of the incumbent, the incumbent is optimal-within-gap
      // -- no need to grind the remaining nodes.
      if (result_.has_solution() && root_done_ &&
          open_min_bound() >= prune_threshold())
        return;

      slots.clear();
      if (!root_done_) {
        slots.push_back(OpenNode{});  // the root: empty path, -inf bound
      } else {
        const double thresh = prune_threshold();
        while (static_cast<int>(slots.size()) < kEpochWidth &&
               !open_.empty()) {
          OpenNode n = pop_open();
          if (n.bound >= thresh) continue;  // pruned on pop, not counted
          slots.push_back(std::move(n));
        }
        if (slots.empty()) return;  // tree exhausted: search complete
      }

      shared_base_ = static_cast<int>(arena_.size());
      // Deterministic work-limit projection: split the remaining global
      // node/iteration budget evenly across the epoch's slots (the slot
      // count is worker-count independent), so the committed node total
      // overshoots its limit by at most one node per slot instead of a
      // full dive per slot (the iteration total is made exact by
      // replay_over_limit).
      const auto share = [&](int64_t limit, int64_t used) {
        if (limit == std::numeric_limits<int64_t>::max()) return limit;
        const int64_t remaining = std::max<int64_t>(0, limit - used);
        return std::max<int64_t>(
            1, remaining / static_cast<int64_t>(slots.size()));
      };
      slot_node_allowance_ = share(opt_.max_nodes, result_.nodes);
      slot_iter_allowance_ =
          share(opt_.max_lp_iterations, result_.lp_iterations);
      run_epoch(slots, results);
      replay_over_limit(slots, results);
      const bool had_root = !root_done_;
      commit(results);
      // Root separation rounds: re-solve the root LP against successive
      // waves of cover/clique cuts before the tree search proper starts.
      // Runs on the coordinator at the barrier, so appending rows to the
      // working LP -- which every engine re-syncs on its next restore() --
      // is race-free and deterministically ordered.
      if (had_root) run_root_cut_rounds();
      maybe_run_heuristic(results, had_root);
      // Root reduced-cost fixing, re-armed by every incumbent improvement
      // (and by the cut-strengthened root bound). Runs on the coordinator
      // at the barrier (workers idle), so mutating the working LP's bounds
      // -- which every later restore() re-reads -- is race-free and
      // deterministically ordered.
      maybe_fix_by_reduced_cost();
      // Node-separated cuts offered this epoch: select the best and append
      // them, then age the pool (pooled entries that keep losing the
      // selection are evicted; appended rows stay for the rest of the
      // solve).
      if (cuts_on_ && !had_root) {
        append_cuts(cut_pool_.select(cut_budget()));
        cut_pool_.age_tick();
      }
      if (stop_) break;
    }

    // Truncated: account every open subtree so best_bound stays sound.
    for (const OpenNode& n : open_) open_bound_ = std::min(open_bound_, n.bound);
  }

  // Exact iteration limit. An epoch's slots run side by side, each capped
  // at the epoch-start remainder of max_lp_iterations, so together they
  // may cross it. Such an epoch is discarded and its slots replayed one at
  // a time in slot order, each capped at what the earlier ones left. A
  // slot's result depends only on its start node and the frozen shared
  // state, so the replay is deterministic; epochs that stay under the
  // limit are kept as they ran.
  void replay_over_limit(const std::vector<OpenNode>& slots,
                         std::vector<SlotResult>& results) {
    int64_t spent = 0;
    for (const SlotResult& r : results) spent += r.lp_iterations;
    if (spent <= opt_.max_lp_iterations - result_.lp_iterations) return;
    int64_t iters_base = result_.lp_iterations;
    for (size_t i = 0; i < slots.size(); ++i) {
      results[i] = guarded_slot(0, slots[i], iters_base);
      iters_base += results[i].lp_iterations;
    }
  }

  void commit(std::vector<SlotResult>& results) {
    for (SlotResult& r : results) {
      // Rebase this slot's local arena entries / child paths past the
      // entries earlier slots committed this epoch.
      const int off = static_cast<int>(arena_.size()) - shared_base_;
      for (PathEntry e : r.entries) {
        if (e.parent >= shared_base_) e.parent += off;
        arena_.push_back(e);
      }
      for (OpenNode& c : r.children) {
        if (c.path >= shared_base_) c.path += off;
        push_open(std::move(c));
      }
      for (const PcObservation& o : r.pc_obs) pc_.add(o.dir, o.var, o.unit);
      for (IncumbentCandidate& inc : r.incumbents)
        try_incumbent(inc.x, inc.objective);
      for (Cut& c : r.cuts) cut_pool_.offer(std::move(c));
      result_ += r;
      if (r.solved_root) {
        root_done_ = true;
        if (r.root_lp_ok) {
          result_.root_relaxation = r.root_relaxation;
          root_x_ = std::move(r.root_x);
          root_redcost_ = std::move(r.root_redcost);
          root_snap_ = std::move(r.root_snap);
        }
      }
      if (r.dropped) {
        search_complete_ = false;
        open_bound_ = std::min(open_bound_, r.dropped_bound);
      }
    }
  }

  // Adaptive cadence, evaluated once per epoch on the coordinator (the
  // caller-provided heuristic is never invoked concurrently): always after
  // the root epoch, then whenever the committed node count crosses the
  // backoff interval; the epoch's best-bound fractional solution is the
  // rounding target.
  void maybe_run_heuristic(const std::vector<SlotResult>& results,
                           bool had_root) {
    if (!heuristic_ || stop_) return;
    if (!had_root && result_.nodes < next_heur_node_) return;
    const SlotResult* pick = nullptr;
    for (const SlotResult& r : results)
      if (!r.heur_x.empty() && (!pick || r.heur_obj < pick->heur_obj))
        pick = &r;
    if (!pick) return;
    const double before = result_.objective;
    try {
      if (auto cand = heuristic_(pick->heur_x)) offer_candidate(*cand);
    } catch (const std::exception&) {
      // A heuristic that dies (it may run its own LP solves, which can hit
      // injected allocation faults) just contributes no incumbent.
    }
    if (result_.objective < before - 1e-12) {
      heur_interval_ = kHeuristicInterval;
    } else {
      heur_interval_ = std::min(heur_interval_ * 2, kHeuristicInterval * 64);
    }
    next_heur_node_ = result_.nodes + heur_interval_;
  }

  // Root reduced-cost fixing. For an integer variable nonbasic at a bound
  // in the root relaxation, LP duality gives: any feasible point with x_j
  // moved at least one integer step off that bound costs >= root + |d_j|.
  // Once an incumbent caps the interesting objective range at the prune
  // threshold, every variable with |d_j| > threshold - root can be fixed
  // at its root bound for the remainder of the search -- no improving
  // solution exists on the other side. The fixings go through the presolve
  // clamp helpers onto the search's working LP copy, so every subsequent
  // snapshot restore() (which re-reads base bounds) inherits them; nodes
  // whose branching path already contradicts a fixing are pruned at slot
  // start by the intersection guard in process_slot.
  void maybe_fix_by_reduced_cost() {
    if (!root_done_ || root_redcost_.empty() || !result_.has_solution())
      return;
    const double cutoff = prune_threshold();
    if (cutoff >= last_fix_cutoff_) return;  // no incumbent progress
    last_fix_cutoff_ = cutoff;
    const double root_obj = result_.root_relaxation;
    const double slack = cutoff - root_obj;
    // Safety margin over the simplex cost perturbation's dual noise.
    const double margin = 1e-6 * std::max(1.0, std::abs(root_obj));
    const double at_tol = kIntegralityTol;
    for (int j : int_vars_) {
      if (fix_done_[j]) continue;
      if (lp_.ub[j] - lp_.lb[j] < 0.5) continue;  // already fixed / presolved
      const double d = root_redcost_[j];
      const int one[] = {j};
      if (root_x_[j] <= lp_.lb[j] + at_tol && d > slack + margin) {
        (void)clamp_upper_bounds(lp_, one, lp_.lb[j]);
      } else if (root_x_[j] >= lp_.ub[j] - at_tol && -d > slack + margin) {
        (void)raise_lower_bounds(lp_, one, lp_.ub[j]);
      } else {
        continue;
      }
      fix_done_[j] = 1;
      global_fix_.push_back({j, lp_.lb[j], lp_.ub[j]});
      ++result_.root_fixings;
    }
  }

  // ------------------------------------------------------------- cuts
  int cut_budget() const {
    return static_cast<int>(std::min<int64_t>(
        kMaxCutsPerRound,
        std::max<int64_t>(0, kMaxCutsTotal - result_.cuts_added)));
  }

  SeparationOptions separation_options() const {
    SeparationOptions sep;
    sep.max_cuts = kMaxCutsPerRound;
    return sep;
  }

  // Appends selected cuts as <= rows of the working LP, where they stay
  // for the rest of the solve. Every engine adopts the rows via
  // DualSimplex::sync_rows() on its next restore() or solve(); parent
  // snapshots captured before the append restore cleanly (the new rows
  // enter with their slack basic).
  void append_cuts(const std::vector<Cut>& chosen) {
    for (const Cut& c : chosen) {
      lp_.add_le(c.terms, c.rhs);
      ++result_.cuts_added;
      if (c.source == Cut::kGomory) ++result_.gomory_cuts;
    }
  }

  // Root separation: alternate (separate on the root LP point, append the
  // best cuts, re-solve the root from its captured basis) until no
  // violated cut remains, the round budget runs out, or the LP declines to
  // re-solve to optimality. The cut-strengthened root bound then lifts the
  // bounds of the already-open root children and re-arms reduced-cost
  // fixing. Coordinator-only, between epochs: deterministic and race-free.
  void run_root_cut_rounds() {
    if (!cuts_on_ || !root_done_ || root_x_.empty() || !root_snap_) return;
    Worker& w = workers_[0];
    try {
      if (!w.engine)
        w.engine = std::make_unique<lp::DualSimplex>(lp_, opt_.simplex);
      lp::DualSimplex& eng = *w.engine;
      const lp::SolveStats stats0 = eng.stats();
      // The deterministic work limit binds the cut rounds too: no root
      // solve starts once the committed budget is spent, and each is
      // capped at what is left of it.
      const auto iters_left = [&] {
        return opt_.max_lp_iterations - result_.lp_iterations;
      };
      // Re-solves the root from its latest basis.
      const auto solve_root = [&] {
        eng.restore(root_snap_);
        eng.set_objective_limit(lp::kInf);  // the root is never pruned
        eng.set_time_limit(std::max(0.01, remaining_sec()));
        eng.set_iteration_limit(static_cast<int>(
            std::min<int64_t>(opt_.simplex.max_iterations, iters_left())));
        const lp::LpResult rel = eng.solve();
        result_.lp_iterations += rel.iterations;
        return rel;
      };
      // The Gomory separator reads the engine's tableau, so the engine
      // must sit at the root optimum: land it there from the root snapshot
      // (the snapshot IS the optimal basis -- this costs ~0 pivots).
      bool at_optimum = iters_left() > 0 &&
                        solve_root().status == lp::LpStatus::kOptimal;
      // Gomory separation must prove itself: a round whose bound gain is
      // negligible before Gomory has ever moved the root bound disables
      // FURTHER Gomory separation -- on some instances the tableau only
      // yields violated-but-shallow cuts that bloat every node LP and
      // crowd the knapsack separators out of the round budget. Once a
      // round lands a real gain, separation runs until no violated cut
      // remains: late rounds often finish integralizing the root vertex
      // even while the bound plateaus, which is what collapses the tree.
      bool gomory_live = true;
      bool gomory_gained = false;
      for (int round = 0; round < kMaxRootCutRounds; ++round) {
        const int budget = cut_budget();
        if (budget <= 0) break;
        if (remaining_sec() <= 0.0 || iters_left() <= 0) break;
        // The root bound already proves the incumbent within the
        // termination gap: the search will end without branching, so any
        // further separation round is pure waste (the root epoch's dives
        // commit incumbents before the cut rounds run).
        if (result_.root_relaxation >= prune_threshold()) break;
        std::vector<Cut> cuts;
        if (knapsack_cuts_on_)
          separate_knapsack_cuts(*opt_.cut_structure, lp_, root_x_,
                                 separation_options(), &cuts);
        if (gomory_live && at_optimum)
          separate_gomory_cuts(lp_, eng, root_x_, separation_options(),
                               &cuts);
        for (Cut& c : cuts) cut_pool_.offer(std::move(c));
        const std::vector<Cut> chosen = cut_pool_.select(budget);
        if (chosen.empty()) break;
        append_cuts(chosen);
        const lp::LpResult rel = solve_root();
        at_optimum = rel.status == lp::LpStatus::kOptimal;
        if (!at_optimum) break;  // keep previous root
        const double gain = rel.objective - result_.root_relaxation;
        if (gain > std::max(1e-9, 1e-6 * std::abs(rel.objective)))
          gomory_gained = true;
        else if (!gomory_gained)
          gomory_live = false;  // never helped here: tailing off
        result_.root_relaxation = rel.objective;
        root_x_ = rel.x;
        root_redcost_ = eng.structural_reduced_costs();
        root_snap_ = eng.snapshot();
      }
      result_ += eng.stats() - stats0;
    } catch (const std::exception&) {
      // Recovery ladder: a cut round that dies (e.g. an injected cut-row
      // append failure) abandons further rounds and keeps the previous
      // root. The engine is rebuilt from the working LP on its next use,
      // so a partially-synced matrix cannot leak into later nodes.
      w.engine.reset();
    }
    cut_pool_.age_tick();
    // The cut rounds tightened the root bound (and refreshed the root
    // reduced costs), so the fixing slack shrank even with the incumbent
    // unchanged: re-arm the barrier's reduced-cost fixing pass.
    last_fix_cutoff_ = lp::kInf;
    // The strengthened root relaxation is a valid lower bound for every
    // subtree; lift the open (root-child) nodes onto it and hand them the
    // post-cut root basis -- restore() reapplies their branching bounds on
    // top, and the tighter bound prunes earlier.
    bool changed = false;
    for (OpenNode& n : open_) {
      if (n.bound < result_.root_relaxation) {
        n.bound = result_.root_relaxation;
        changed = true;
      }
      n.warm = root_snap_;
    }
    if (changed) std::make_heap(open_.begin(), open_.end(), open_after);
  }

  // ------------------------------------------------------------- slots
  struct Worker {
    std::unique_ptr<lp::DualSimplex> engine;
    PseudocostStore pc;  // epoch-start copy + this slot's own observations
    // Strong-branch scratch: per-variable "this side is proven prunable"
    // flags for the current node (stamped by sb_touched to avoid a
    // per-node clear).
    std::vector<uint8_t> sb_prune[2];
    std::vector<int> sb_touched;
    // Measured LP throughput on this worker (cumulative over its node
    // solves), used to clamp a node's pivot budget from the remaining
    // wall-clock deadline. Purely advisory: the clamp only binds when the
    // remaining budget is tight, so deadline-free runs are untouched.
    double solve_secs = 0.0;
    int64_t solve_iters = 0;
  };

  // Fractional integer variables of the best branching-priority tier at x
  // -- the ONE candidate rule shared by pick_branch_var and the
  // reliability probes, so probing and branching can never disagree on
  // the tier. Order follows int_vars_ (ascending), which downstream
  // strict-greater comparisons turn into a deterministic first-wins
  // tie-break.
  std::vector<int> branch_candidates(const std::vector<double>& x) const {
    std::vector<int> cands;
    int best_prio = std::numeric_limits<int>::min();
    for (int j : int_vars_) {
      const double f = x[j] - std::floor(x[j]);
      if (std::min(f, 1.0 - f) <= kIntegralityTol) continue;
      const int prio =
          opt_.branch_priority.empty() ? 0 : opt_.branch_priority[j];
      if (prio > best_prio) {
        best_prio = prio;
        cands.clear();
      }
      if (prio == best_prio) cands.push_back(j);
    }
    return cands;
  }

  int pick_branch_var(const PseudocostStore& pc, const std::vector<double>& x,
                      double* est_down_out, double* est_up_out) const {
    int best = -1;
    double best_score = -1.0;
    double best_down = 0.0, best_up = 0.0;
    for (int j : branch_candidates(x)) {
      const double f = x[j] - std::floor(x[j]);
      const double est_down = pc.rate(0, j) * f;
      const double est_up = pc.rate(1, j) * (1.0 - f);
      const double score = std::max(est_down, 1e-9) * std::max(est_up, 1e-9);
      if (score > best_score) {
        best = j;
        best_score = score;
        best_down = est_down;
        best_up = est_up;
      }
    }
    if (est_down_out) *est_down_out = best_down;
    if (est_up_out) *est_up_out = best_up;
    return best;
  }

  bool sb_pruned(const Worker& w, int dir, int var) const {
    return !w.sb_prune[dir].empty() && w.sb_prune[dir][var] != 0;
  }

  // Clears the strong-branch prune flags left by the PREVIOUS node. Must
  // run for every node, whether or not it probes: the scratch lives on the
  // worker, and a stale flag leaking into a later node would make the tree
  // depend on which worker ran which slot.
  void sb_reset(Worker& w) const {
    for (int v : w.sb_touched) {
      w.sb_prune[0][v] = 0;
      w.sb_prune[1][v] = 0;
    }
    w.sb_touched.clear();
  }

  // Reliability branching: before the pseudocost scores pick a branching
  // variable, strong-branch the unreliable candidates -- those with fewer
  // than kReliability observations in some direction -- with probe
  // solves on this worker's own engine. Each probe is capped by a
  // deterministic pivot limit and by the incumbent prune threshold as an
  // objective limit (the probe stops the moment the dual bound proves the
  // child prunable). Observed degradations feed the slot-local pseudocost
  // copy immediately (so this node's pick already benefits) and ride
  // out.pc_obs into the committed store; sides proven prunable are flagged
  // so the branching step skips them. Like the node LPs, each probe is
  // also capped at the slot's view of the remaining iteration budget
  // (`iters_base`: see process_slot). Pure slot-local
  // work: bit-identical for any worker count.
  void strong_branch_probes(Worker& w, lp::DualSimplex& eng,
                            const lp::LpResult& rel, double best_obj,
                            int64_t iters_base, SlotResult& out) {
    // Candidates: the same best-priority-tier fractional variables
    // pick_branch_var will choose from (one shared rule), restricted to
    // the unreliable ones, best pseudocost scores first.
    struct Cand {
      int var;
      double score;
    };
    std::vector<Cand> cands;
    for (int j : branch_candidates(rel.x)) {
      if (std::min(w.pc.cnt[0][j], w.pc.cnt[1][j]) >= kReliability) continue;
      const double f = rel.x[j] - std::floor(rel.x[j]);
      const double score = std::max(w.pc.rate(0, j) * f, 1e-9) *
                           std::max(w.pc.rate(1, j) * (1.0 - f), 1e-9);
      cands.push_back({j, score});
    }
    if (cands.empty()) return;
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.var < b.var;
    });
    if (cands.size() > kStrongBranchCandidates)
      cands.resize(kStrongBranchCandidates);

    const double threshold = prune_threshold_for(best_obj, opt_.relative_gap);
    const int saved_iters = eng.iteration_limit();
    const auto iters_left = [&] {
      return opt_.max_lp_iterations - iters_base - out.lp_iterations;
    };
    for (const Cand& c : cands) {
      const int j = c.var;
      const double frac = rel.x[j];
      const double floor_val = std::floor(frac);
      const double f = frac - floor_val;
      const double lo = eng.var_lower(j), hi = eng.var_upper(j);
      for (int dir = 0; dir < 2; ++dir) {
        if (w.pc.cnt[dir][j] >= kReliability)
          continue;  // this direction is already reliable
        const bool side_ok = dir == 0 ? floor_val >= lo - 1e-12
                                      : floor_val + 1.0 <= hi + 1e-12;
        if (!side_ok) continue;
        if (iters_left() <= 0) break;
        eng.set_iteration_limit(static_cast<int>(
            std::min<int64_t>(kStrongBranchIterations, iters_left())));
        if (dir == 0)
          eng.set_var_bounds(j, lo, floor_val);
        else
          eng.set_var_bounds(j, floor_val + 1.0, hi);
        eng.set_objective_limit(threshold);
        const lp::LpResult probe = eng.solve();
        eng.set_var_bounds(j, lo, hi);
        out.lp_iterations += probe.iterations;
        ++out.strong_branches;

        const double dist = dir == 0 ? f : 1.0 - f;
        double child_bound = -lp::kInf;
        bool prunable = false;
        switch (probe.status) {
          case lp::LpStatus::kOptimal:
            child_bound = probe.objective;
            prunable = child_bound >= threshold;
            break;
          case lp::LpStatus::kObjectiveLimit:
            child_bound = probe.dual_bound;
            prunable = true;
            break;
          case lp::LpStatus::kInfeasible:
            prunable = true;
            break;
          case lp::LpStatus::kIterationLimit:
            // Truncated probe: the dual bound still soundly proves a
            // prune, but it is NOT recorded as a pseudocost sample -- a
            // barely-moved dual bound would register a near-zero
            // degradation and poison the scores (observed: worse trees
            // than no probing at all). The variable stays unreliable; the
            // global probe budget bounds the re-probing.
            prunable = probe.dual_bound >= threshold;
            break;
          default:
            break;
        }
        if (child_bound != -lp::kInf) {
          const double unit = std::max(0.0, child_bound - rel.objective) /
                              std::max(dist, 1e-6);
          w.pc.add(dir, j, unit);
          out.pc_obs.push_back({dir, j, unit});
        }
        if (prunable) {
          w.sb_prune[dir][j] = 1;
          w.sb_touched.push_back(j);
        }
      }
    }
    eng.set_iteration_limit(saved_iters);
  }

  // Processes one popped node on worker `wid`: restore the parent basis,
  // reapply the node's root path, then dive depth-first. Reads only frozen
  // shared state (arena_ up to shared_base_, pc_, the epoch-start
  // result_.{objective,nodes}) -- everything it produces goes
  // through the SlotResult for ordered commit. `iters_base` is the
  // committed iteration total the slot's work limit counts from: the
  // epoch-start total, or in a replay also the earlier slots' pivots.
  SlotResult process_slot(int wid, const OpenNode& start,
                          int64_t iters_base) {
    Worker& w = workers_[static_cast<size_t>(wid)];
    if (!w.engine)
      w.engine = std::make_unique<lp::DualSimplex>(lp_, opt_.simplex);
    lp::DualSimplex& eng = *w.engine;
    SlotResult out;
    const lp::SolveStats eng_stats0 = eng.stats();
    // Under branch & cut the root is solved alone (no dive): the root
    // separation rounds need the pristine root basis and point, and the
    // children they reopen inherit the cut-strengthened bound.
    const int64_t dive_cap =
        (cuts_on_ && start.path < 0) ? 1 : kMaxDiveNodes;

    eng.restore(start.warm);
    {
      // Reapply the node's bound changes root -> leaf. start.path always
      // points into the committed arena (children created this epoch are
      // not poppable until the next one).
      std::vector<int> chain;
      for (int r = start.path; r >= 0; r = arena_[r].parent)
        chain.push_back(r);
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const BoundChange& c = arena_[*it].change;
        eng.set_var_bounds(c.var, c.lo, c.hi);
      }
    }
    // Reduced-cost fixings committed after this node's snapshot/path were
    // recorded: restore() already re-read them from the working LP's base
    // bounds, so only variables the path (or snapshot) overrode need the
    // intersection. An empty intersection means the branching path lives
    // entirely on the unimproving side of a fixing -- prune the node.
    for (const BoundChange& f : global_fix_) {
      const double ilo = std::max(eng.var_lower(f.var), f.lo);
      const double ihi = std::min(eng.var_upper(f.var), f.hi);
      if (ilo > ihi) {
        out += eng.stats() - eng_stats0;
        return out;
      }
      if (ilo != eng.var_lower(f.var) || ihi != eng.var_upper(f.var))
        eng.set_var_bounds(f.var, ilo, ihi);
    }

    // Epoch-start pseudocosts; this slot's own observations layer on top.
    // The copy must be per SLOT, not per worker-epoch: two slots of one
    // epoch may land on the same worker under one thread count and on
    // different workers under another, so a slot must never see a sibling
    // slot's local observations. The vectors keep their capacity across
    // slots, so this is a memcpy of a few tens of KB -- noise next to one
    // node's LP re-solve.
    w.pc = pc_;
    double best_obj = result_.objective;  // epoch-start incumbent (or +inf)
    const int64_t nodes_base = result_.nodes;
    const int64_t sb_base = result_.strong_branches;

    struct Cursor {
      int path;
      double bound;
      int branch_var;
      bool branch_up;
      double branch_frac;
      std::shared_ptr<const lp::BasisSnapshot> warm;
    };
    Cursor cur{start.path,      start.bound,      start.branch_var,
               start.branch_up, start.branch_frac, start.warm};

    auto requeue_cursor = [&]() {
      // The cursor's bounds are already applied to the engine; capture the
      // (parent-basis, cursor-bounds) state so any worker can resume it.
      OpenNode n;
      n.path = cur.path;
      n.bound = cur.bound;
      n.branch_var = cur.branch_var;
      n.branch_up = cur.branch_up;
      n.branch_frac = cur.branch_frac;
      n.warm = cur.warm ? cur.warm : eng.snapshot();
      out.children.push_back(std::move(n));
    };

    for (;;) {
      // Work limits, projected from epoch-start committed totals plus this
      // slot's own work (never other in-flight slots) and capped by this
      // slot's even share of the remaining budget -- both deterministic
      // for any worker count.
      const double rem = remaining_sec();
      if (out.nodes >= slot_node_allowance_ ||
          out.lp_iterations >= slot_iter_allowance_ ||
          nodes_base + out.nodes >= opt_.max_nodes ||
          iters_base + out.lp_iterations >= opt_.max_lp_iterations ||
          rem <= 0.0) {
        requeue_cursor();
        break;
      }
      // Never let one node LP outlive the solver's remaining budget. The
      // floor only guards against a non-positive limit -- it must not grant
      // time the global budget no longer has.
      eng.set_time_limit(std::max(0.01, rem));
      // Deadline-overshoot guard: clamp the node's pivot budget from the
      // remaining wall clock using this worker's measured pivot rate. The
      // clamp only binds when the projected full-budget solve would not
      // fit in the remaining time (a 2x margin keeps the estimate
      // conservative), so deadline-free runs keep the configured limit and
      // their exact node/iteration counts; under deadline pressure a long
      // node LP is cut off close to the budget instead of overshooting it
      // by a whole refactorize-to-refactorize stretch.
      {
        int cap = opt_.simplex.max_iterations;
        if (w.solve_secs > 1e-3 && w.solve_iters > 256) {
          const double rate =
              static_cast<double>(w.solve_iters) / w.solve_secs;
          const double fit = rate * rem * 2.0;
          if (fit < static_cast<double>(cap))
            cap = std::max(256, static_cast<int>(fit));
        }
        // The deterministic work limit binds every node LP, the root's
        // included: cap it at the slot's view of the remaining budget
        // (positive here, or the check above would have requeued). The cap
        // only binds in a run whose committed total reaches the limit at
        // this epoch's barrier anyway, and replay_over_limit makes the
        // epoch's total exact.
        eng.set_iteration_limit(static_cast<int>(std::min<int64_t>(
            cap, opt_.max_lp_iterations - iters_base - out.lp_iterations)));
      }
      // Dual objective cutoff: a node whose relaxation bound crosses the
      // incumbent prune threshold is discarded anyway, so let the dual
      // simplex stop the moment it proves that instead of polishing to
      // optimality. best_obj is slot-local deterministic state. The root
      // is exempt: its relaxation value and reduced costs seed the bound
      // report and the reduced-cost fixing.
      eng.set_objective_limit(
          cur.path < 0 ? lp::kInf
                       : prune_threshold_for(best_obj, opt_.relative_gap));
      ++out.nodes;
      const Clock::time_point node_t0 = Clock::now();
      const lp::LpResult rel = eng.solve();
      w.solve_secs +=
          std::chrono::duration<double>(Clock::now() - node_t0).count();
      w.solve_iters += rel.iterations;
      out.lp_iterations += rel.iterations;
      const bool is_root = cur.path < 0;
      if (is_root) {
        out.solved_root = true;
        if (rel.status == lp::LpStatus::kOptimal) {
          out.root_lp_ok = true;
          out.root_relaxation = rel.objective;
          out.root_x = rel.x;
          out.root_redcost = eng.structural_reduced_costs();
          if (cuts_on_) out.root_snap = eng.snapshot();
        }
      }
      if (rel.status == lp::LpStatus::kInfeasible) break;
      if (rel.status == lp::LpStatus::kObjectiveLimit) break;  // pruned
      if (rel.status != lp::LpStatus::kOptimal) {
        // Numerical trouble or LP truncation: the subtree is dropped, but
        // the truncated solve's dual bound (when it beats the parent
        // relaxation) still caps how much the global bound gives up -- and
        // when it already clears the prune threshold the subtree is simply
        // pruned, keeping the search complete.
        const double nb = std::max(cur.bound, rel.dual_bound);
        if (nb < prune_threshold_for(best_obj, opt_.relative_gap)) {
          out.dropped = true;
          out.dropped_bound = std::min(out.dropped_bound, nb);
        }
        break;
      }

      if (cur.branch_var >= 0 && cur.bound != -lp::kInf) {
        const int d = cur.branch_up ? 1 : 0;
        const double dist =
            cur.branch_up ? 1.0 - cur.branch_frac : cur.branch_frac;
        const double unit =
            std::max(0.0, rel.objective - cur.bound) / std::max(dist, 1e-6);
        w.pc.add(d, cur.branch_var, unit);
        out.pc_obs.push_back({d, cur.branch_var, unit});
      }
      if (rel.objective >=
          prune_threshold_for(best_obj, opt_.relative_gap))
        break;

      // Reliability branching: strong-branch the unreliable candidates so
      // the pseudocost pick below works from observed degradations instead
      // of guesses. Probes may also prove one (or both) sides prunable.
      // The probe budget is projected from epoch-start committed totals
      // plus this slot's own probes -- deterministic for any worker count.
      if (reliability_on_) {
        if (w.sb_prune[0].empty()) {
          w.sb_prune[0].assign(static_cast<size_t>(lp_.num_vars()), 0);
          w.sb_prune[1].assign(static_cast<size_t>(lp_.num_vars()), 0);
        }
        sb_reset(w);
        if (sb_base + out.strong_branches < kStrongBranchBudget)
          strong_branch_probes(w, eng, rel, best_obj, iters_base, out);
      }

      double est_down = 0.0, est_up = 0.0;
      const int bv = pick_branch_var(w.pc, rel.x, &est_down, &est_up);
      if (bv < 0) {
        // Integral: candidate incumbent (accepted in commit order).
        if (rel.objective < best_obj - 1e-12) {
          best_obj = rel.objective;
          out.incumbents.push_back({rel.objective, rel.x});
          if (opt_.stop_at_first_incumbent) break;
        }
        break;
      }
      if (out.heur_x.empty() && heuristic_) {
        out.heur_x = rel.x;
        out.heur_obj = rel.objective;
      }

      // Node-local separation every kCutNodeInterval dive depths: cuts
      // found at this node's fractional point are globally valid (they
      // come from the original knapsack structure, never from local branch
      // bounds), so they ride the SlotResult to the coordinator, which
      // pools and appends them at the barrier in slot order.
      if (knapsack_cuts_on_ && !opt_.stop_at_first_incumbent && !is_root &&
          out.nodes % kCutNodeInterval == 0 &&
          static_cast<int>(out.cuts.size()) < kMaxCutsPerRound) {
        SeparationOptions sep = separation_options();
        sep.max_cuts = kMaxCutsPerRound - static_cast<int>(out.cuts.size());
        separate_knapsack_cuts(*opt_.cut_structure, lp_, rel.x, sep,
                               &out.cuts);
      }

      // Branch. Dive into the child with the smaller estimated objective
      // degradation; the sibling joins the open queue with a snapshot of
      // this (parent) basis so any worker can pick it up later. Sides a
      // strong-branch probe proved prunable are skipped outright.
      const double frac = rel.x[bv];
      const double floor_val = std::floor(frac);
      const double cur_lo = eng.var_lower(bv);
      const double cur_hi = eng.var_upper(bv);
      const double f = frac - floor_val;
      const bool down_first = est_down <= est_up;
      const bool down_ok =
          floor_val >= cur_lo - 1e-12 && !sb_pruned(w, 0, bv);
      const bool up_ok =
          floor_val + 1.0 <= cur_hi + 1e-12 && !sb_pruned(w, 1, bv);

      const bool preferred_up = !down_first;
      std::optional<bool> dive_dir, open_dir;
      if (preferred_up ? up_ok : down_ok) dive_dir = preferred_up;
      if (preferred_up ? down_ok : up_ok) {
        if (dive_dir)
          open_dir = !preferred_up;
        else
          dive_dir = !preferred_up;
      }
      if (!dive_dir) break;  // the fractional value has no feasible side

      auto add_entry = [&](bool up) {
        out.entries.push_back(
            {cur.path, up ? BoundChange{bv, floor_val + 1.0, cur_hi}
                          : BoundChange{bv, cur_lo, floor_val}});
        return shared_base_ + static_cast<int>(out.entries.size()) - 1;
      };
      std::shared_ptr<const lp::BasisSnapshot> parent_snap;
      auto snapshot_parent = [&]() {
        if (!parent_snap) parent_snap = eng.snapshot();
        return parent_snap;
      };
      auto make_open_child = [&](bool up) {
        OpenNode c;
        c.path = add_entry(up);
        c.bound = rel.objective;
        c.branch_var = bv;
        c.branch_up = up;
        c.branch_frac = f;
        c.warm = snapshot_parent();
        return c;
      };

      if (out.nodes >= dive_cap) {
        if (open_dir) out.children.push_back(make_open_child(*open_dir));
        out.children.push_back(make_open_child(*dive_dir));
        break;
      }
      if (open_dir) out.children.push_back(make_open_child(*open_dir));
      const int child_path = add_entry(*dive_dir);
      const BoundChange& c = out.entries.back().change;
      eng.set_var_bounds(c.var, c.lo, c.hi);
      cur = Cursor{child_path, rel.objective, bv, *dive_dir, f, nullptr};
    }
    out += eng.stats() - eng_stats0;
    return out;
  }

  // Fault boundary around one slot. A slot that dies -- engine
  // construction failing on an injected allocation fault, a cut-row sync
  // throwing, a genuine bad_alloc -- becomes a prunable node bounded by
  // its parent relaxation, committed in slot order like any other result
  // (the last rung of the recovery ladder: refactorize -> slack-basis
  // reset -> per-node abandon). The worker's engine is discarded so the
  // next slot rebuilds it from the working LP instead of reusing
  // half-mutated state.
  SlotResult guarded_slot(int wid, const OpenNode& start,
                          int64_t iters_base) {
    if (robust::fault(robust::FaultPoint::kWorkerStall))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    try {
      return process_slot(wid, start, iters_base);
    } catch (const std::exception&) {
      workers_[static_cast<size_t>(wid)].engine.reset();
      SlotResult out;
      out.nodes = 1;  // the failed node counts toward the work limits
      if (start.path < 0) out.solved_root = true;  // root died: no LP info
      out.dropped = true;
      out.dropped_bound = start.bound;
      return out;
    }
  }

  // ---------------------------------------------------------- dispatch
  // Epoch barrier: slots are claimed from a shared index under the pool
  // mutex (dynamic load balance is safe because a slot's result does not
  // depend on which engine runs it), results land at the slot's index, and
  // the coordinator both participates (worker id 0) and waits for the
  // countdown to reach zero before committing.
  void run_epoch(const std::vector<OpenNode>& slots,
                 std::vector<SlotResult>& results) {
    results.clear();
    results.resize(slots.size());
    const int want =
        std::min<int>(tree_workers_, static_cast<int>(slots.size()));
    if (want <= 1) {
      for (size_t i = 0; i < slots.size(); ++i)
        results[i] = guarded_slot(0, slots[i], result_.lp_iterations);
      return;
    }
    ensure_pool(want - 1);
    std::unique_lock lock(pool_mu_);
    epoch_slots_ = &slots;
    epoch_results_ = &results;
    epoch_slot_count_ = slots.size();
    epoch_next_ = 0;
    epoch_pending_ = static_cast<int>(slots.size());
    ++epoch_id_;
    pool_cv_.notify_all();
    claim_slots(0, lock);
    pool_done_cv_.wait(lock, [this] { return epoch_pending_ == 0; });
  }

  void ensure_pool(int threads) {
    while (static_cast<int>(pool_.size()) < threads) {
      const int wid = static_cast<int>(pool_.size()) + 1;  // 0 = coordinator
      pool_.emplace_back([this, wid] { pool_loop(wid); });
    }
  }

  void pool_loop(int wid) {
    uint64_t seen = 0;
    std::unique_lock lock(pool_mu_);
    for (;;) {
      pool_cv_.wait(lock,
                    [&] { return pool_shutdown_ || epoch_id_ > seen; });
      if (pool_shutdown_) return;
      seen = epoch_id_;
      claim_slots(wid, lock);
    }
  }

  // Claims and runs the current epoch's slots on worker `wid` until none
  // are left. `lock` holds pool_mu_ on entry and on return; it is released
  // while a slot runs.
  void claim_slots(int wid, std::unique_lock<std::mutex>& lock) {
    while (epoch_next_ < epoch_slot_count_) {
      const size_t i = epoch_next_++;
      lock.unlock();
      (*epoch_results_)[i] =
          guarded_slot(wid, (*epoch_slots_)[i], result_.lp_iterations);
      lock.lock();
      if (--epoch_pending_ == 0) pool_done_cv_.notify_all();
    }
  }

  // ------------------------------------------------------------ members
  // Working copy of the problem: root reduced-cost fixings clamp its
  // bounds mid-search (at epoch barriers only), and every engine restore()
  // re-reads them as the base bound state.
  lp::LinearProgram lp_;
  MilpOptions opt_;
  const IncumbentHeuristic& heuristic_;
  Clock::time_point start_;
  int tree_workers_ = 1;
  std::vector<int> int_vars_;

  // Committed shared state: frozen during an epoch's solve phase, mutated
  // only by the coordinator at the barrier.
  std::vector<PathEntry> arena_;
  int shared_base_ = 0;  // arena size at the current epoch's start
  // Per-slot even shares of the remaining node/iteration budget for the
  // current epoch (set by the coordinator before dispatch).
  int64_t slot_node_allowance_ = std::numeric_limits<int64_t>::max();
  int64_t slot_iter_allowance_ = std::numeric_limits<int64_t>::max();
  std::vector<OpenNode> open_;
  int64_t next_seq_ = 0;
  PseudocostStore pc_;
  MilpResult result_;
  // Root-LP data driving reduced-cost fixing, plus the fixing ledger.
  std::vector<double> root_x_, root_redcost_;
  // Branch & cut state: pool driven by the coordinator at barriers only;
  // root_snap_ is the latest (cut-tightened) root basis.
  bool cuts_on_ = false;
  bool knapsack_cuts_on_ = false;
  bool reliability_on_ = false;
  CutPool cut_pool_;
  std::shared_ptr<const lp::BasisSnapshot> root_snap_;
  std::vector<uint8_t> fix_done_;
  std::vector<BoundChange> global_fix_;  // frozen during epochs
  double last_fix_cutoff_ = lp::kInf;
  bool root_done_ = false;
  bool search_complete_ = true;
  bool external_bound_met_ = false;
  bool stop_ = false;
  double open_bound_ = lp::kInf;
  int64_t heur_interval_;
  int64_t next_heur_node_ = 0;

  std::vector<Worker> workers_;

  // Epoch dispatch (all guarded by pool_mu_ except the per-index result
  // writes, which are ordered by the mutex acquire/release pairs).
  std::mutex pool_mu_;
  std::condition_variable pool_cv_, pool_done_cv_;
  std::vector<std::thread> pool_;
  const std::vector<OpenNode>* epoch_slots_ = nullptr;
  std::vector<SlotResult>* epoch_results_ = nullptr;
  size_t epoch_slot_count_ = 0;  // workers test this, never slots->size()
  size_t epoch_next_ = 0;
  int epoch_pending_ = 0;
  uint64_t epoch_id_ = 0;
  bool pool_shutdown_ = false;
};

}  // namespace

int resolve_tree_threads(const MilpOptions& options) {
  int n = options.num_threads;
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(n, 1, kEpochWidth);
}

MilpResult branch_and_bound(const lp::LinearProgram& lp,
                            const MilpOptions& options,
                            const IncumbentHeuristic& heuristic) {
  EpochSearch search(lp, options, heuristic);
  return search.run();
}

}  // namespace checkmate::milp
