#include "milp/cuts.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "lp/simplex.h"

namespace checkmate::milp {

namespace {

constexpr double kTol = 1e-7;

// An unfixed knapsack item at the separating LP point.
struct ActiveItem {
  int var;
  double weight;
  double x;
};

// A term of the inequality under construction: coefficient `a` (integer,
// kept as int for the lifting DP) on binary `var` of knapsack weight
// `weight`.
struct LiftTerm {
  int var;
  double weight;
  int a;
  double x;
};

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// ------------------------------------------------------------ cover cuts
//
// Greedy separation + minimalization + exact sequential up-lifting. The
// lifting subproblem max{ sum a_i z_i : sum w_i z_i <= b } over the terms
// already in the inequality is solved exactly by a min-weight-per-profit
// DP (profits are small integers), so every emitted coefficient is the
// tightest valid one in the chosen (deterministic) lifting order.
void try_cover(const std::vector<ActiveItem>& items, double cap,
               const SeparationOptions& opt, std::vector<Cut>* out) {
  double total = 0.0;
  for (const ActiveItem& it : items) total += it.weight;
  if (total <= cap + kTol) return;  // every item fits: no cover exists

  // Greedy cover against the fractional point: items whose (1 - x) is
  // small per unit of weight close the capacity with the least slack in
  // the violation sum(1 - x_i) < 1.
  std::vector<int> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ka = (1.0 - items[a].x) / items[a].weight;
    const double kb = (1.0 - items[b].x) / items[b].weight;
    if (ka != kb) return ka < kb;
    return items[a].var < items[b].var;
  });
  std::vector<int> cover;
  double cover_w = 0.0;
  for (int idx : order) {
    cover.push_back(idx);
    cover_w += items[idx].weight;
    if (cover_w > cap + kTol) break;
  }
  if (cover_w <= cap + kTol) return;

  // Minimalize: dropping an item both shrinks the cover and RAISES the
  // violation by (1 - x_i), so shed the largest (1 - x_i) first while the
  // remainder still overflows the capacity.
  {
    std::vector<int> by_slack = cover;
    std::sort(by_slack.begin(), by_slack.end(), [&](int a, int b) {
      const double sa = 1.0 - items[a].x, sb = 1.0 - items[b].x;
      if (sa != sb) return sa > sb;
      return items[a].var < items[b].var;
    });
    for (int idx : by_slack) {
      if (cover_w - items[idx].weight > cap + kTol) {
        cover_w -= items[idx].weight;
        cover.erase(std::find(cover.begin(), cover.end(), idx));
      }
    }
  }

  const int r = static_cast<int>(cover.size()) - 1;
  std::vector<LiftTerm> terms;
  terms.reserve(cover.size());
  for (int idx : cover)
    terms.push_back({items[idx].var, items[idx].weight, 1, items[idx].x});

  double plain_lhs = 0.0;
  for (int idx : cover) plain_lhs += items[idx].x;
  // Work bound on the lifting DP, not an exact test: lifting adds the
  // lifted items' (coefficient-weighted) fractional mass to the left-hand
  // side, which in principle could rescue a cover this far from violated
  // -- but on the rematerialization LPs the mass above this margin is
  // vanishingly rare and the DP per candidate is the separator's most
  // expensive step, so covers more than 0.5 short are dropped.
  if (plain_lhs - r < -0.5) return;

  // Exact sequential up-lifting, heaviest candidates first (heavy items
  // leave the least residual capacity, hence earn the largest
  // coefficients). DP state: minw[p] = least knapsack weight over the
  // current terms achieving inequality profit exactly p.
  int profit_cap = 0;
  for (const LiftTerm& t : terms) profit_cap += t.a;
  std::vector<double> minw(static_cast<size_t>(profit_cap) + 1,
                           std::numeric_limits<double>::infinity());
  minw[0] = 0.0;
  {
    int built = 0;
    for (const LiftTerm& t : terms) {
      built += t.a;
      for (int p = built; p >= t.a; --p)
        minw[p] = std::min(minw[p], minw[p - t.a] + t.weight);
    }
  }
  std::vector<int> in_cover(items.size(), 0);
  for (int idx : cover) in_cover[idx] = 1;
  std::vector<int> cand;
  for (size_t i = 0; i < items.size(); ++i)
    if (!in_cover[i]) cand.push_back(static_cast<int>(i));
  std::sort(cand.begin(), cand.end(), [&](int a, int b) {
    if (items[a].weight != items[b].weight)
      return items[a].weight > items[b].weight;
    return items[a].var < items[b].var;
  });
  int attempts = 0;
  for (int idx : cand) {
    if (attempts >= opt.max_lift_candidates ||
        profit_cap >= opt.max_lift_profit)
      break;
    const ActiveItem& it = items[idx];
    ++attempts;
    int alpha;
    const double residual = cap - it.weight;
    if (residual < -kTol) {
      // The item alone busts the capacity: it can never be 1, any
      // coefficient is valid -- use the full rhs so the cut doubles as a
      // fixing.
      alpha = std::max(r, 1);
    } else {
      int best = 0;
      for (int p = profit_cap; p >= 1; --p)
        if (minw[p] <= residual + kTol) {
          best = p;
          break;
        }
      alpha = r - best;
    }
    if (alpha < 1) continue;
    terms.push_back({it.var, it.weight, alpha, it.x});
    const int new_cap = profit_cap + alpha;
    minw.resize(static_cast<size_t>(new_cap) + 1,
                std::numeric_limits<double>::infinity());
    for (int p = new_cap; p >= alpha; --p)
      minw[p] = std::min(minw[p], minw[p - alpha] + it.weight);
    profit_cap = new_cap;
  }

  double lhs = 0.0, norm2 = 0.0;
  for (const LiftTerm& t : terms) {
    lhs += t.a * t.x;
    norm2 += static_cast<double>(t.a) * t.a;
  }
  const double violation = (lhs - r) / std::sqrt(std::max(norm2, 1.0));
  if (violation < opt.min_violation) return;

  Cut cut;
  cut.terms.reserve(terms.size());
  for (const LiftTerm& t : terms)
    cut.terms.emplace_back(t.var, static_cast<double>(t.a));
  std::sort(cut.terms.begin(), cut.terms.end());
  cut.rhs = r;
  cut.violation = violation;
  cut.hash = cut_hash(cut);
  out->push_back(std::move(cut));
}

// ------------------------------------------------------------ clique cuts
//
// The conflict graph of a knapsack (i ~ j iff w_i + w_j > cap) on items
// sorted by weight is an interval graph: its maximal cliques are the heavy
// set H = {w_i > cap/2} plus, for every lighter item a, the set
// {a} + {i : w_i > cap - w_a}. Each clique Q yields sum_{Q} x_i <= 1.
void try_cliques(const std::vector<ActiveItem>& items, double cap,
                 const SeparationOptions& opt, std::vector<Cut>* out) {
  std::vector<int> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (items[a].weight != items[b].weight)
      return items[a].weight > items[b].weight;
    return items[a].var < items[b].var;
  });

  auto emit = [&](const std::vector<int>& clique) {
    if (clique.size() < 2) return;
    double lhs = 0.0;
    for (int idx : clique) lhs += items[idx].x;
    const double violation =
        (lhs - 1.0) / std::sqrt(static_cast<double>(clique.size()));
    if (violation < opt.min_violation) return;
    Cut cut;
    cut.terms.reserve(clique.size());
    for (int idx : clique) cut.terms.emplace_back(items[idx].var, 1.0);
    std::sort(cut.terms.begin(), cut.terms.end());
    cut.rhs = 1.0;
    cut.violation = violation;
    cut.hash = cut_hash(cut);
    out->push_back(std::move(cut));
  };

  std::vector<int> heavy;
  for (int idx : order) {
    if (2.0 * items[idx].weight > cap + kTol)
      heavy.push_back(idx);
    else
      break;  // order is weight-descending
  }
  emit(heavy);
  for (size_t k = heavy.size(); k < order.size(); ++k) {
    const int a = order[k];
    std::vector<int> clique;
    for (int idx : heavy) {
      if (items[idx].weight > cap - items[a].weight + kTol)
        clique.push_back(idx);
      else
        break;  // heavy is weight-descending too
    }
    if (clique.empty()) break;  // lighter items only have smaller cliques
    clique.push_back(a);
    emit(clique);
  }
}

}  // namespace

uint64_t cut_hash(const Cut& cut) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& [var, coef] : cut.terms) {
    mix(static_cast<uint64_t>(var));
    mix(static_cast<uint64_t>(
        static_cast<int64_t>(std::llround(coef * 1048576.0))));
  }
  mix(static_cast<uint64_t>(
      static_cast<int64_t>(std::llround(cut.rhs * 1048576.0))));
  mix(cut.terms.size());
  return h == 0 ? 1 : h;
}

void separate_knapsack_cuts(const FormulationStructure& structure,
                            const lp::LinearProgram& lp,
                            std::span<const double> x,
                            const SeparationOptions& options,
                            std::vector<Cut>* out) {
  std::vector<Cut> found;
  std::vector<ActiveItem> items;
  for (const KnapsackRow& row : structure.knapsacks) {
    if (row.capacity_var < 0 || row.capacity_var >= lp.num_vars()) continue;
    double cap = lp.ub[row.capacity_var] - row.capacity_offset;
    items.clear();
    for (const KnapsackItem& it : row.items) {
      if (it.var < 0 || it.var >= lp.num_vars() || it.weight <= kTol)
        continue;
      const double lo = lp.lb[it.var], hi = lp.ub[it.var];
      if (hi - lo < 0.5) {
        // Fixed by presolve or root reduced-cost fixing: a 1 consumes
        // capacity, a 0 drops out. Either way the knapsack shrinks -- and
        // the cuts separated from the shrunken knapsack remain globally
        // valid because the fixing itself is.
        if (lo > 0.5) cap -= it.weight;
        continue;
      }
      items.push_back({it.var, it.weight, clamp01(x[it.var])});
    }
    if (cap <= kTol || items.empty()) continue;
    try_cover(items, cap, options, &found);
    try_cliques(items, cap, options, &found);
  }

  // Deterministic ranking + within-call dedup (overlapping knapsacks can
  // separate the same clique twice).
  std::sort(found.begin(), found.end(), cut_order_before);
  int emitted = 0;
  for (Cut& c : found) {
    if (emitted >= options.max_cuts) break;
    bool dup = false;
    for (int k = static_cast<int>(out->size()) - emitted;
         k < static_cast<int>(out->size()); ++k) {
      const Cut& prev = (*out)[k];
      if (prev.hash == c.hash && prev.rhs == c.rhs && prev.terms == c.terms) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    out->push_back(std::move(c));
    ++emitted;
  }
}

// ------------------------------------------------------------ Gomory cuts
//
// GMI derivation in the bound-shifted frame. The engine's tableau row at
// basis position p is the identity  x_B + sum_j coef_j x_j = 0  over the
// nonbasic columns j (structurals AND slacks). Substituting each nonbasic
// at its bound (lower: x = l + t, upper: x = u - t, t >= 0) turns it into
//   x_B = b  -  sum_j abar_j t_j,      b = basic value, t >= 0,
// with abar_j = +coef_j at a lower bound and -coef_j at an upper bound.
// With x_B integer and f0 = frac(b) usefully interior, the Gomory mixed
// integer cut in the >=-1 normalized form is
//   sum_{int j} gamma_j t_j + sum_{cont j} gamma_j t_j >= 1,
//   gamma_int  = f_j/f0            if f_j <= f0,   f_j = frac(abar_j)
//              = (1-f_j)/(1-f0)    otherwise,
//   gamma_cont = abar_j/f0         if abar_j >= 0,
//              = -abar_j/(1-f0)    otherwise.
// Mapping t back to x and substituting slack rows (s_r = (Ax)_r, bounds
// [row_lb, row_ub]) through one level of lp.entries yields a structural
// inequality, negated to the pool's <= convention.
void separate_gomory_cuts(const lp::LinearProgram& lp,
                          lp::DualSimplex& engine, std::span<const double> x,
                          const SeparationOptions& options,
                          std::vector<Cut>* out) {
  const int n = lp.num_vars();
  const int m = engine.num_rows();
  // Rowwise expansion of the LP for slack substitution (built once).
  std::vector<std::vector<std::pair<int, double>>> rows(
      static_cast<size_t>(m));
  for (const lp::Triplet& t : lp.entries)
    if (t.row < m) rows[static_cast<size_t>(t.row)].emplace_back(t.col, t.value);

  // True when shifting this nonbasic keeps an integral step variable.
  const auto integral_shift = [&](int col, double bound) {
    return col < n && lp.is_integer[col] &&
           std::abs(bound - std::llround(bound)) < 1e-9;
  };

  std::vector<Cut> found;
  std::vector<int> cols;
  std::vector<double> coefs;
  std::vector<double> acc(static_cast<size_t>(n), 0.0);
  std::vector<int> touched;
  for (int pos = 0; pos < m; ++pos) {
    const int basic = engine.basic_col(pos);
    if (basic < 0 || basic >= n || !lp.is_integer[basic]) continue;
    const double b = engine.basic_value(pos);
    const double f0 = b - std::floor(b);
    if (f0 < 0.005 || f0 > 0.995) continue;  // cut would be numerically weak
    if (!engine.tableau_row(pos, cols, coefs)) return;  // basis not factorized

    // gamma per nonbasic, still keyed by engine column (slack = n + row).
    bool usable = true;
    double rhs_ge = 1.0;
    touched.clear();
    auto add_term = [&](int col, double g) {
      if (g == 0.0) return;
      if (acc[static_cast<size_t>(col)] == 0.0) touched.push_back(col);
      acc[static_cast<size_t>(col)] += g;
    };
    for (size_t k = 0; k < cols.size() && usable; ++k) {
      const int col = cols[k];
      const int st = engine.col_status(col);
      const bool at_lower = st == lp::DualSimplex::kNonbasicLower;
      const bool at_upper = st == lp::DualSimplex::kNonbasicUpper;
      if (!at_lower && !at_upper) {
        // A free nonbasic has no bound frame to shift into.
        if (std::abs(coefs[k]) > 1e-9) usable = false;
        continue;
      }
      const double lo = col < n ? engine.var_lower(col) : lp.row_lb[col - n];
      const double hi = col < n ? engine.var_upper(col) : lp.row_ub[col - n];
      const double bound = at_lower ? lo : hi;
      if (bound == lp::kInf || bound == -lp::kInf) {
        usable = false;  // nonbasic pinned at an infinite bound: broken row
        continue;
      }
      if (hi - lo < 1e-12) continue;  // fixed: constant, no step variable
      const double abar = at_lower ? coefs[k] : -coefs[k];
      double gamma;
      if (integral_shift(col, bound)) {
        const double fj = abar - std::floor(abar);
        gamma = fj <= f0 ? fj / f0 : (1.0 - fj) / (1.0 - f0);
      } else {
        gamma = abar >= 0.0 ? abar / f0 : -abar / (1.0 - f0);
      }
      if (gamma < 1e-12) continue;
      // t = x - l (lower) or u - x (upper):  gamma * t >= part of lhs.
      const double delta = at_lower ? gamma : -gamma;
      rhs_ge += delta * bound;
      if (col < n) {
        add_term(col, delta);
      } else {
        // Substitute the slack by its defining row s_r = (Ax)_r.
        for (const auto& [c, v] : rows[static_cast<size_t>(col - n)])
          add_term(c, delta * v);
      }
    }
    if (usable) {
      // Collect, then guard: density, dynamic ratio, and droppable dust.
      // A column whose sum cancelled to exactly 0.0 and was then hit again
      // joined `touched` twice; list it once.
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      double max_a = 0.0;
      for (int c : touched)
        max_a = std::max(max_a, std::abs(acc[static_cast<size_t>(c)]));
      Cut cut;
      cut.source = Cut::kGomory;
      double min_a = std::numeric_limits<double>::infinity();
      bool ok = max_a > 1e-12 && touched.size() <= 128;
      for (int c : touched) {
        if (!ok) break;
        const double a = acc[static_cast<size_t>(c)];
        if (std::abs(a) < 1e-11 * max_a) {
          // Dust: drop the term, keeping the >= cut valid by charging its
          // largest possible contribution to the rhs. Needs a finite bound
          // on the charging side; dust on an unbounded column kills the cut.
          const double blo = lp.lb[c], bhi = lp.ub[c];
          const double worst = a >= 0.0 ? a * bhi : a * blo;
          if (worst == lp::kInf || worst == -lp::kInf ||
              std::isnan(worst)) {
            ok = false;
          } else {
            rhs_ge -= worst;
          }
          continue;
        }
        min_a = std::min(min_a, std::abs(a));
        cut.terms.emplace_back(c, -a);  // negate: emitted as <=
      }
      if (ok && !cut.terms.empty() && max_a / min_a <= 1e7) {
        cut.rhs = -rhs_ge;
        double act = 0.0, norm2 = 0.0;
        for (const auto& [c, a] : cut.terms) {
          act += a * x[c];
          norm2 += a * a;
        }
        cut.violation = (act - cut.rhs) / std::sqrt(std::max(norm2, 1e-12));
        if (cut.violation >= options.min_violation) {
          cut.hash = cut_hash(cut);
          found.push_back(std::move(cut));
        }
      }
    }
    for (int c : touched) acc[static_cast<size_t>(c)] = 0.0;
  }

  std::sort(found.begin(), found.end(), cut_order_before);
  if (static_cast<int>(found.size()) > options.max_cuts)
    found.resize(static_cast<size_t>(options.max_cuts));
  for (Cut& c : found) out->push_back(std::move(c));
}

bool CutPool::offer(Cut cut) {
  if (cut.hash == 0) cut.hash = cut_hash(cut);
  for (Entry& e : entries_) {
    if (e.cut.hash == cut.hash && e.cut.rhs == cut.rhs &&
        e.cut.terms == cut.terms) {
      if (e.in_lp) return false;
      // Re-separated: the cut is active again -- refresh its age and keep
      // the strongest observed violation as its selection score.
      e.age = 0;
      e.cut.violation = std::max(e.cut.violation, cut.violation);
      return true;
    }
  }
  if (entries_.size() >= opt_.max_entries) return false;
  entries_.push_back({std::move(cut), 0, false});
  return true;
}

bool cut_order_before(const Cut& a, const Cut& b) {
  if (a.violation != b.violation) return a.violation > b.violation;
  if (a.hash != b.hash) return a.hash < b.hash;
  if (a.rhs != b.rhs) return a.rhs < b.rhs;
  return a.terms < b.terms;
}

bool CutPool::order_before(const Entry& a, const Entry& b) {
  return cut_order_before(a.cut, b.cut);
}

std::vector<Cut> CutPool::select(int max_cuts) {
  std::vector<int> idx;
  for (size_t i = 0; i < entries_.size(); ++i)
    if (!entries_[i].in_lp) idx.push_back(static_cast<int>(i));
  std::sort(idx.begin(), idx.end(), [this](int a, int b) {
    return order_before(entries_[a], entries_[b]);
  });
  std::vector<Cut> out;
  for (size_t k = 0; k < idx.size() && static_cast<int>(k) < max_cuts; ++k) {
    Entry& e = entries_[idx[k]];
    e.in_lp = true;
    ++selected_;
    out.push_back(e.cut);
  }
  return out;
}

void CutPool::age_tick() {
  for (Entry& e : entries_)
    if (!e.in_lp) ++e.age;
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [this](const Entry& e) {
                                  return !e.in_lp && e.age > opt_.max_age;
                                }),
                 entries_.end());
  if (entries_.size() > opt_.max_entries) {
    // Keep every in-LP entry (they anchor dedup) and the best of the rest.
    std::stable_partition(entries_.begin(), entries_.end(),
                          [](const Entry& e) { return e.in_lp; });
    auto first_pooled =
        std::find_if(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return !e.in_lp; });
    std::sort(first_pooled, entries_.end(), order_before);
    entries_.resize(
        std::max(opt_.max_entries,
                 static_cast<size_t>(first_pooled - entries_.begin())));
  }
}

}  // namespace checkmate::milp
