#include "service/formulation_cache.h"

namespace checkmate::service {

namespace {

// Full content comparison backing the fingerprint: everything the
// formulation depends on (names excluded, exactly as in
// RematProblem::fingerprint).
bool same_problem_content(const RematProblem& a, const RematProblem& b) {
  return a.size() == b.size() &&
         a.graph.num_edges() == b.graph.num_edges() &&
         a.cost == b.cost && a.memory == b.memory &&
         a.fixed_overhead == b.fixed_overhead &&
         a.is_backward == b.is_backward && a.grad_of == b.grad_of &&
         a.graph.edges() == b.graph.edges();
}

}  // namespace

size_t FormulationKeyHash::operator()(const FormulationKey& k) const {
  return static_cast<size_t>(store::shape_key(k.problem_fingerprint, k.shape));
}

FormulationCache::FormulationCache(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::shared_ptr<CacheEntry> FormulationCache::acquire(
    const RematProblem& problem, const IlpBuildOptions& build, bool* hit,
    int64_t* evictions) {
  const FormulationKey key{problem.fingerprint(),
                           store::StoreShape::of(build)};

  std::unique_lock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Fingerprint collision guard: the hit must match on full content
    // (O(problem), cheap next to a rebuild), otherwise treat it as a miss
    // and rebuild in place of the colliding entry.
    CacheEntry& e = *it->second;
    if (same_problem_content(e.problem, problem)) {
      e.last_used = ++tick_;
      if (hit) *hit = true;
      return it->second;
    }
    entries_.erase(it);
  }
  if (hit) *hit = false;

  auto entry = std::make_shared<CacheEntry>(problem);
  entry->form = std::make_unique<IlpFormulation>(entry->problem, build);
  entry->last_used = ++tick_;
  entries_.emplace(key, entry);

  while (entries_.size() > max_entries_) {
    auto victim = entries_.begin();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt)
      if (jt->second->last_used < victim->second->last_used) victim = jt;
    if (victim->second == entry) break;  // never evict the entry being handed out
    entries_.erase(victim);
    if (evictions) ++*evictions;
  }
  return entry;
}

void FormulationCache::clear() {
  std::unique_lock lock(mu_);
  entries_.clear();
}

size_t FormulationCache::size() const {
  std::unique_lock lock(mu_);
  return entries_.size();
}

}  // namespace checkmate::service
