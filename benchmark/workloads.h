// The benchmark's workloads: which instances each one plans for, and the
// seeded query stream it sends. The planner only ever sees the generated
// problems and budgets; the seed stays on this side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checkmate.h"
#include "trace.h"

namespace planbench {

// splitmix64: the same seed gives the same inputs on every machine.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Fisher-Yates with this generator (std::shuffle's draws are unspecified).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }

 private:
  uint64_t state_;
};

struct Instance {
  std::string name;
  checkmate::RematProblem problem;
  double floor_bytes = 0.0;     // structural memory floor
  double peak_all_bytes = 0.0;  // simulated peak of checkpoint-all
  // Budget at `frac` of the span from the floor to the checkpoint-all peak.
  double budget_at(double frac) const {
    return floor_bytes + frac * (peak_all_bytes - floor_bytes);
  }
};

struct Query {
  int instance = 0;    // index into Workload::instances
  double frac = 0.0;   // budget as a share of the span (0 for absolute)
  double budget = 0.0;  // bytes
  checkmate::IlpFormulationKind formulation =
      checkmate::IlpFormulationKind::kDense;
  bool fresh = false;  // store_mixed: a budget the store was not filled with
  // Consecutive queries with the same sweep id (>= 0) are one budget sweep:
  // every pass sends them back to back, in set order.
  int sweep = -1;
};

// How a workload talks to the planner.
enum class Serving {
  kColdPerQuery,  // a fresh PlanService (no store) for every query
  kSharedNoStore,  // one PlanService per pass, no store
  kStoreRestart,   // per pass: a copy of the filled store, reopened
};

struct Workload {
  std::string name;
  Serving serving = Serving::kColdPerQuery;
  int clients = 1;  // closed-loop client threads
  std::vector<Instance> instances;
  std::vector<Query> queries;   // what one pass sends
  std::vector<Query> populate;  // kStoreRestart: plans the store is filled with
  uint64_t order_seed = 0;      // seeds every pass's send order
};

const std::vector<std::string>& workload_names();

// Builds the instances of `name` and its query set for `seed`. Instance
// generation is the workload's set-up; with a trace, each model build and
// problem construction becomes a span on lane 0.
Workload make_workload(const std::string& name, uint64_t seed, Trace* trace);

// The send order of pass `pass`, as indices into w.queries: a fresh seeded
// permutation every pass (sweeps move as one block), so a run averages over
// arrival orders and a cut-short last pass covers a random subset.
std::vector<int> pass_order(const Workload& w, int pass);

}  // namespace planbench
