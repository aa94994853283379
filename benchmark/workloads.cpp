#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace planbench {

using namespace checkmate;

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// A model and the share of its budget span its queries cover. Below `lo`
// solves leave the proven regime: they run into the 40,000-pivot work cap
// (5-10 s each) or past 15 s.
struct ModelRange {
  const char* name;
  double lo, hi;
};

constexpr ModelRange kZoo[] = {
    {"vgg16", 0.25, 0.97},    {"mobilenet", 0.25, 0.97},
    {"resnet", 0.25, 0.97},   {"fcn8", 0.55, 0.97},
    {"linear16", 0.55, 0.97}, {"unet", 0.93, 0.97},
    {"segnet", 0.93, 0.97},   {"chain8", 0.25, 0.97},
    {"chain12", 0.55, 0.97},
};

// Budget `j` of `k` spread evenly over [lo, hi]: the middle of stratum j.
//
// The query sets are fixed and the seed only orders them (pass_order).
// Solve time on this planner jumps 10-100x between neighbouring budgets --
// a budget that crosses a staircase step changes the optimal plan and the
// search -- so with seed-drawn budgets a run measured mostly where the draw
// landed: over ten seeds, zoo_cold's median latency spread 46% (IQR /
// median) and its peak RSS 53%.
double grid(double lo, double hi, int k, int j) {
  return lo + (j + 0.5) * (hi - lo) / k;
}

model::DnnGraph forward_graph(const std::string& name) {
  namespace zoo = model::zoo;
  if (name == "vgg16") return zoo::vgg16(2);
  if (name == "mobilenet") return zoo::mobilenet_v1(2, 64);
  if (name == "resnet") return zoo::resnet(2, 64, {1, 1, 1, 1});
  if (name == "fcn8") return zoo::fcn8(1, 96, 128);
  if (name == "linear16") return zoo::linear_net(16, 4, 8, 8);
  if (name == "unet") return zoo::unet(1, 96, 128);
  if (name == "segnet") return zoo::segnet(1, 96, 128);
  throw std::invalid_argument("unknown model " + name);
}

// Set-up of one instance: model build + autodiff, problem construction, and
// the checkpoint-all peak that anchors its budget span.
Instance build_instance(const std::string& name, Trace* trace) {
  Instance inst;
  inst.name = name;
  const auto t0 = Clock::now();
  auto t1 = t0;
  if (name.rfind("chain", 0) == 0) {
    inst.problem = RematProblem::unit_training_chain(std::stoi(name.substr(5)));
  } else if (name.rfind("uchain", 0) == 0) {
    inst.problem = RematProblem::unit_chain(std::stoi(name.substr(6)));
  } else {
    const model::DnnGraph train = model::make_training_graph(forward_graph(name));
    t1 = Clock::now();
    inst.problem =
        RematProblem::from_dnn(train, model::CostMetric::kProfiledTimeUs);
  }
  const auto t2 = Clock::now();
  inst.floor_bytes = inst.problem.memory_floor();
  inst.peak_all_bytes =
      evaluate_schedule_against(inst.problem,
                                baselines::checkpoint_all_schedule(inst.problem),
                                0.0)
          .peak_memory;
  const auto t3 = Clock::now();
  if (trace) {
    const Args args = Args().add("instance", name);
    if (t1 != t0) trace->span("model.build", "setup", 0, t0, t1, args);
    trace->span("core.problem.from_dnn", "setup", 0, t1, t2, args);
    trace->span("setup.budget_span", "setup", 0, t2, t3, args);
  }
  return inst;
}

int add_instance(Workload& w, const std::string& name, Trace* trace) {
  w.instances.push_back(build_instance(name, trace));
  return static_cast<int>(w.instances.size()) - 1;
}

Query query_at(const Workload& w, int instance, double frac,
               IlpFormulationKind formulation = IlpFormulationKind::kDense) {
  Query q;
  q.instance = instance;
  q.frac = frac;
  q.budget = w.instances[instance].budget_at(frac);
  q.formulation = formulation;
  return q;
}

const ModelRange& zoo_range(const char* name) {
  for (const ModelRange& m : kZoo)
    if (std::string(m.name) == name) return m;
  throw std::invalid_argument(std::string("no zoo range for ") + name);
}

// The paper's core query, cold: every budget of every zoo model on a fresh
// service.
void make_zoo_cold(Workload& w, Trace* trace) {
  constexpr int kPerModel = 4;
  for (const ModelRange& m : kZoo) {
    const int id = add_instance(w, m.name, trace);
    for (int j = 0; j < kPerModel; ++j)
      w.queries.push_back(query_at(w, id, grid(m.lo, m.hi, kPerModel, j)));
  }
}

// Deep chains on the interval backend: each proves at the root, so nearly
// all the time is LP kernel work, and pivots grow dearer with depth.
// (Transformer stacks on this backend are branch-heavy instead: 6 to 14
// blocks run into the work cap after 8-74 s per query.)
void make_deep_interval(Workload& w, Trace* trace) {
  constexpr int kChains = 8;
  for (int j = 0; j < kChains; ++j) {
    const int n = static_cast<int>(std::lround(grid(160, 480, kChains, j)));
    Query q;
    q.instance = add_instance(w, "uchain" + std::to_string(n), trace);
    q.budget = 6.0;  // unit memory: six live values
    q.formulation = IlpFormulationKind::kInterval;
    w.queries.push_back(q);
  }
}

// Figure-5 budget exploration through one long-lived service: each model's
// budgets arrive in descending order, models in seeded order.
void make_sweep_warm(Workload& w, Trace* trace) {
  constexpr int kPerModel = 16;
  for (const char* name : {"vgg16", "mobilenet", "resnet", "linear16",
                           "chain8", "chain12", "unet"}) {
    const ModelRange& m = zoo_range(name);
    const int id = add_instance(w, name, trace);
    for (int j = kPerModel - 1; j >= 0; --j) {
      w.queries.push_back(query_at(w, id, grid(m.lo, m.hi, kPerModel, j)));
      w.queries.back().sweep = id;
    }
  }
}

// Restart-then-serve: a store filled with a few plans per model, reopened,
// then a log of mostly repeated queries from concurrent clients. The fresh
// asks are a small fixed set, so a pass solves each at most once: its first
// ask misses the store, solves cold and writes a record, asks during that
// solve wait on it, later asks hit the record.
//   - One fresh budget per stored model, between two stored ones (the
//     staircase of a stored record may cover it). More per model would
//     warm-start from each other, and those solves cost 1-10x a cold one
//     depending on arrival order.
//   - Fifteen problems the store has never seen (training chains of other
//     lengths). With the model budgets alone a pass had ~10 slow answers
//     (at most 3 solves, and 3 clients waiting on each), exactly the count
//     the tail percentile leaves beyond it, and the tail flipped between
//     0.5 ms store hits and 10 ms waits on a solve.
void make_store_mixed(Workload& w, Trace* trace) {
  constexpr int kStoredPerModel = 4;
  constexpr int kLogSize = 4000;
  constexpr double kFreshShare = 0.1;
  constexpr double kLo = 0.6, kHi = 0.97;
  std::vector<Query> fresh;
  for (const char* name :
       {"vgg16", "mobilenet", "resnet", "chain8", "chain12"}) {
    const int id = add_instance(w, name, trace);
    // Filled like a sweep, largest budget first: each smaller budget then
    // starts from the larger one's proven plan and bound.
    for (int j = kStoredPerModel - 1; j >= 0; --j)
      w.populate.push_back(
          query_at(w, id, grid(kLo, kHi, kStoredPerModel, j)));
    fresh.push_back(query_at(w, id, 0.5 * (kLo + kHi)));
  }
  for (int layers : {5, 6, 7, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21})
    fresh.push_back(
        query_at(w, add_instance(w, "chain" + std::to_string(layers), trace),
                 kHi));
  for (Query& q : fresh) q.fresh = true;
  // Every stored and every fresh query equally often; the pass order
  // interleaves them.
  const int fresh_n = static_cast<int>(std::lround(kFreshShare * kLogSize));
  for (int i = 0; i < kLogSize; ++i)
    w.queries.push_back(i < fresh_n ? fresh[i % fresh.size()]
                                    : w.populate[i % w.populate.size()]);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "zoo_cold", "deep_interval", "sweep_warm", "store_mixed"};
  return names;
}

Workload make_workload(const std::string& name, uint64_t seed, Trace* trace) {
  Workload w;
  w.name = name;
  // Each workload orders from its own stream of the seed (FNV-1a of the
  // name: std::hash differs between standard libraries).
  uint64_t salt = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) salt = (salt ^ c) * 0x100000001b3ULL;
  w.order_seed = Rng(seed ^ salt).next();
  if (name == "zoo_cold") {
    make_zoo_cold(w, trace);
  } else if (name == "deep_interval") {
    make_deep_interval(w, trace);
  } else if (name == "sweep_warm") {
    w.serving = Serving::kSharedNoStore;
    make_sweep_warm(w, trace);
  } else if (name == "store_mixed") {
    w.serving = Serving::kStoreRestart;
    w.clients = 4;
    make_store_mixed(w, trace);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

std::vector<int> pass_order(const Workload& w, int pass) {
  std::vector<std::vector<int>> blocks;
  for (int i = 0; i < static_cast<int>(w.queries.size()); ++i) {
    const int sweep = w.queries[i].sweep;
    if (sweep >= 0 && i > 0 && w.queries[i - 1].sweep == sweep)
      blocks.back().push_back(i);
    else
      blocks.push_back({i});
  }
  Rng rng(w.order_seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(pass));
  rng.shuffle(blocks);
  std::vector<int> order;
  for (const auto& b : blocks) order.insert(order.end(), b.begin(), b.end());
  return order;
}

}  // namespace planbench
