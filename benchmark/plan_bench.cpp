// plan_bench: the repository's planning-query benchmark.
//
//   plan_bench --workload=W [--seed=S] [--seconds=N] [--trace=PATH]
//              [--out=PATH] [--reference=PATH]
//   plan_bench --write-reference=PATH
//   plan_bench --self-test
//
// One run sets the workload up several times (setup_s is a median), then
// sends its queries in passes, each in a fresh order drawn from the seed,
// until --seconds have elapsed. Every query goes through
// service::PlanService::plan_robust and is timed from outside. After each
// pass, every answer is checked by code that does not call the planner
// (check_plan.h) plus the plan simulator for the peak; with --reference,
// proven costs must also match the committed ones. Metrics print as
// `name value unit`; --out writes them with one row per distinct query.
// Stores live under build-bench/scratch, relative to the working directory.
//
// With --trace, the run first alternates full untraced and traced passes.
// In a traced pass each plan_robust call is a span, and after the call probe
// spans rerun each layer's public function on the same input, outside the
// query's interval. The spans are written to PATH as Chrome trace-event JSON
// at exit; summarize.py turns them into the per-layer metrics. End-to-end
// metrics always come from the untraced passes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "check_plan.h"
#include "checkmate.h"
#include "milp/presolve.h"
#include "store/plan_store.h"
#include "trace.h"
#include "workloads.h"

namespace planbench {
namespace {

using namespace checkmate;
namespace fs = std::filesystem;
using service::PlanOutcome;
using service::PlanProvenance;

// Every query runs with the same deterministic limits: the 40,000-pivot
// work cap ends hard searches identically on every machine, and the wall
// limit sits far above any capped solve so it never binds.
constexpr double kRelativeGap = 5e-4;
constexpr int64_t kMaxLpIterations = 40000;
constexpr double kWallLimitSec = 120.0;
// Set-up repeats at least kMinSetupReps times and for at least
// kSetupSeconds; setup_s is the median repetition.
constexpr size_t kMinSetupReps = 3;
constexpr double kSetupSeconds = 0.5;
constexpr int kMaxTracedPasses = 3;
constexpr const char* kScratchRoot = "build-bench/scratch";

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const char* backend_name(IlpFormulationKind f) {
  return f == IlpFormulationKind::kInterval ? "interval" : "dense";
}

IlpSolveOptions solve_options(IlpFormulationKind formulation) {
  IlpSolveOptions o;
  o.relative_gap = kRelativeGap;
  o.max_lp_iterations = kMaxLpIterations;
  o.time_limit_sec = kWallLimitSec;
  o.num_threads = 1;
  o.formulation = formulation;
  return o;
}

service::PlanServiceOptions service_options(const std::string& store_dir) {
  service::PlanServiceOptions o;
  o.num_threads = 1;
  o.store_dir = store_dir;
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quantile p of (value, weight) pairs sorted by value. Each value sits at
// the middle of its share of the cumulative weight, and p is interpolated
// linearly between the two values around it (with equal weights, the usual
// median and the Hazen quantile). Interpolating keeps the result close to
// continuous in the samples: the per-query latencies of a fixed query set
// have gaps (zoo_cold's two middle queries take ~145 and ~165 ms, the next
// ~400 ms), and a quantile that picks one sample jumped across such a gap
// whenever noise reordered two samples near it.
double weighted_quantile(const std::vector<std::pair<double, double>>& sorted,
                         double p) {
  if (sorted.empty()) return 0.0;
  double total = 0.0;
  for (const auto& s : sorted) total += s.second;
  const double target = p * total;
  double below = 0.0;  // weight of the values before i
  double prev_at = 0.0, prev = sorted.front().first;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double at = below + 0.5 * sorted[i].second;
    if (target <= at) {
      if (i == 0 || at <= prev_at) return sorted[i].first;
      return prev + (sorted[i].first - prev) * (target - prev_at) /
                        (at - prev_at);
    }
    below += sorted[i].second;
    prev_at = at;
    prev = sorted[i].first;
  }
  return sorted.back().first;
}

// The compute-once cost (sum of C), re-derived from the problem data.
double compute_once_cost(const RematProblem& p) {
  double total = 0.0;
  for (double c : p.cost) total += c;
  return total;
}

// Checks one answer. Every budget a workload asks is feasible, so an
// infeasible outcome is a failure too.
std::string check_outcome(const Instance& inst, const Query& q,
                          const PlanOutcome& out) {
  if (out.provenance == PlanProvenance::kInfeasible || !out.result.feasible)
    return "no plan returned: " + out.why_degraded;
  std::string err =
      check_schedule(inst.problem, out.result.solution, out.result.cost);
  if (!err.empty()) return err;
  SimulatorOptions so;
  so.budget_bytes = q.budget;
  const SimulationResult sim = simulate_plan(inst.problem, out.result.plan, so);
  if (!sim.valid) return "simulator rejects the plan: " + sim.error;
  const double tol = 1e-9 * std::max(1.0, std::abs(out.result.cost));
  if (std::abs(sim.total_cost - out.result.cost) > tol)
    return "executed plan cost differs from the R/S cost";
  if (!(out.gap >= 0.0) ||
      (out.provenance == PlanProvenance::kProvenOptimal &&
       out.gap > kRelativeGap + 1e-12))
    return "proven answer reports gap " + std::to_string(out.gap);
  return {};
}

// ------------------------------------------------------------------ run

struct Record {
  int pass = 0;
  int query = 0;  // index into Workload::queries
  bool traced = false;
  double latency_ms = 0.0;
  PlanProvenance provenance = PlanProvenance::kInfeasible;
  double cost = 0.0;
  double gap = 0.0;
  double overhead = 0.0;  // cost / compute-once cost
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  std::string failure;  // empty when every check passed
};

// An answer kept until its pass has ended, so that clients send their next
// query without waiting for the checks.
struct Answer {
  size_t record;  // index into the run's records
  PlanOutcome outcome;
};

// The service counters the traced run reports, by trace-arg name.
using service::ServiceStats;
constexpr std::pair<const char*, int64_t ServiceStats::*> kServiceCounters[] = {
    {"solves", &ServiceStats::queries},
    {"formulation_hits", &ServiceStats::formulation_hits},
    {"formulation_misses", &ServiceStats::formulation_misses},
    {"budget_rebinds", &ServiceStats::budget_rebinds},
    {"presolve_runs", &ServiceStats::presolve_runs},
    {"presolve_reuses", &ServiceStats::presolve_reuses},
    {"warm_starts", &ServiceStats::warm_starts_injected},
    {"shortcuts", &ServiceStats::warm_start_shortcuts},
    {"single_flight_shared", &ServiceStats::single_flight_shared},
    {"shed_overload", &ServiceStats::shed_overload},
    {"store_hits", &ServiceStats::store_hits},
    {"store_misses", &ServiceStats::store_misses},
    {"store_puts", &ServiceStats::store_puts},
    {"store_put_failures", &ServiceStats::store_put_failures},
};

// a += sign * b over kServiceCounters.
void accumulate(ServiceStats& a, const ServiceStats& b, int64_t sign = 1) {
  for (const auto& [name, field] : kServiceCounters) a.*field += sign * b.*field;
}

// Which layers a query actually ran, so each probe is only attributed to
// queries that paid for it.
struct Layers {
  bool solver = false;  // this query ran the MILP (any simplex pivots)
  bool built = false;   // a formulation was built for this query
  bool seeded = false;  // the scheduler seeded B&B with baseline schedules
};

class Runner {
 public:
  Runner(const Workload& w, Trace& trace, std::string scratch)
      : w_(w), trace_(trace), scratch_(std::move(scratch)) {}

  // Set-up of a kStoreRestart workload: fills a store, then reopens it as
  // a restarted server would.
  void fill_store() {
    fs::remove_all(filled_dir());
    {
      service::PlanService svc(service_options(filled_dir()));
      for (const Query& q : w_.populate)
        svc.plan_robust(w_.instances[q.instance].problem, q.budget,
                        solve_options(q.formulation));
    }
    service::PlanService reopened(service_options(filled_dir()));
  }

  // One pass over the workload's queries. No query is sent at or after
  // `cutoff`, so the last pass of a run may cover only a prefix.
  void run_pass(int pass, bool traced, Clock::time_point cutoff) {
    pass_ = pass;
    traced_ = traced;
    built_.clear();
    solved_.clear();
    const std::vector<int> order = pass_order(w_, pass);
    const int n = static_cast<int>(order.size());
    const auto t0 = Clock::now();
    Clock::time_point serve0, serve1;  // the clients' closed loops
    ServiceStats totals;
    if (w_.serving == Serving::kColdPerQuery) {
      serve0 = Clock::now();
      for (int k = 0; k < n && Clock::now() < cutoff; ++k) {
        service::PlanService svc(service_options(""));
        serve(svc, order[k], 0);
        accumulate(totals, svc.stats());
      }
      serve1 = Clock::now();
    } else if (w_.serving == Serving::kSharedNoStore) {
      service::PlanService svc(service_options(""));
      serve0 = Clock::now();
      for (int k = 0; k < n && Clock::now() < cutoff; ++k)
        serve(svc, order[k], 0);
      serve1 = Clock::now();
      totals = svc.stats();
    } else {
      const std::string dir = scratch_ + "/pass";
      fs::remove_all(dir);
      fs::copy(filled_dir(), dir, fs::copy_options::recursive);
      const auto l0 = Clock::now();
      service::PlanService svc(service_options(dir));
      const auto l1 = Clock::now();
      trace_span("store.load", "store", 0, l0, l1,
                 Args().add("records_loaded",
                            svc.plan_store()->stats().records_loaded));
      // Closed loop: client c sends the pass's queries c, c + clients, ...
      // in turn.
      std::vector<std::exception_ptr> errors(w_.clients);
      std::vector<std::thread> clients;
      serve0 = Clock::now();
      for (int c = 0; c < w_.clients; ++c)
        clients.emplace_back([this, &svc, &errors, &order, c, n, cutoff] {
          try {
            for (int k = c; k < n && Clock::now() < cutoff; k += w_.clients)
              serve(svc, order[k], c);
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      for (std::thread& t : clients) t.join();
      serve1 = Clock::now();
      for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
      totals = svc.stats();
    }
    if (!traced) untraced_serve_s_ += ms_between(serve0, serve1) / 1e3;
    for (Answer& a : answers_) {
      Record& r = records_[a.record];
      const Query& q = w_.queries[r.query];
      r.failure = check_outcome(w_.instances[q.instance], q, a.outcome);
    }
    answers_.clear();
    Args args;
    args.add("pass", pass).add("queries",
                               static_cast<int64_t>(w_.queries.size()));
    for (const auto& [name, field] : kServiceCounters)
      args.add(name, totals.*field);
    trace_span("pass", "pass", 0, t0, Clock::now(), args);
  }

  std::vector<Record>& records() { return records_; }
  // Wall time of the untraced passes' closed loops.
  double untraced_serve_s() const { return untraced_serve_s_; }

 private:
  std::string filled_dir() const { return scratch_ + "/filled"; }

  void trace_span(const std::string& name, const char* cat, int tid,
                  Clock::time_point a, Clock::time_point b,
                  const Args& args) {
    if (traced_) trace_.span(name, cat, tid, a, b, args);
  }

  // Sends query `index` and waits for the answer (closed loop), keeps it for
  // the checks after the pass and, in a traced pass, probes the layers it
  // ran.
  void serve(service::PlanService& svc, int index, int client) {
    const Query& q = w_.queries[index];
    const Instance& inst = w_.instances[q.instance];
    const IlpSolveOptions opts = solve_options(q.formulation);
    const ServiceStats before = traced_ ? svc.stats() : ServiceStats{};
    const auto t0 = Clock::now();
    PlanOutcome out = svc.plan_robust(inst.problem, q.budget, opts);
    const auto t1 = Clock::now();

    Record r;
    r.pass = pass_;
    r.query = index;
    r.traced = traced_;
    r.latency_ms = ms_between(t0, t1);
    r.provenance = out.provenance;
    r.cost = out.result.cost;
    r.gap = out.gap;
    r.overhead = out.result.cost / compute_once_cost(inst.problem);
    r.nodes = out.result.nodes;
    r.lp_iterations = out.result.lp_iterations;

    if (traced_) {
      const int64_t id =
          static_cast<int64_t>(pass_) * static_cast<int64_t>(w_.queries.size()) +
          index;
      Layers layers;
      layers.solver = out.result.lp_iterations > 0;
      if (w_.clients == 1) {
        // Single client: the service counters moved only for this query.
        ServiceStats d = svc.stats();
        accumulate(d, before, -1);
        layers.built = d.formulation_misses > 0;
        layers.seeded = layers.solver && d.warm_starts_injected == 0 &&
                        d.warm_start_shortcuts == 0;
      } else {
        // Concurrent clients share the counters. A single-flight follower
        // gets its leader's outcome, counters included, so only the first
        // answer per budget in a pass did the solve; and the service builds
        // each instance's formulation once, on its first solve.
        std::lock_guard lock(mu_);
        layers.solver =
            layers.solver && solved_.insert({q.instance, q.budget}).second;
        layers.built = layers.solver && built_.insert(q.instance).second;
        layers.seeded = layers.solver;
      }
      const ScheduleResult& res = out.result;
      trace_.span("query", "query", client, t0, t1,
                  Args()
                      .add("query", id)
                      .add("index", index)
                      .add("pass", pass_)
                      .add("instance", inst.name)
                      .add("backend", std::string(backend_name(q.formulation)))
                      .add("budget", q.budget)
                      .add("provenance",
                           std::string(service::to_string(out.provenance)))
                      .add("solver", layers.solver)
                      .add("built", layers.built)
                      .add("seeded", layers.seeded)
                      .add("zero_work", !layers.solver)
                      .add("nodes", res.nodes)
                      .add("lp_iterations", res.lp_iterations)
                      .add("cuts_added", res.cuts_added)
                      .add("gomory_cuts", res.gomory_cuts)
                      .add("cuts_removed", res.cuts_removed)
                      .add("strong_branches", res.strong_branches)
                      .add("lp_refactorizations", res.lp_refactorizations)
                      .add("lp_ft_updates", res.lp_ft_updates)
                      .add("lp_ft_growth_refactors", res.lp_ft_growth_refactors)
                      .add("lp_pricing_resets", res.lp_pricing_resets));
      probe(svc, q, inst, out, layers, id, client);
    }
    std::lock_guard lock(mu_);
    records_.push_back(std::move(r));
    answers_.push_back({records_.size() - 1, std::move(out)});
  }

  // Reruns each layer's public function on the query's input, outside the
  // query's interval, as a span tagged with the query id.
  void probe(service::PlanService& svc, const Query& q, const Instance& inst,
             const PlanOutcome& out, const Layers& layers, int64_t id,
             int tid) {
    const RematProblem& problem = inst.problem;
    auto timed = [&](const char* name, auto&& fn) {
      Args args;
      args.add("query", id);
      const auto a = Clock::now();
      fn(args);
      trace_.span(name, "probe", tid, a, Clock::now(), args);
    };

    if (out.result.feasible)
      timed("core.simulator.validate", [&](Args&) {
        evaluate_schedule_against(problem, out.result.solution, q.budget);
      });

    if (store::PlanStore* st = svc.plan_store()) {
      store::StoreShape shape;
      shape.formulation = q.formulation;
      timed("store.lookup", [&](Args&) {
        st->lookup(problem, shape, q.budget, kRelativeGap);
      });
      if (layers.solver && out.provenance == PlanProvenance::kProvenOptimal &&
          out.result.milp_status == milp::MilpStatus::kOptimal) {
        // The solve was followed by a durable write: repeat it into an
        // empty store.
        const std::string dir =
            scratch_ + "/probe-put-" + std::to_string(tid);
        fs::remove_all(dir);
        store::PlanStore probe_store(dir);
        timed("store.put", [&](Args&) {
          probe_store.put(problem, shape, q.budget, kRelativeGap, out.result);
        });
      }
    }

    if (!layers.solver) return;
    IlpBuildOptions build;
    build.budget_bytes = q.budget;
    build.formulation = q.formulation;
    std::optional<IlpFormulation> form;
    if (layers.built) {
      timed("core.ilp_builder", [&](Args& args) {
        form.emplace(problem, build);
        args.add("vars", form->lp().num_vars()).add("rows", form->lp().num_rows());
      });
    } else {
      form.emplace(problem, build);
    }

    milp::PresolveResult pre;
    timed("milp.presolve", [&](Args& args) {
      pre = milp::presolve(form->lp());
      args.add("rows_removed", pre.stats.rows_removed)
          .add("vars_fixed", pre.stats.vars_fixed);
    });
    if (pre.stats.proven_infeasible) return;

    lp::LpResult root;
    timed("lp.root", [&](Args& args) {
      root = lp::solve_lp(pre.lp);
      args.add("iterations", root.iterations);
    });
    if (root.status == lp::LpStatus::kOptimal) {
      // The incumbent heuristic: multi-threshold two-phase rounding of the
      // root's fractional checkpoint matrix.
      timed("core.rounding", [&](Args&) {
        const auto s_star = form->extract_fractional_s(root.x);
        for (double threshold : {0.5, 0.75, 0.9}) {
          RoundingOptions ro;
          ro.threshold = threshold;
          const RematSolution rounded =
              two_phase_round(problem.graph, s_star, ro);
          form->assemble_assignment(rounded);
        }
      });
    }

    if (layers.seeded)
      timed("baselines.seed", [&](Args&) {
        // The scheduler's seeding pass: every baseline family, then the
        // budget-aware retention ladder, each priced and assembled.
        auto offer = [&](const RematSolution& sol) {
          sol.compute_cost(problem);
          form->assemble_assignment(sol);
        };
        using baselines::BaselineKind;
        for (auto kind :
             {BaselineKind::kCheckpointAll, BaselineKind::kChenSqrtN,
              BaselineKind::kLinearizedSqrtN, BaselineKind::kLinearizedGreedy,
              BaselineKind::kApGreedy})
          for (const auto& bs : baselines::baseline_schedules(problem, kind))
            offer(bs.solution);
        const double headroom = q.budget - problem.fixed_overhead;
        for (double frac :
             {0.95, 0.85, 0.75, 0.6, 0.45, 0.3, 0.2, 0.12, 0.06, 0.03})
          offer(baselines::budget_aware_schedule(problem, frac * headroom));
      });
  }

  const Workload& w_;
  Trace& trace_;
  const std::string scratch_;
  int pass_ = 0;
  bool traced_ = false;
  double untraced_serve_s_ = 0.0;
  std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
  std::vector<Answer> answers_;  // this pass's; guarded by mu_
  std::set<int> built_;          // guarded by mu_
  std::set<std::pair<int, double>> solved_;  // guarded by mu_
};

// ------------------------------------------------------------ reference

struct RefKey {
  std::string workload, instance, backend, budget;  // budget as %.17g
  friend bool operator<(const RefKey& a, const RefKey& b) {
    return std::tie(a.workload, a.instance, a.backend, a.budget) <
           std::tie(b.workload, b.instance, b.backend, b.budget);
  }
};

RefKey ref_key(const Workload& w, const Query& q) {
  return {w.name, w.instances[q.instance].name, backend_name(q.formulation),
          json_number(q.budget)};
}

// The raw text of `"key": value` on one line of a file this program wrote
// (strings without their quotes).
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  size_t b = at + tag.size();
  if (line[b] == '"') {
    const size_t e = line.find('"', b + 1);
    return line.substr(b + 1, e - b - 1);
  }
  const size_t e = line.find_first_of(",}", b);
  return line.substr(b, e - b);
}

// Reference rows: one proven cost per (workload, instance, backend,
// budget). The query sets do not depend on the seed, so one reference
// serves every seed.
using Reference = std::map<RefKey, double>;

bool load_reference(const std::string& path, Reference& ref) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string wl = field(line, "workload");
    if (wl.empty()) continue;
    RefKey k{wl, field(line, "instance"), field(line, "backend"),
             json_number(std::strtod(field(line, "budget").c_str(), nullptr))};
    ref[k] = std::strtod(field(line, "cost").c_str(), nullptr);
  }
  return !ref.empty();
}

// ------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  int passes = 0;
  int traced_passes = 0;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  double trace_overhead_frac = 0.0;
};

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Cross-record checks: identical answers across passes (single client:
// the search is deterministic), the budget staircase, the reference.
void check_records(const Workload& w, std::vector<Record>& recs,
                   const Reference* ref) {
  if (w.clients == 1) {
    std::map<int, const Record*> first;
    for (const Record& r : recs) first.emplace(r.query, &r);
    for (Record& r : recs) {
      const Record& f = *first[r.query];
      if (r.failure.empty() &&
          (r.provenance != f.provenance || r.cost != f.cost))
        r.failure = "pass " + std::to_string(r.pass) +
                    " answered differently from pass " + std::to_string(f.pass);
    }
  }

  std::vector<ProvenPoint> points;
  for (size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    if (r.provenance != PlanProvenance::kProvenOptimal) continue;
    const Query& q = w.queries[r.query];
    points.push_back({w.instances[q.instance].name + "/" +
                          backend_name(q.formulation),
                      q.budget, r.cost, static_cast<int>(i)});
  }
  for (int i : check_staircase(points, kRelativeGap))
    if (recs[i].failure.empty())
      recs[i].failure = "staircase: cost rises above a smaller budget's";

  if (!ref) return;
  for (Record& r : recs) {
    if (r.provenance != PlanProvenance::kProvenOptimal || !r.failure.empty())
      continue;
    auto it = ref->find(ref_key(w, w.queries[r.query]));
    if (it == ref->end()) continue;  // not proven when recorded
    r.failure = check_reference(r.cost, it->second, kRelativeGap);
  }
}

RunResult summarize_run(const std::vector<Record>& recs,
                        size_t queries_per_pass, double setup_s,
                        double untraced_serve_s, int passes,
                        int traced_passes) {
  RunResult res;
  res.passes = passes;
  res.traced_passes = traced_passes;

  // Timing: every untraced sample, weighted so that each distinct query
  // counts once however many passes reached it (a cut-short last pass
  // reaches a random subset). Quality: the first pass, which always runs in
  // full and untraced.
  std::map<int, std::vector<double>> untraced, traced;  // by query
  int64_t first = 0, proven = 0, overhead_n = 0;
  double gap_sum = 0.0, log_overhead = 0.0;
  for (const Record& r : recs) {
    ++res.attempted;
    if (!r.failure.empty()) ++res.failed;
    (r.traced ? traced : untraced)[r.query].push_back(r.latency_ms);
    if (r.pass != 0) continue;
    ++first;
    if (r.provenance == PlanProvenance::kProvenOptimal) ++proven;
    if (r.provenance != PlanProvenance::kInfeasible) gap_sum += r.gap;
    if (r.overhead > 0.0) {
      log_overhead += std::log(r.overhead);
      ++overhead_n;
    }
  }
  std::vector<std::pair<double, double>> samples;  // (ms, weight)
  for (const auto& [q, v] : untraced)
    for (double ms : v) samples.emplace_back(ms, 1.0 / v.size());
  std::sort(samples.begin(), samples.end());
  // The tail is the highest percentile that leaves ten of a pass's N
  // queries beyond it, p(1 - 10/N); below N = 20, the slowest query (its
  // median, not the largest of its noisy samples).
  double tail = 0.0;
  if (queries_per_pass >= 20)
    tail = weighted_quantile(samples, 1.0 - 10.0 / queries_per_pass);
  else
    for (const auto& [q, v] : untraced) tail = std::max(tail, median(v));
  // Completed untraced queries over the wall time of the closed loops that
  // sent them.
  const double qps =
      untraced_serve_s > 0.0 ? samples.size() / untraced_serve_s : 0.0;

  // Tracing overhead over the queries both kinds of pass sent.
  double traced_sum = 0.0, untraced_sum = 0.0;
  for (const auto& [q, v] : traced) {
    if (auto it = untraced.find(q); it != untraced.end()) {
      traced_sum += median(v);
      untraced_sum += median(it->second);
    }
  }

  auto share = [&](double num) { return first ? num / first : 0.0; };
  res.metrics = {
      {"setup_s", setup_s, "s"},
      {"query_p50_ms", weighted_quantile(samples, 0.5), "ms"},
      {"query_tail_ms", tail, "ms"},
      {"queries_per_s", qps, "1/s"},
      {"proven_optimal_frac", share(proven), "ratio"},
      {"mean_gap", share(gap_sum), "ratio"},
      {"overhead_geomean",
       overhead_n ? std::exp(log_overhead / overhead_n) : 0.0, "ratio"},
      {"failed_frac",
       res.attempted ? static_cast<double>(res.failed) / res.attempted : 0.0,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  if (untraced_sum > 0.0)
    res.trace_overhead_frac = (traced_sum - untraced_sum) / untraced_sum;
  return res;
}

// Writes the run's metrics and one row per distinct query: its first-pass
// answer, its median untraced latency, and its first failure, if any.
bool write_results(const std::string& path, const Workload& w, uint64_t seed,
                   double seconds, const std::string& trace_path,
                   const RunResult& res, const std::vector<Record>& recs) {
  std::map<int, std::vector<const Record*>> by_query;
  for (const Record& r : recs) by_query[r.query].push_back(&r);
  std::string rows;
  for (const auto& [index, samples] : by_query) {
    const Record* first = samples.front();
    std::vector<double> lat;
    std::string failure;
    for (const Record* r : samples) {
      if (r->pass < first->pass) first = r;
      if (!r->traced) lat.push_back(r->latency_ms);
      if (failure.empty()) failure = r->failure;
    }
    const Query& q = w.queries[index];
    Args row;
    row.add("query", index)
        .add("instance", w.instances[q.instance].name)
        .add("backend", std::string(backend_name(q.formulation)))
        .add("frac", q.frac)
        .add("budget", q.budget)
        .add("fresh", q.fresh)
        .add("samples", static_cast<int64_t>(lat.size()))
        .add("latency_ms", median(lat))
        .add("provenance", std::string(service::to_string(first->provenance)))
        .add("cost", first->cost)
        .add("gap", first->gap)
        .add("overhead", first->overhead)
        .add("nodes", first->nodes)
        .add("lp_iterations", first->lp_iterations)
        .add("failure", failure);
    rows += (rows.empty() ? "[\n" : ",\n") + row.json();
  }
  rows += rows.empty() ? "[]" : "\n]";

  Args metrics;
  for (const Metric& m : res.metrics)
    metrics.raw(m.name.c_str(),
                Args().add("value", m.value).add("unit", m.unit).json());
  Args top;
  top.add("workload", w.name)
      .add("seed", static_cast<int64_t>(seed))
      .add("seconds", seconds)
      .add("passes", res.passes)
      .add("traced_passes", res.traced_passes)
      .add("queries_per_pass", static_cast<int64_t>(w.queries.size()))
      .add("correct", res.failed == 0)
      .add("attempted", res.attempted)
      .add("failed", res.failed)
      .add("trace", trace_path)
      .raw("metrics", metrics.json())
      .raw("rows", rows);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs((top.json() + "\n").c_str(), f);
  return std::fclose(f) == 0;
}

// A per-process scratch directory for stores, removed on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& root, const std::string& workload)
      : path_(root + "/" + workload + "-" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_path;  // empty: untraced
};

struct RunOutput {
  Workload workload;
  std::vector<Record> records;
  RunResult result;
};

RunOutput run_workload(const RunConfig& cfg, const Reference* ref,
                       Trace& trace) {
  ScratchDir scratch(kScratchRoot, cfg.workload);
  RunOutput out;

  // Set-up: instance generation, and for the store workload the fill and
  // the first reopen. Only the first repetition is traced.
  std::vector<double> reps;  // seconds
  double setup_total = 0.0;
  std::unique_ptr<Runner> runner;
  do {
    const auto t0 = Clock::now();
    out.workload =
        make_workload(cfg.workload, cfg.seed,
                      reps.empty() && trace.enabled() ? &trace : nullptr);
    runner = std::make_unique<Runner>(out.workload, trace, scratch.path());
    if (out.workload.serving == Serving::kStoreRestart) runner->fill_store();
    reps.push_back(ms_between(t0, Clock::now()) / 1e3);
    setup_total += reps.back();
  } while (reps.size() < kMinSetupReps || setup_total < kSetupSeconds);

  // The first pass always runs in full; then passes continue until the
  // time is up, the last one cut short. A traced run first alternates full
  // untraced and traced passes, so both cover the same queries, for at
  // most kMaxTracedPasses traced passes (spans stay in memory).
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  const bool tracing = trace.enabled();
  int passes = 0, traced_passes = 0;
  do {
    const bool pairing = tracing && traced_passes < kMaxTracedPasses;
    const bool traced = pairing && passes % 2 == 1;
    runner->run_pass(passes, traced,
                     passes == 0 || pairing ? Clock::time_point::max()
                                            : deadline);
    traced_passes += traced;
    ++passes;
  } while (Clock::now() < deadline || (tracing && traced_passes == 0));
  out.records = std::move(runner->records());
  check_records(out.workload, out.records, ref);
  out.result = summarize_run(out.records, out.workload.queries.size(),
                             median(reps), runner->untraced_serve_s(), passes,
                             traced_passes);
  return out;
}

void print_metrics(const RunResult& res) {
  for (const Metric& m : res.metrics)
    std::printf("%-22s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%-22s %d count\n", "passes", res.passes);
  std::printf("%-22s %lld count\n", "attempted",
              static_cast<long long>(res.attempted));
  std::printf("%-22s %lld count\n", "failed",
              static_cast<long long>(res.failed));
}

void print_failures(const RunOutput& out, size_t limit = 10) {
  size_t shown = 0;
  for (const Record& r : out.records) {
    if (r.failure.empty() || shown++ >= limit) continue;
    const Query& q = out.workload.queries[r.query];
    std::fprintf(stderr, "FAIL pass %d query %d (%s, budget %.17g): %s\n",
                 r.pass, r.query, out.workload.instances[q.instance].name.c_str(),
                 q.budget, r.failure.c_str());
  }
}

// -------------------------------------------------------- write-reference

// Records every workload's proven costs (one pass each) after checking the
// dense proofs against the interval backend.
int write_reference(const std::string& path) {
  Reference rows;
  int failures = 0;
  for (const std::string& name : workload_names()) {
    RunConfig cfg;
    cfg.workload = name;
    cfg.seconds = 0.0;  // one pass
    Trace off(false);
    RunOutput run = run_workload(cfg, nullptr, off);
    std::fprintf(stderr, "%s: %zu queries, %lld failed\n", name.c_str(),
                 run.records.size(), static_cast<long long>(run.result.failed));
    print_failures(run);
    failures += static_cast<int>(run.result.failed);
    for (const Record& r : run.records)
      if (r.provenance == PlanProvenance::kProvenOptimal)
        rows.emplace(ref_key(run.workload, run.workload.queries[r.query]),
                     r.cost);

    // Dense proofs against the interval backend, a restriction of the
    // dense schedule space: dense <= interval * (1 + gap).
    std::set<std::string> seen;
    for (const Record& r : run.records) {
      const Query& q = run.workload.queries[r.query];
      const Instance& inst = run.workload.instances[q.instance];
      if (r.provenance != PlanProvenance::kProvenOptimal ||
          q.formulation != IlpFormulationKind::kDense ||
          !seen.insert(inst.name + json_number(q.budget)).second)
        continue;
      service::PlanService svc(service_options(""));
      const PlanOutcome iv = svc.plan_robust(
          inst.problem, q.budget, solve_options(IlpFormulationKind::kInterval));
      if (!iv.result.feasible) continue;
      const double slack = 1e-9 * std::max(1.0, iv.result.cost);
      if (r.cost > iv.result.cost * (1.0 + kRelativeGap) + slack) {
        std::fprintf(stderr,
                     "MISMATCH %s budget %.17g: dense proven %.17g > interval "
                     "%.17g\n",
                     inst.name.c_str(), q.budget, r.cost, iv.result.cost);
        ++failures;
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d failures; reference not written\n", failures);
    return 1;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"relative_gap\": %s, \"rows\": [\n",
               json_number(kRelativeGap).c_str());
  size_t i = 0;
  for (const auto& [k, cost] : rows) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"instance\": \"%s\", \"backend\": "
                 "\"%s\", \"budget\": %s, \"cost\": %s}%s\n",
                 k.workload.c_str(), k.instance.c_str(), k.backend.c_str(),
                 k.budget.c_str(), json_number(cost).c_str(),
                 ++i < rows.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) return 1;
  std::fprintf(stderr, "wrote %zu reference rows to %s\n", rows.size(),
               path.c_str());
  return 0;
}

// ------------------------------------------------------------- self-test

// Hand-built bad answers the checker must reject, next to good ones it must
// accept.
int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%-50s %s\n", what, ok ? "ok" : "FAILED");
    failures += !ok;
  };

  const RematProblem p = RematProblem::unit_training_chain(4);
  const RematSolution good = baselines::checkpoint_all_schedule(p);
  double cost = 0.0;
  for (const auto& row : good.R)
    for (int i = 0; i < p.size(); ++i) cost += row[i] ? p.cost[i] : 0.0;
  expect(check_schedule(p, good, cost).empty(), "checkpoint-all plan accepted");

  // Missing dependency: drop a retained input some stage consumes.
  RematSolution missing_dep = good;
  bool dropped = false;
  for (int t = 0; t < p.size() && !dropped; ++t)
    for (int i = 0; i < p.size() && !dropped; ++i)
      if (missing_dep.R[t][i])
        for (NodeId j : p.graph.deps(i))
          if (missing_dep.S[t][j] && !missing_dep.R[t][j]) {
            missing_dep.S[t][j] = 0;
            // Keep liveness (1c) intact so only (1b) is broken.
            for (int u = t + 1; u < p.size(); ++u) missing_dep.S[u][j] = 0;
            dropped = true;
            break;
          }
  expect(dropped && check_schedule(p, missing_dep, cost).find("(1b)") !=
                        std::string::npos,
         "missing dependency rejected");

  // Liveness alone: the last node is retained into stage 1, before it is
  // ever computed; no stage reads it there, so no dependency breaks.
  RematSolution dead = good;
  dead.S[1][p.size() - 1] = 1;
  expect(check_schedule(p, dead, cost).find("(1c)") != std::string::npos,
         "liveness violation rejected");

  RematSolution never = good;
  never.R[p.size() - 1][p.size() - 1] = 0;
  expect(check_schedule(p, never, cost).find("never computed") !=
             std::string::npos,
         "uncomputed node rejected");

  expect(check_schedule(p, good, cost + 1.0).find("cost mismatch") !=
             std::string::npos,
         "cost mismatch rejected");

  const std::vector<ProvenPoint> rising = {
      {"m", 1.0, 10.0, 0}, {"m", 2.0, 10.2, 1}, {"other", 3.0, 50.0, 2}};
  const std::vector<int> bad = check_staircase(rising, kRelativeGap);
  expect(bad.size() == 1 && bad[0] == 1, "non-monotone staircase rejected");
  const std::vector<ProvenPoint> falling = {
      {"m", 1.0, 10.0, 0}, {"m", 2.0, 10.004, 1}, {"m", 3.0, 9.0, 2}};
  expect(check_staircase(falling, kRelativeGap).empty(),
         "staircase within the gap accepted");

  expect(!check_reference(100.0, 100.2, kRelativeGap).empty(),
         "proven cost off the reference rejected");
  expect(check_reference(100.0, 100.04, kRelativeGap).empty(),
         "proven cost within the gap of the reference accepted");

  std::printf("self-test %s\n", failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: plan_bench --workload=W [--seed=S] [--seconds=N] "
               "[--trace=PATH] [--out=PATH] [--reference=PATH]\n"
               "       plan_bench --write-reference=PATH\n"
               "       plan_bench --self-test\n"
               "workloads: zoo_cold deep_interval sweep_warm store_mixed\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  RunConfig cfg;
  std::string out_path, ref_path, write_ref;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* key) -> const char* {
      const size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) cfg.workload = v;
    else if (const char* v = value("--seed=")) cfg.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) cfg.seconds = std::atof(v);
    else if (const char* v = value("--trace=")) cfg.trace_path = v;
    else if (const char* v = value("--out=")) out_path = v;
    else if (const char* v = value("--reference=")) ref_path = v;
    else if (const char* v = value("--write-reference=")) write_ref = v;
    else if (a == "--self-test") self = true;
    else return usage();
  }
  if (self) return self_test();
  if (!write_ref.empty()) return write_reference(write_ref);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end() ||
      !(cfg.seconds >= 0.0))
    return usage();

  Reference ref;
  if (!ref_path.empty()) {
    if (!load_reference(ref_path, ref)) {
      std::fprintf(stderr, "cannot read reference %s\n", ref_path.c_str());
      return 1;
    }
  }

  Trace trace(!cfg.trace_path.empty());
  RunOutput run = run_workload(cfg, ref_path.empty() ? nullptr : &ref, trace);
  print_metrics(run.result);
  print_failures(run);
  if (trace.enabled()) {
    Args other;
    other.add("workload", cfg.workload)
        .add("seed", static_cast<int64_t>(cfg.seed))
        .add("passes", run.result.passes)
        .add("traced_passes", run.result.traced_passes)
        .add("queries_per_pass",
             static_cast<int64_t>(run.workload.queries.size()))
        .add("trace_overhead_frac", run.result.trace_overhead_frac);
    if (!trace.write(cfg.trace_path, other)) {
      std::fprintf(stderr, "cannot write trace %s\n", cfg.trace_path.c_str());
      return 1;
    }
  }
  if (!out_path.empty() &&
      !write_results(out_path, run.workload, cfg.seed, cfg.seconds,
                     cfg.trace_path, run.result, run.records)) {
    std::fprintf(stderr, "cannot write results %s\n", out_path.c_str());
    return 1;
  }
  return run.result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace planbench

int main(int argc, char** argv) {
  try {
    return planbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan_bench: %s\n", e.what());
    return 1;
  }
}
