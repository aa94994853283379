// Crash-safe plan store + service admission layer.
//
// The store half: records round-trip through disk (and through a
// memory-only store, which writes nothing), survive a process "restart"
// (a fresh PlanStore on the same directory), serve the budget staircase,
// and every corruption mode -- truncation, bit flips, version
// skew, even a checksum-consistent flip -- degrades to a quarantined
// record and a cache miss, never a wrong plan. The admission half: a
// store populated by one service serves proven optima (zero solver work)
// to a fresh one; a thundering herd of identical queries costs exactly
// one solve; overload sheds to the heuristic rung with a typed reason.
//
// Every test runs in its own TempDir, removed on pass and fail alike.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "robust/fault_injection.h"
#include "service/plan_service.h"
#include "store/plan_store.h"
#include "temp_dir.h"

namespace checkmate {
namespace {

namespace fs = std::filesystem;
using service::PlanOutcome;
using service::PlanProvenance;
using store::PlanStore;
using store::StoreShape;
using testing::TempDir;

// One proven optimum to seed stores with: solved fresh through a plain
// (store-less) service so the store tests control persistence themselves.
ScheduleResult solve_fresh(const RematProblem& p, double budget) {
  service::PlanService svc;
  ScheduleResult res = svc.plan_robust(p, budget).result;
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.milp_status, milp::MilpStatus::kOptimal);
  return res;
}

std::vector<std::string> files_with_ext(const std::string& dir,
                                        const std::string& ext) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ext) out.push_back(e.path().string());
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// FNV-1a, matching the record checksum, for the checksum-consistent
// corruption test.
uint64_t fnv1a(const std::string& bytes, size_t from, size_t len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = from; i < from + len; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The staircase tests run on a disk-backed store and on a memory-only one
// (empty directory string): the staircase rule is the same, only
// persistence differs.
class PlanStoreBacking : public ::testing::TestWithParam<bool> {
 protected:
  bool on_disk() const { return GetParam(); }
  std::string directory() const { return on_disk() ? dir_.path() : ""; }

  // A disk store wrote and counted one file per record; a memory-only
  // store wrote nothing, neither in the test directory nor in the working
  // directory an empty path resolves to, and counted nothing.
  void expect_persisted(const PlanStore& store, size_t records) {
    const size_t want = on_disk() ? records : 0;
    EXPECT_EQ(store.stats().puts, static_cast<int64_t>(want));
    EXPECT_EQ(files_with_ext(dir_.path(), ".plan").size(), want);
    EXPECT_TRUE(files_with_ext(fs::current_path().string(), ".plan").empty());
  }

  TempDir dir_{"checkmate_store"};
};

INSTANTIATE_TEST_SUITE_P(Backing, PlanStoreBacking, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Disk" : "MemoryOnly";
                         });

TEST_P(PlanStoreBacking, PutLookupRoundTripServesValidatedOptimum) {
  auto p = RematProblem::unit_training_chain(6);
  const double budget = p.total_memory();
  const ScheduleResult solved = solve_fresh(p, budget);

  PlanStore store(directory());
  ASSERT_TRUE(store.put(p, StoreShape{}, budget, 1e-4, solved));
  expect_persisted(store, 1);

  auto hit = store.lookup(p, StoreShape{}, budget, 1e-4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->feasible);
  EXPECT_EQ(hit->milp_status, milp::MilpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(hit->cost, solved.cost);
  EXPECT_EQ(hit->nodes, 0) << "a store hit must do zero solver work";
  EXPECT_EQ(store.stats().hits, 1);
}

TEST(PlanStore, RestartServesBitIdenticalPlanFromDisk) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(6);
  const double budget = p.total_memory();
  const ScheduleResult solved = solve_fresh(p, budget);
  {
    PlanStore store(dir.path());
    ASSERT_TRUE(store.put(p, StoreShape{}, budget, 1e-4, solved));
  }
  // "Restart": a fresh instance recovers the record from disk alone.
  PlanStore store(dir.path());
  EXPECT_EQ(store.stats().records_loaded, 1);
  EXPECT_EQ(store.stats().load_quarantines, 0);
  auto hit = store.lookup(p, StoreShape{}, budget, 1e-4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->solution.R, solved.solution.R);
  EXPECT_EQ(hit->solution.S, solved.solution.S);
  EXPECT_DOUBLE_EQ(hit->cost, solved.cost);
  EXPECT_EQ(hit->nodes, 0);
}

TEST_P(PlanStoreBacking, StaircaseServesDownToThePlanPeakAndNotBelow) {
  auto p = RematProblem::unit_training_chain(8);
  // Solve at a fractional mid budget: the optimum's integral peak lands
  // strictly below it, opening a real staircase step [peak, budget].
  const double top =
      p.memory_floor() + 0.6 * (p.total_memory() - p.memory_floor());
  const ScheduleResult solved = solve_fresh(p, top);
  ASSERT_GT(top, solved.peak_memory);

  PlanStore store(directory());
  ASSERT_TRUE(store.put(p, StoreShape{}, top, 1e-4, solved));
  expect_persisted(store, 1);
  // Any budget on [peak, solved] is on this record's staircase step.
  const double mid = 0.5 * (solved.peak_memory + top);
  auto hit = store.lookup(p, StoreShape{}, mid, 1e-4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->cost, solved.cost);
  EXPECT_LE(hit->peak_memory, mid + 1e-9);
  // Below the plan's own peak the schedule no longer fits; the dual bound
  // still transfers down-budget for the re-solve to terminate against.
  const double below = 0.5 * (p.memory_floor() + solved.peak_memory);
  if (below < solved.peak_memory * (1.0 - 1e-9)) {
    double bound = 0.0;
    auto miss = store.lookup(p, StoreShape{}, below, 1e-4, &bound);
    EXPECT_FALSE(miss.has_value());
    EXPECT_GE(bound, solved.best_bound - 1e-12);
  }
}

TEST(PlanStore, ShapeIsPartOfTheKey) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(6);
  const double budget = p.total_memory();
  PlanStore store(dir.path());
  ASSERT_TRUE(store.put(p, StoreShape{}, budget, 1e-4,
                        solve_fresh(p, budget)));
  StoreShape other;
  other.eliminate_diag_free = false;
  EXPECT_FALSE(store.lookup(p, other, budget, 1e-4).has_value());
  EXPECT_TRUE(store.lookup(p, StoreShape{}, budget, 1e-4).has_value());
}

TEST(PlanStore, TighterGapQueryDoesNotInheritALooserCertificate) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(8);
  // Tight budget so the optimum sits above the compute floor (otherwise
  // the floor itself is a zero-gap certificate and any gap is served).
  const double budget =
      p.memory_floor() + 0.2 * (p.total_memory() - p.memory_floor());
  ScheduleResult solved = solve_fresh(p, budget);
  ASSERT_GT(solved.cost, p.total_cost_all_nodes() * (1.0 + 1e-6));
  // Forge a loose certificate: the cost is provably within 10% only. A
  // query demanding 1e-6 must re-solve, not inherit it.
  solved.best_bound = solved.cost * 0.9;
  PlanStore store(dir.path());
  ASSERT_TRUE(store.put(p, StoreShape{}, budget, 0.2, solved));
  EXPECT_FALSE(store.lookup(p, StoreShape{}, budget, 1e-6).has_value());
  EXPECT_TRUE(store.lookup(p, StoreShape{}, budget, 0.2).has_value());
}

// ------------------------------------------------------------- corruption

class PlanStoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    problem_ = RematProblem::unit_training_chain(6);
    budget_ = problem_.total_memory();
    solved_ = solve_fresh(problem_, budget_);
    PlanStore store(dir_.path());
    ASSERT_TRUE(store.put(problem_, StoreShape{}, budget_, 1e-4, solved_));
    auto files = files_with_ext(dir_.path(), ".plan");
    ASSERT_EQ(files.size(), 1u);
    record_path_ = files[0];
  }

  // After corruption: reload must quarantine (never crash), lookups must
  // miss, and the damaged file must be renamed out of the load path.
  void expect_quarantined_on_reload() {
    PlanStore store(dir_.path());
    EXPECT_EQ(store.stats().records_loaded, 0);
    EXPECT_EQ(store.stats().load_quarantines, 1);
    EXPECT_FALSE(
        store.lookup(problem_, StoreShape{}, budget_, 1e-4).has_value());
    EXPECT_TRUE(files_with_ext(dir_.path(), ".plan").empty());
    EXPECT_EQ(files_with_ext(dir_.path(), ".quarantined").size(), 1u);
  }

  TempDir dir_{"checkmate_store"};
  RematProblem problem_;
  double budget_ = 0.0;
  ScheduleResult solved_;
  std::string record_path_;
};

TEST_F(PlanStoreCorruption, TruncatedRecordIsQuarantinedOnLoad) {
  // A torn write that survived a crash: the file exists but is short.
  const std::string bytes = read_file(record_path_);
  write_file(record_path_, bytes.substr(0, bytes.size() / 2));
  expect_quarantined_on_reload();
}

TEST_F(PlanStoreCorruption, BitFlippedRecordIsQuarantinedOnLoad) {
  std::string bytes = read_file(record_path_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_file(record_path_, bytes);
  expect_quarantined_on_reload();
}

TEST_F(PlanStoreCorruption, VersionSkewIsQuarantinedNotMisparsed) {
  std::string bytes = read_file(record_path_);
  bytes[4] = static_cast<char>(0xfe);  // version field follows the magic
  write_file(record_path_, bytes);
  expect_quarantined_on_reload();
}

TEST_F(PlanStoreCorruption, EmptyRecordFileIsQuarantinedOnLoad) {
  write_file(record_path_, "");
  expect_quarantined_on_reload();
}

TEST_F(PlanStoreCorruption, StrandedTempFilesAreSweptOnLoad) {
  write_file(record_path_ + ".tmp", "half-written debris");
  PlanStore store(dir_.path());
  EXPECT_EQ(store.stats().records_loaded, 1);
  EXPECT_FALSE(fs::exists(record_path_ + ".tmp"));
}

// The deepest corruption mode: a flip that *fixes up the checksum* so the
// header checks all pass. Validation-before-serve is the last line: the
// simulator cannot reproduce the recorded economics from the damaged
// schedule, so the record is quarantined at lookup -- a miss, never a
// wrong plan.
TEST_F(PlanStoreCorruption, ChecksumConsistentFlipIsCaughtBySimulator) {
  std::string bytes = read_file(record_path_);
  constexpr size_t kHeaderBytes = 24;  // magic, version, length, checksum
  const size_t payload_len = bytes.size() - kHeaderBytes;
  // Toggle the first R cell (R[0][0] = 1 in any partitioned schedule):
  // the R matrix starts after the fixed fields and the problem blob.
  const size_t blob_len = problem_.serialize_canonical().size();
  const size_t r_offset = kHeaderBytes + 8 + 4 + 8 * 6 + 8 + blob_len + 8;
  ASSERT_LT(r_offset, bytes.size());
  bytes[r_offset] = static_cast<char>(bytes[r_offset] ^ 0x01);
  // Recompute and patch the checksum so the header verifies.
  const uint64_t sum = fnv1a(bytes, kHeaderBytes, payload_len);
  for (int b = 0; b < 8; ++b)
    bytes[16 + b] = static_cast<char>((sum >> (8 * b)) & 0xff);
  write_file(record_path_, bytes);

  PlanStore store(dir_.path());
  ASSERT_EQ(store.stats().records_loaded, 1) << "header must verify";
  EXPECT_FALSE(
      store.lookup(problem_, StoreShape{}, budget_, 1e-4).has_value());
  EXPECT_EQ(store.stats().validation_quarantines, 1);
  EXPECT_EQ(files_with_ext(dir_.path(), ".quarantined").size(), 1u);
}

// ------------------------------------------------------ service admission

TEST(PlanServiceStore, RestartServesProvenOptimalWithZeroSolverWork) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(8);
  const double budget = 0.5 * (p.memory_floor() + p.total_memory());

  service::PlanServiceOptions sopts;
  sopts.store_dir = dir.path();
  PlanOutcome first;
  {
    service::PlanService svc(sopts);
    first = svc.plan_robust(p, budget);
    ASSERT_EQ(first.provenance, PlanProvenance::kProvenOptimal);
    EXPECT_EQ(svc.stats().store_puts, 1);
  }
  // Fresh process: the plan comes back proven optimal from disk alone --
  // no MILP query, zero branch-and-bound nodes, bit-identical schedule.
  service::PlanService svc(sopts);
  const PlanOutcome again = svc.plan_robust(p, budget);
  ASSERT_EQ(again.provenance, PlanProvenance::kProvenOptimal);
  EXPECT_TRUE(again.why_degraded.empty());
  EXPECT_DOUBLE_EQ(again.result.cost, first.result.cost);
  EXPECT_EQ(again.result.solution.R, first.result.solution.R);
  EXPECT_EQ(again.result.solution.S, first.result.solution.S);
  EXPECT_EQ(again.result.nodes, 0);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, 0) << "a store hit must not reach the solver";
  EXPECT_EQ(stats.store_hits, 1);
}

TEST(PlanServiceStore, SweepRepersistsOnlyDistinctStaircaseSteps) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(8);
  service::PlanServiceOptions sopts;
  sopts.store_dir = dir.path();
  service::PlanService svc(sopts);
  const double floor = p.memory_floor();
  const double top = p.total_memory();
  std::vector<double> budgets;
  for (int i = 0; i < 6; ++i)
    budgets.push_back(floor + (top - floor) * (6 - i) / 6.0);
  const auto outcomes = svc.sweep_robust(p, budgets);
  size_t proven = 0;
  for (const auto& out : outcomes)
    proven += out.provenance == PlanProvenance::kProvenOptimal;
  ASSERT_GT(proven, 0u);
  // Records on disk = distinct staircase steps, not one per budget.
  const size_t files = files_with_ext(dir.path(), ".plan").size();
  EXPECT_GT(files, 0u);
  EXPECT_LE(files, proven);
  // A restarted service replays the whole sweep from disk.
  service::PlanService svc2(sopts);
  const auto replay = svc2.sweep_robust(p, budgets);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(replay[i].provenance, outcomes[i].provenance) << "budget#" << i;
    if (outcomes[i].provenance == PlanProvenance::kProvenOptimal) {
      EXPECT_DOUBLE_EQ(replay[i].result.cost, outcomes[i].result.cost);
    }
  }
  EXPECT_EQ(svc2.stats().queries, 0);
}

TEST(PlanServiceStore, ObjectiveOnlyResultsAreNotPersisted) {
  // An unpartitioned query proves an optimal objective but returns no
  // schedule, so it cannot serve anyone: it must not enter the store, and
  // a restart must find nothing to load or quarantine.
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(1);
  const double budget = p.total_memory();
  IlpSolveOptions objective_only;
  objective_only.partitioned = false;
  service::PlanServiceOptions sopts;
  sopts.store_dir = dir.path();
  {
    service::PlanService svc(sopts);
    const PlanOutcome out = svc.plan_robust(p, budget, objective_only);
    ASSERT_EQ(out.provenance, PlanProvenance::kProvenOptimal);
    EXPECT_TRUE(out.result.solution.R.empty());
    EXPECT_EQ(svc.stats().store_puts, 0);
  }
  EXPECT_TRUE(files_with_ext(dir.path(), ".plan").empty());
  service::PlanService svc(sopts);
  ASSERT_NE(svc.plan_store(), nullptr);
  EXPECT_EQ(svc.plan_store()->stats().records_loaded, 0);
  const PlanOutcome again = svc.plan_robust(p, budget, objective_only);
  EXPECT_EQ(again.provenance, PlanProvenance::kProvenOptimal);
  EXPECT_EQ(svc.plan_store()->stats().validation_quarantines, 0);
  EXPECT_TRUE(files_with_ext(dir.path(), ".quarantined").empty());
}

TEST(PlanServiceStore, ThunderingHerdCostsExactlyOneSolve) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(8);
  const double budget = 0.5 * (p.memory_floor() + p.total_memory());
  service::PlanServiceOptions sopts;
  sopts.store_dir = dir.path();
  service::PlanService svc(sopts);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<PlanOutcome> outcomes(kThreads);
  std::vector<std::thread> herd;
  herd.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    herd.emplace_back([&, t] {
      // Spin barrier: maximize the overlap window so the herd actually
      // collides (correctness below does not depend on it).
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      outcomes[t] = svc.plan_robust(p, budget);
    });
  }
  for (auto& th : herd) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(outcomes[t].provenance, PlanProvenance::kProvenOptimal)
        << "thread " << t;
    EXPECT_DOUBLE_EQ(outcomes[t].result.cost, outcomes[0].result.cost);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, 1) << "identical herd must coalesce on one solve";
  // Every other query was served without solving: coalesced behind the
  // leader or (arriving after the flight closed) from the store.
  EXPECT_EQ(stats.single_flight_shared + stats.store_hits, kThreads - 1);
  EXPECT_EQ(stats.store_puts, 1);
}

TEST(PlanServiceStore, OverloadShedsToHeuristicWithTypedReason) {
  // One solve slot; a long-running solve occupies it while a second query
  // arrives and must shed to the heuristic rung instead of queueing. The
  // window is real time, so retry a few times before declaring failure --
  // every attempt still asserts the contract on both outcomes.
  auto blocker_problem = RematProblem::unit_training_chain(16);
  const double blocker_budget =
      blocker_problem.memory_floor() +
      0.3 * (blocker_problem.total_memory() - blocker_problem.memory_floor());
  auto quick_problem = RematProblem::unit_training_chain(4);
  const double quick_budget = quick_problem.total_memory();

  bool shed_seen = false;
  for (int attempt = 0; attempt < 5 && !shed_seen; ++attempt) {
    service::PlanServiceOptions sopts;
    sopts.max_inflight_solves = 1;
    service::PlanService svc(sopts);
    std::thread blocker([&] {
      const PlanOutcome out = svc.plan_robust(blocker_problem, blocker_budget);
      EXPECT_TRUE(out.result.feasible);
    });
    // The solve counter increments at solve entry: once it reads 1 the
    // slot is held.
    while (svc.stats().queries < 1) std::this_thread::yield();
    const PlanOutcome shed = svc.plan_robust(quick_problem, quick_budget);
    blocker.join();
    ASSERT_TRUE(shed.result.feasible);
    if (shed.provenance == PlanProvenance::kHeuristicFallback &&
        shed.why_degraded.find("overload") != std::string::npos) {
      shed_seen = true;
      EXPECT_GE(svc.stats().shed_overload, 1);
    }
  }
  EXPECT_TRUE(shed_seen)
      << "no attempt shed: the blocker solve never overlapped the query";
}

TEST(PlanServiceStore, CorruptStoreRecoversByReSolvingAndRepersisting) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(8);
  const double budget = 0.5 * (p.memory_floor() + p.total_memory());
  service::PlanServiceOptions sopts;
  sopts.store_dir = dir.path();
  PlanOutcome first;
  {
    service::PlanService svc(sopts);
    first = svc.plan_robust(p, budget);
    ASSERT_EQ(first.provenance, PlanProvenance::kProvenOptimal);
  }
  auto files = files_with_ext(dir.path(), ".plan");
  ASSERT_EQ(files.size(), 1u);
  std::string bytes = read_file(files[0]);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x20);
  write_file(files[0], bytes);

  // Restart on the damaged store: quarantine, re-solve to the same proven
  // optimum, and persist it again.
  service::PlanService svc(sopts);
  ASSERT_NE(svc.plan_store(), nullptr);
  EXPECT_EQ(svc.plan_store()->stats().load_quarantines, 1);
  const PlanOutcome again = svc.plan_robust(p, budget);
  ASSERT_EQ(again.provenance, PlanProvenance::kProvenOptimal);
  EXPECT_DOUBLE_EQ(again.result.cost, first.result.cost);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.store_hits, 0);
  EXPECT_EQ(stats.queries, 1) << "recovery is a re-solve, not a crash";
  EXPECT_EQ(stats.store_puts, 1);
  EXPECT_EQ(files_with_ext(dir.path(), ".plan").size(), 1u);
  EXPECT_EQ(files_with_ext(dir.path(), ".quarantined").size(), 1u);
}

#ifdef CHECKMATE_FAULT_INJECTION

class PlanStoreFaults : public ::testing::Test {
 protected:
  void TearDown() override { robust::FaultInjector::instance().disarm_all(); }
};

TEST_F(PlanStoreFaults, RenameFailureIsAbsorbedAndServedFromMemory) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(6);
  const double budget = p.total_memory();
  const ScheduleResult solved = solve_fresh(p, budget);
  PlanStore store(dir.path());
  robust::FaultInjector::instance().arm(robust::FaultPoint::kStoreRenameFail,
                                        1, 1, 0);
  EXPECT_FALSE(store.put(p, StoreShape{}, budget, 1e-4, solved));
  EXPECT_EQ(store.stats().put_failures, 1);
  // No debris, nothing durable -- but this instance still serves the
  // record from memory.
  EXPECT_TRUE(files_with_ext(dir.path(), ".plan").empty());
  EXPECT_TRUE(files_with_ext(dir.path(), ".tmp").empty());
  EXPECT_TRUE(store.lookup(p, StoreShape{}, budget, 1e-4).has_value());
}

TEST_F(PlanStoreFaults, FsyncFailureLeavesNoTempDebris) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(6);
  const double budget = p.total_memory();
  PlanStore store(dir.path());
  robust::FaultInjector::instance().arm(robust::FaultPoint::kFsyncFail, 2, 1,
                                        0);
  EXPECT_FALSE(store.put(p, StoreShape{}, budget, 1e-4,
                         solve_fresh(p, budget)));
  EXPECT_TRUE(files_with_ext(dir.path(), ".plan").empty());
  EXPECT_TRUE(files_with_ext(dir.path(), ".tmp").empty());
}

// Kill-mid-write: the torn write "succeeds" (modelling a crash between
// write and rename durability), leaving a truncated record behind a valid
// filename. The next boot must quarantine it and re-solve.
TEST_F(PlanStoreFaults, KillMidWriteThenReloadRecovers) {
  TempDir dir("checkmate_store");
  auto p = RematProblem::unit_training_chain(8);
  const double budget = 0.5 * (p.memory_floor() + p.total_memory());
  service::PlanServiceOptions sopts;
  sopts.store_dir = dir.path();
  PlanOutcome first;
  {
    robust::FaultInjector::instance().arm(robust::FaultPoint::kStoreWriteTorn,
                                          3, 1, 1);
    service::PlanService svc(sopts);
    first = svc.plan_robust(p, budget);
    ASSERT_EQ(first.provenance, PlanProvenance::kProvenOptimal);
    robust::FaultInjector::instance().disarm_all();
  }
  ASSERT_EQ(files_with_ext(dir.path(), ".plan").size(), 1u);
  // Reload: the torn record is quarantined, the query re-solves to the
  // same optimum, and this time the write lands intact.
  service::PlanService svc(sopts);
  ASSERT_NE(svc.plan_store(), nullptr);
  EXPECT_EQ(svc.plan_store()->stats().load_quarantines, 1);
  const PlanOutcome again = svc.plan_robust(p, budget);
  ASSERT_EQ(again.provenance, PlanProvenance::kProvenOptimal);
  EXPECT_DOUBLE_EQ(again.result.cost, first.result.cost);
  EXPECT_EQ(svc.stats().store_puts, 1);
  // Third boot: the repaired record serves with zero solver work.
  service::PlanService svc3(sopts);
  const PlanOutcome served = svc3.plan_robust(p, budget);
  EXPECT_EQ(served.provenance, PlanProvenance::kProvenOptimal);
  EXPECT_EQ(svc3.stats().queries, 0);
}

#else  // !CHECKMATE_FAULT_INJECTION

TEST(PlanStoreFaults, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "disk-fault cases need -DCHECKMATE_FAULT_INJECTION=ON "
                  "(the CHECK_TIER=full chaos stage builds them; see "
                  "scripts/check.sh)";
}

#endif  // CHECKMATE_FAULT_INJECTION

}  // namespace
}  // namespace checkmate
