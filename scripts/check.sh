#!/usr/bin/env bash
# CI entry point: configure, build with warnings-as-errors, run the test
# tier, then the benchmark regression gate.
#
#   CHECK_TIER=fast (default)  pre-merge: fast-labeled ctest tier, the
#                              benchmark/ build + plan-checker self-test,
#                              and the sweep-bench and service-bench gates
#   CHECK_TIER=full            nightly: full ctest suite, TSan and
#                              ASan+fault-injection (chaos/disk-fault)
#                              stages, sweep and service gates, and the
#                              solver-bench gate (when google-benchmark
#                              is available)
#   CHECKMATE_BENCH_GATE=off   skip the benchmark gates entirely
#
# Every test carries a ctest TIMEOUT property, so a hung solver fails
# loudly instead of wedging the pipeline. The bench gates re-run the
# committed BENCH_*.json scenarios and fail on >2x node-count regressions
# (node counts are machine-independent) plus a loose >4x wall-time gate on
# the shipped configs (catches a robustness hook leaking onto the happy
# path; see compare_bench.py).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-check}"
CHECK_TIER="${CHECK_TIER:-fast}"
GENERATOR_FLAGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_FLAGS+=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . "${GENERATOR_FLAGS[@]}" \
  -DCMAKE_BUILD_TYPE=Release -DCHECKMATE_WERROR=ON
cmake --build "$BUILD_DIR" -j

if [ "$CHECK_TIER" = "full" ]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L fast
fi

# The standalone planning-query benchmark (benchmark/, see BENCHMARK.json)
# compiles ../src itself, so a library API change can break it without
# touching the root build: build it and run its plan checker's self-test.
# Same directory and generator as benchmark/run.sh, so the two share a tree.
BENCH_BUILD_DIR="${BENCH_BUILD_DIR:-build-bench}"
cmake -S benchmark -B "$BENCH_BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BENCH_BUILD_DIR" -j
"$BENCH_BUILD_DIR/plan_bench" --self-test

# Nightly ThreadSanitizer stage: rebuild the threading-heavy suites with
# -DCHECKMATE_TSAN=ON and run the parallel-determinism tests under TSan.
# Epoch-lockstep determinism is only trustworthy if the barrier protocol is
# race-free; a TSan report here fails the tier. test_cuts carries the
# threads {1,2,4} branch-and-cut invariance test (cut pool commits and LP
# row appends ride the same barrier protocol), so it runs here too.
if [ "$CHECK_TIER" = "full" ]; then
  TSAN_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  cmake -B "$TSAN_DIR" -S . "${GENERATOR_FLAGS[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCHECKMATE_TSAN=ON
  cmake --build "$TSAN_DIR" -j \
    --target test_milp_parallel test_plan_service test_simplex test_cuts \
             test_plan_store
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$TSAN_DIR" \
    -R 'test_milp_parallel|test_plan_service|test_simplex|test_cuts|test_plan_store' \
    --output-on-failure
fi

# Nightly chaos stage: rebuild with AddressSanitizer+UBSan and the
# deterministic fault-injection points compiled in, then run the chaos
# tier -- zoo sweeps under each fault schedule (solver faults AND the disk
# fault points: torn store writes, read corruption, rename/fsync failures)
# and tight deadlines, with every recovery path exercised. test_plan_store
# carries the kill-mid-write/reload recovery cases, which only exist under
# fault injection. ASan turns a leaked register file or a use-after-restore
# during recovery into a hard failure. test_simplex and test_lu ride along
# so the Forrest-Tomlin update path, the scaling frames and snapshot
# restore across appended cut rows get sanitizer coverage every nightly;
# test_presolve covers the presolve CSR view and its column -> rows index
# arithmetic; test_cuts covers the Gomory separator's accumulator indexing
# and the cut-row append path of branch & cut; test_milp covers the
# single-thread search: branching, root reduced-cost fixing and the
# work-limit truncation paths; test_milp_parallel covers the snapshot
# chains the worker threads share (a delta keeps its parent alive through
# a shared_ptr, and a lifetime bug there is a use-after-free TSan may not
# report).
if [ "$CHECK_TIER" = "full" ]; then
  ASAN_DIR="${ASAN_BUILD_DIR:-build-asan}"
  cmake -B "$ASAN_DIR" -S . "${GENERATOR_FLAGS[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCHECKMATE_ASAN=ON \
    -DCHECKMATE_FAULT_INJECTION=ON
  cmake --build "$ASAN_DIR" -j --target test_chaos test_robust \
    test_plan_store test_simplex test_lu test_presolve test_cuts test_milp \
    test_milp_parallel
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$ASAN_DIR" \
    -R 'test_chaos|test_robust|test_plan_store|test_simplex|test_lu|test_presolve|test_cuts|test_milp$|test_milp_parallel' \
    --output-on-failure
fi

if [ "${CHECKMATE_BENCH_GATE:-on}" = "off" ]; then
  echo "bench gate skipped (CHECKMATE_BENCH_GATE=off)"
  exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "bench gate skipped (no python3)"
  exit 0
fi

# plot_bench.py must stay usable before the first baseline lands (it
# renders the trajectory embed on fresh clones too): regression-check the
# empty-history path against a zero-commit scratch repo -- it has to exit 0
# and still write a well-formed SVG.
PLOT_TMP="$(mktemp -d)"
trap 'rm -rf "$PLOT_TMP"' EXIT
git -C "$PLOT_TMP" init -q
python3 scripts/plot_bench.py --repo "$PLOT_TMP" --out "$PLOT_TMP/stub.svg"
grep -q '</svg>' "$PLOT_TMP/stub.svg"

"$BUILD_DIR/sweep_bench" --json="$BUILD_DIR/BENCH_sweep_fresh.json"
python3 scripts/compare_bench.py BENCH_sweep.json \
  "$BUILD_DIR/BENCH_sweep_fresh.json"

# Plan-store/admission gate: replay the synthetic traffic log and hold the
# line on served-without-solve rate, solve counts (restart must stay at 0,
# herd at exactly 1), node counts, and p50/p99 latency.
"$BUILD_DIR/service_bench" --json="$BUILD_DIR/BENCH_service_fresh.json"
python3 scripts/compare_bench.py BENCH_service.json \
  "$BUILD_DIR/BENCH_service_fresh.json"

if [ "$CHECK_TIER" = "full" ] && [ -x "$BUILD_DIR/micro_solver_bench" ]; then
  "$BUILD_DIR/micro_solver_bench" --json="$BUILD_DIR/BENCH_solver_fresh.json"
  python3 scripts/compare_bench.py BENCH_solver.json \
    "$BUILD_DIR/BENCH_solver_fresh.json"
fi
