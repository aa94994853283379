#!/usr/bin/env python3
"""Benchmark regression gate: diff a fresh bench JSON against the committed
baseline and fail on node-count blowups.

Usage: compare_bench.py BASELINE FRESH [--max-node-ratio R] [--slack N]
       [--iter-slack N]

Handles both committed formats:
  BENCH_solver.json  (micro_solver_bench --json): records keyed by
                     (instance, config), gated on "nodes" AND on
                     "lp_iterations" (the LP hot path is the system's
                     innermost loop; a >2x iteration blowup is a pricing /
                     ratio-test regression even when node counts hold);
                     additionally enforces the parallel-determinism
                     contract: the threads2/threads4 configs must report
                     every integer counter of the row (nodes, pivots,
                     cuts, probes, fixings, LP-engine counters) identical
                     to the single-threaded shipped config ("overhaul") on
                     every instance of the fresh run; and the backend
                     cross-check: wherever the dense
                     ("overhaul") and retention-interval ("interval")
                     configs both prove optimality on an instance, their
                     objectives must agree to within the proof gap;
  BENCH_sweep.json   (sweep_bench --json): records keyed by
                     (instance, cold|cached), gated on total node counts;
                     additionally fails if any fresh sweep point lost
                     proven optimality, the cold/cached objectives
                     diverged beyond the gap, an instance served fewer
                     points from the budget staircase (service.shortcuts)
                     than the baseline -- a lost shortcut costs only a
                     node or two, which the node gate cannot see -- or a
                     point where both paths proved optimality took more
                     cached nodes than cold ones (every service solve
                     builds fresh, and the staircase's carried dual bound
                     can only stop the same search earlier).
  BENCH_service.json (service_bench --json): records keyed by
                     (phase, replay), gated on total node counts plus the
                     admission contracts: the served-without-solve rate of
                     each phase must not drop more than --min-hit-drop
                     below baseline, solve counts must not grow beyond a
                     small absolute slack (a growth means the store or
                     single-flight stopped absorbing traffic), the restart
                     phase must stay at zero solves and the herd phase at
                     exactly one, and p50/p99 latencies are gated at
                     --max-wall-ratio x baseline plus --latency-slack-ms
                     (additive slack: sub-millisecond baselines are pure
                     scheduler noise, but a restart p99 that jumps to
                     seconds means queries are re-solving).

Rows present in only one of baseline/fresh are skipped with a warning, not
failed: a PR that adds or retires a bench instance/config must not brick the
gate (the committed baseline is refreshed in the same PR, and the warning
keeps the mismatch visible in the log). If NO rows overlap at all the gate
fails -- a comparison that gated nothing is a misconfiguration, not a pass.
EXCEPTION: the ablation configs in ABLATION_CONFIGS (no_rcfix, no_cuts,
no_reliability, no_scaling, no_gomory) are load-bearing -- they document
what each subsystem buys -- so a fresh solver run that silently drops one
of them FAILS instead of warning.

Node counts are deterministic for completed searches (the tree does not
depend on wall-clock speed or worker count unless a limit is hit), so a >2x
jump means the solver or the service regressed, not that the machine was
slow. Wall-time ratios are printed alongside the node ratios; because they
are machine-dependent they get a deliberately loose gate: a shipped-config
row (solver "overhaul", sweep cold/cached) whose baseline time clears
--wall-floor must not exceed --max-wall-ratio (default 4x) times it. That
catches a robustness hook leaking onto the happy path (a per-node deadline
check or fault probe gone hot) while staying far above scheduler noise;
ablation and thread-scaling rows stay ungated.
"""

import argparse
import json
import sys

# Configs whose node counts must be identical on a given instance: the
# epoch-lockstep tree search guarantees worker-count invariance (with cut
# separation and reliability branching enabled -- both ride the barrier
# protocol).
DETERMINISM_CONFIGS = ("overhaul", "threads2", "threads4")

# Integer-valued row keys that are not search counters: the worker count
# itself, and a cost that happens to print without a fraction.
NON_COUNTER_KEYS = ("threads", "cost", "best_bound")

# Ablation configs the solver bench must keep reporting: each one flips a
# shipped subsystem off, and the committed baseline is the record of what
# that subsystem buys. A fresh run missing one of these rows fails the gate.
ABLATION_CONFIGS = ("no_rcfix", "no_cuts", "no_reliability", "no_scaling",
                    "no_gomory")


def solver_records(doc):
    return {
        (r["instance"], r["config"]):
            (r["nodes"], r.get("seconds"), r.get("lp_iterations"))
        for r in doc["results"]
    }


def solver_counters(doc):
    """Every integer counter of each row, keyed by (instance, config)."""
    return {
        (r["instance"], r["config"]): {
            k: v for k, v in r.items()
            if isinstance(v, int) and not isinstance(v, bool)
            and k not in NON_COUNTER_KEYS
        }
        for r in doc["results"]
    }


def solver_statuses(doc):
    return {(r["instance"], r["config"]): r.get("status")
            for r in doc["results"]}


def sweep_records(doc):
    out = {}
    for inst in doc["instances"]:
        out[(inst["instance"], "cold")] = (
            inst["cold_nodes"], inst.get("cold_wall_seconds"), None)
        out[(inst["instance"], "cached")] = (
            inst["cached_nodes"], inst.get("cached_wall_seconds"), None)
    return out


def service_records(doc):
    return {(p["phase"], "replay"): (p["nodes"], p.get("wall_seconds"), None)
            for p in doc["phases"]}


def fmt_wall(base_secs, fresh_secs):
    if not base_secs or fresh_secs is None:
        return ""
    return (f"  wall {base_secs:7.2f}s -> {fresh_secs:7.2f}s "
            f"({fresh_secs / base_secs:5.2f}x)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--max-node-ratio", type=float, default=2.0)
    ap.add_argument("--slack", type=int, default=100,
                    help="absolute node slack so tiny instances do not trip "
                         "the ratio on noise")
    ap.add_argument("--iter-slack", type=int, default=2000,
                    help="absolute LP-iteration slack (same role as --slack "
                         "for the iteration gate)")
    ap.add_argument("--max-wall-ratio", type=float, default=4.0,
                    help="shipped-config wall-time blowup that fails the "
                         "gate (loose on purpose: machine-dependent)")
    ap.add_argument("--wall-floor", type=float, default=0.05,
                    help="baseline seconds below which the wall gate is "
                         "skipped (sub-50ms rows are pure noise)")
    ap.add_argument("--min-hit-drop", type=float, default=0.02,
                    help="service bench: served-without-solve rate may drop "
                         "at most this much below baseline")
    ap.add_argument("--solve-slack", type=int, default=2,
                    help="service bench: absolute growth in per-phase solve "
                         "counts tolerated before failing")
    ap.add_argument("--latency-slack-ms", type=float, default=50.0,
                    help="service bench: additive p50/p99 slack on top of "
                         "--max-wall-ratio x baseline")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base_doc = json.load(f)
    with open(args.fresh) as f:
        fresh_doc = json.load(f)

    kind = base_doc.get("benchmark")
    if kind != fresh_doc.get("benchmark"):
        print(f"FAIL: benchmark kinds differ: {kind} vs "
              f"{fresh_doc.get('benchmark')}")
        return 1

    if kind == "sweep_bench":
        base, fresh = sweep_records(base_doc), sweep_records(fresh_doc)
    elif kind == "micro_solver_bench":
        base, fresh = solver_records(base_doc), solver_records(fresh_doc)
    elif kind == "service_bench":
        base, fresh = service_records(base_doc), service_records(fresh_doc)
    else:
        print(f"FAIL: unknown benchmark kind {kind!r}")
        return 1

    failures = []
    warnings = []
    overlap = 0
    for key, (base_nodes, base_secs, base_iters) in sorted(base.items()):
        if key not in fresh:
            warnings.append(f"{key}: only in baseline; skipped")
            continue
        overlap += 1
        fresh_nodes, fresh_secs, fresh_iters = fresh[key]
        limit = args.max_node_ratio * base_nodes + args.slack
        status = "ok" if fresh_nodes <= limit else "REGRESSED"
        iters_txt = ""
        if base_iters is not None and fresh_iters is not None:
            iter_limit = args.max_node_ratio * base_iters + args.iter_slack
            iters_txt = f"  iters {base_iters:>8d} -> {fresh_iters:>8d}"
            if fresh_iters > iter_limit:
                status = "REGRESSED"
                failures.append(
                    f"{key}: lp_iterations {base_iters} -> {fresh_iters} "
                    f"(> {args.max_node_ratio}x + {args.iter_slack})")
        wall_gated = kind == "sweep_bench" or key[1] == "overhaul"
        if (wall_gated and base_secs and fresh_secs is not None
                and base_secs > args.wall_floor
                and fresh_secs > args.max_wall_ratio * base_secs):
            status = "REGRESSED"
            failures.append(
                f"{key}: wall time {base_secs:.3f}s -> {fresh_secs:.3f}s "
                f"(> {args.max_wall_ratio}x)")
        print(f"  {'/'.join(key):44s} nodes {base_nodes:>8d} -> "
              f"{fresh_nodes:>8d}  {status}{iters_txt}"
              f"{fmt_wall(base_secs, fresh_secs)}")
        if fresh_nodes > limit:
            failures.append(
                f"{key}: nodes {base_nodes} -> {fresh_nodes} "
                f"(> {args.max_node_ratio}x + {args.slack})")
    for key in sorted(fresh):
        if key not in base:
            warnings.append(f"{key}: only in fresh run; skipped")

    # The per-row gates above skip non-overlapping rows, so with zero
    # overlap the loop gates nothing and the run would "pass" having
    # compared nothing (e.g. baseline and fresh from different benches, or
    # a renamed instance set). That is a misconfiguration, not a pass.
    if overlap == 0:
        failures.append(
            "baseline and fresh share no (instance, config) rows -- "
            "nothing was gated; wrong baseline file or renamed instances?")

    if kind == "micro_solver_bench":
        # Ablation rows are part of the bench contract: if the baseline
        # tracks one, the fresh run must report it too.
        fresh_configs = {config for (_, config) in fresh}
        for config in ABLATION_CONFIGS:
            if any(c == config for (_, c) in base) and \
                    config not in fresh_configs:
                failures.append(
                    f"ablation config {config!r} missing from fresh run")

        # Worker-count determinism gate on the fresh run. Only meaningful
        # when every config completed: a wall-clock-truncated search stops
        # at a machine-dependent point, so node counts legitimately differ
        # (warn instead of failing).
        statuses = solver_statuses(fresh_doc)
        by_instance = {}
        for (instance, config), counters in solver_counters(
                fresh_doc).items():
            if config in DETERMINISM_CONFIGS:
                by_instance.setdefault(instance, {})[config] = counters
        for instance, configs in sorted(by_instance.items()):
            truncated = [c for c in configs
                         if statuses.get((instance, c)) != "optimal"]
            if truncated:
                warnings.append(
                    f"{instance}: determinism check skipped "
                    f"(non-optimal: {', '.join(sorted(truncated))})")
                continue
            keys = sorted(set().union(*configs.values()))
            for key in keys:
                values = {c: counters.get(key)
                          for c, counters in sorted(configs.items())}
                if len(set(values.values())) > 1:
                    failures.append(
                        f"{instance}: worker-count determinism violated on "
                        f"{key}: " + ", ".join(f"{c}={n}"
                                               for c, n in values.items()))

        # Dense-vs-interval cross-check: both backends solve the same
        # rematerialization instance, so wherever both prove optimality
        # their objectives must agree to within the proof gap. A divergence
        # means one formulation dropped or mispriced a schedule class.
        gap = fresh_doc.get("relative_gap", 1e-3)
        fresh_costs = {(r["instance"], r["config"]): r.get("cost")
                       for r in fresh_doc["results"]}
        for (instance, config) in sorted(fresh):
            if config != "interval":
                continue
            dense_key, interval_key = (instance, "overhaul"), (instance, config)
            if dense_key not in fresh:
                continue
            pair_status = [statuses.get(dense_key), statuses.get(interval_key)]
            if any(st != "optimal" for st in pair_status):
                warnings.append(
                    f"{instance}: dense-vs-interval cost check skipped "
                    f"(statuses: {pair_status[0]}, {pair_status[1]})")
                continue
            dc, ic = fresh_costs[dense_key], fresh_costs[interval_key]
            if abs(dc - ic) > gap * max(1.0, abs(dc)):
                failures.append(
                    f"{instance}: dense (overhaul) and interval objectives "
                    f"diverge: {dc:.6g} vs {ic:.6g} (> gap {gap})")

    if kind == "sweep_bench":
        base_shortcuts = {i["instance"]: i.get("service", {}).get("shortcuts")
                          for i in base_doc["instances"]}
        for inst in fresh_doc["instances"]:
            name = inst["instance"]
            want = base_shortcuts.get(name)
            got = inst.get("service", {}).get("shortcuts")
            if want is not None and (got is None or got < want):
                failures.append(
                    f"{name}: staircase shortcuts {want} -> {got}: sweep "
                    f"points the baseline served without solving now solve")
            print(f"  {name:44s} speedup {inst['speedup']:.2f}x "
                  f"(cold {inst['cold_wall_seconds']:.2f}s, cached "
                  f"{inst['cached_wall_seconds']:.2f}s)")
            if not inst.get("all_optimal", False):
                failures.append(f"{name}: fresh sweep lost proven optimality")
            for pt in inst.get("sweep", []):
                if (pt["cold_status"] == "optimal"
                        and pt["cached_status"] == "optimal"
                        and pt["cached_nodes"] > pt["cold_nodes"]):
                    failures.append(
                        f"{name}: budget {pt['budget_bytes']:g}: cached "
                        f"nodes {pt['cached_nodes']} > cold nodes "
                        f"{pt['cold_nodes']}: the service solve depends on "
                        f"query history")
            gap = fresh_doc.get("relative_gap", 1e-3)
            if inst.get("max_cost_rel_diff", 0.0) > gap:
                failures.append(
                    f"{name}: cold/cached objectives diverged by "
                    f"{inst['max_cost_rel_diff']:.2e} (> gap {gap})")

    if kind == "service_bench":
        base_phases = {p["phase"]: p for p in base_doc["phases"]}
        for p in fresh_doc["phases"]:
            name = p["phase"]
            rate = p.get("served_without_solve_rate", 0.0)
            print(f"  {name:44s} solves {p['solves']:>4d}  "
                  f"served-no-solve {100.0 * rate:5.1f}%  "
                  f"p50 {p['p50_ms']:8.2f}ms  p99 {p['p99_ms']:8.2f}ms")
            if not p.get("all_served", False):
                failures.append(f"{name}: a query went unserved (the "
                                f"never-fail ladder broke)")
            bp = base_phases.get(name)
            if bp is None:
                warnings.append(f"phase {name!r}: only in fresh run; "
                                f"contract gates skipped")
                continue
            base_rate = bp.get("served_without_solve_rate", 0.0)
            if rate < base_rate - args.min_hit_drop:
                failures.append(
                    f"{name}: served-without-solve rate {base_rate:.3f} -> "
                    f"{rate:.3f} (dropped > {args.min_hit_drop}): the store "
                    f"or single-flight stopped absorbing repeat traffic")
            if p["solves"] > bp["solves"] + args.solve_slack:
                failures.append(
                    f"{name}: solve count {bp['solves']} -> {p['solves']} "
                    f"(> +{args.solve_slack})")
            for pct in ("p50_ms", "p99_ms"):
                limit = (args.max_wall_ratio * bp[pct]
                         + args.latency_slack_ms)
                if p[pct] > limit:
                    failures.append(
                        f"{name}: {pct} {bp[pct]:.2f} -> {p[pct]:.2f} "
                        f"(> {args.max_wall_ratio}x + "
                        f"{args.latency_slack_ms}ms)")
        # The two phases with exact, machine-independent contracts.
        for p in fresh_doc["phases"]:
            if p["phase"] == "restart" and p["solves"] != 0:
                failures.append(
                    f"restart: {p['solves']} solves (store must serve the "
                    f"whole replay from disk)")
            if p["phase"] == "herd" and p["solves"] != 1:
                failures.append(
                    f"herd: {p['solves']} solves (single-flight must "
                    f"collapse the herd onto exactly one)")

    for msg in warnings:
        print(f"  WARNING: {msg}")
    if failures:
        print("FAIL:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    print("bench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
