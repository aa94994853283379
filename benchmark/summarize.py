#!/usr/bin/env python3
"""Turns plan_bench output into the benchmark's metrics (stdlib only).

  summarize.py trace TRACE.json
      Per-layer metrics of one traced run, then the self time of each span
      name (its duration minus the part its nested spans cover, per lane).

  summarize.py report --benchmark BENCHMARK.json --trace 0|1 --out SUMMARY.json
                      RUN.json [RUN.json ...]
      Median and quartiles of every metric over the runs of one workload,
      written to SUMMARY.json with one row per distinct query. The last line
      printed is one JSON object: correct, attempted, failed, and the
      BENCHMARK.json end-to-end metrics (--trace 0) or per-layer metrics
      (--trace 1, read from each run's "trace" file) as medians.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict

# Per-layer metrics that sum the matching spans' args over a traced pass.
ARG_SUMS = {
    "core.ilp_builder.vars": ("core.ilp_builder", "vars"),
    "core.ilp_builder.rows": ("core.ilp_builder", "rows"),
    "milp.presolve_rows_removed": ("milp.presolve", "rows_removed"),
    "milp.presolve_vars_fixed": ("milp.presolve", "vars_fixed"),
    "lp.root_iterations": ("lp.root", "iterations"),
    "lp.iterations": ("query", "lp_iterations"),
    "lp.refactorizations": ("query", "lp_refactorizations"),
    "lp.ft_updates": ("query", "lp_ft_updates"),
    "lp.ft_growth_refactors": ("query", "lp_ft_growth_refactors"),
    "lp.pricing_resets": ("query", "lp_pricing_resets"),
    "milp.nodes": ("query", "nodes"),
    "milp.cuts_added": ("query", "cuts_added"),
    "milp.gomory_cuts": ("query", "gomory_cuts"),
    "milp.cuts_removed": ("query", "cuts_removed"),
    "milp.strong_branches": ("query", "strong_branches"),
    "store.records_loaded": ("store.load", "records_loaded"),
}
# Per-layer metrics that sum span durations (ms) over a traced pass.
TIME_SUMS = {
    "core.ilp_builder.build_ms": "core.ilp_builder",
    "milp.presolve_ms": "milp.presolve",
    "lp.root_ms": "lp.root",
    "baselines.seed_ms": "baselines.seed",
    "core.rounding_ms": "core.rounding",
    "core.simulator.validate_ms": "core.simulator.validate",
    "store.load_ms": "store.load",
    "store.put_ms": "store.put",
}
# Service counters: totals of the pass spans' args, per traced pass.
PASS_SUMS = {
    "service.solves": "solves",
    "service.formulation_hits": "formulation_hits",
    "service.formulation_misses": "formulation_misses",
    "service.budget_rebinds": "budget_rebinds",
    "service.presolve_runs": "presolve_runs",
    "service.presolve_reuses": "presolve_reuses",
    "service.warm_starts": "warm_starts",
    "service.shortcuts": "shortcuts",
    "service.single_flight_shared": "single_flight_shared",
    "service.shed_overload": "shed_overload",
    "store.hits": "store_hits",
    "store.misses": "store_misses",
    "store.puts": "store_puts",
    "store.put_failures": "store_put_failures",
}
# Probe layers the query itself paid for, subtracted to estimate the search.
NOT_SEARCH = ("core.ilp_builder", "milp.presolve", "baselines.seed",
              "core.simulator.validate")


def unit_of(name):
    if "_ms" in name:
        return "ms"
    if "_us" in name:
        return "us"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def self_times(events):
    """Self time (ms) per (category, span name): duration minus the part of
    it that nested spans on the same lane cover."""
    out = defaultdict(float)
    lanes = defaultdict(list)
    for e in events:
        lanes[e["tid"]].append(e)
    for spans in lanes.values():
        # Spans of one lane nest or are disjoint; a parent sorts first.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [end, key, duration, covered by children]
        for e in spans + [None]:
            start = e["ts"] if e else float("inf")
            while stack and stack[-1][0] <= start:
                _, key, dur, covered = stack.pop()
                out[key] += (dur - covered) / 1e3
            if e is None:
                break
            if stack:
                stack[-1][3] += e["dur"]
            stack.append([e["ts"] + e["dur"], (e["cat"], e["name"]), e["dur"],
                          0.0])
    return dict(out)


def layer_metrics(trace):
    events = trace["traceEvents"]
    other = trace["otherData"]
    passes = max(1, other.get("traced_passes", 1))
    by_name = defaultdict(list)
    for e in events:
        by_name[e["name"]].append(e)

    def dur_ms(name):
        return sum(e["dur"] for e in by_name[name]) / 1e3

    m = {}
    # Set-up spans cover the run's first set-up.
    m["model.build_ms"] = dur_ms("model.build")
    m["core.problem.from_dnn_ms"] = dur_ms("core.problem.from_dnn")
    for name, span in TIME_SUMS.items():
        m[name] = dur_ms(span) / passes
    # A single-flight follower carries its leader's counters; only the query
    # that solved did the work.
    solved = [e for e in by_name["query"] if e["args"].get("solver")]
    for name, (span, arg) in ARG_SUMS.items():
        spans = solved if span == "query" else by_name[span]
        m[name] = sum(e["args"].get(arg, 0) for e in spans) / passes
    for name, arg in PASS_SUMS.items():
        m[name] = sum(e["args"].get(arg, 0) for e in by_name["pass"]) / passes

    per_pivot = [e["dur"] / e["args"]["iterations"] for e in by_name["lp.root"]
                 if e["args"].get("iterations", 0) > 0]
    m["lp.root_us_per_pivot"] = statistics.median(per_pivot) if per_pivot else 0.0
    lookups = [e["dur"] for e in by_name["store.lookup"]]
    m["store.lookup_us"] = statistics.median(lookups) if lookups else 0.0
    hits, misses = m["store.hits"], m["store.misses"]
    m["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    queries = by_name["query"]
    m["service.zero_work_frac"] = (
        sum(1 for e in queries if e["args"].get("zero_work")) / len(queries)
        if queries else 0.0)
    paid = defaultdict(float)  # query id -> probe time it also paid for
    for name in NOT_SEARCH:
        for e in by_name[name]:
            paid[e["args"]["query"]] += e["dur"]
    m["milp.search_ms_est"] = sum(
        max(0.0, e["dur"] - paid[e["args"]["query"]])
        for e in queries if e["args"].get("solver")) / 1e3 / passes
    m["trace.overhead_frac"] = other.get("trace_overhead_frac", 0.0)
    return m


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cmd_trace(args):
    trace = json.load(open(args.trace))
    for name, value in sorted(layer_metrics(trace).items()):
        print(f"{name:32s} {value:.6g} {unit_of(name)}")
    # Per traced pass, like the metrics; set-up spans cover one set-up.
    passes = max(1, trace["otherData"].get("traced_passes", 1))
    for (cat, name), ms in sorted(self_times(trace["traceEvents"]).items()):
        print(f"{'self.' + name + '_ms':32s} "
              f"{ms / (1 if cat == 'setup' else passes):.6g} ms")
    return 0


def cmd_report(args):
    bench = json.load(open(args.benchmark))
    runs = [json.load(open(path)) for path in args.runs]
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    values = defaultdict(list)
    units = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values[name].append(m["value"])
            units[name] = m["unit"]
        if args.trace:
            for name, v in layer_metrics(json.load(open(run["trace"]))).items():
                values[name].append(v)
                units[name] = unit_of(name)

    workload = runs[0]["workload"]
    print(f"{workload}: {len(runs)} run(s), seed {runs[0]['seed']}, "
          f"{runs[0]['queries_per_pass']} queries per pass")
    summary = {}
    for name, vals in values.items():
        q1, q3 = quartiles(vals)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "unit": units[name], "values": vals}
        print(f"  {name:32s} {statistics.median(vals):14.6g} {units[name]:6s}"
              f" [q1 {q1:.6g}, q3 {q3:.6g}]")

    # One row per distinct query: its median latency over all runs.
    rows = {}
    for run in runs:
        for row in run["rows"]:
            key = row["query"]
            if key not in rows:
                rows[key] = dict(row, latency_ms=[])
            rows[key]["latency_ms"].append(row["latency_ms"])
            if row["failure"]:
                rows[key]["failure"] = row["failure"]
    for row in rows.values():
        row["latency_ms"] = statistics.median(row["latency_ms"])

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["correct"] for r in runs)
    with open(args.out, "w") as f:
        json.dump({"workload": workload, "seed": runs[0]["seed"],
                   "runs": len(runs), "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "metrics": summary,
                   "rows": [rows[k] for k in sorted(rows)]}, f, indent=1)

    wrong = [m["name"] for m in wanted if m["name"] not in summary
             or summary[m["name"]]["unit"] != m["unit"]]
    if wrong:
        print(f"metrics missing or in another unit than BENCHMARK.json: "
              f"{', '.join(wrong)}", file=sys.stderr)
        return 1
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": summary[m["name"]]["median"],
                                    "unit": m["unit"]} for m in wanted}}
    print(json.dumps(line))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    t = sub.add_parser("trace")
    t.add_argument("trace")
    r = sub.add_parser("report")
    r.add_argument("--benchmark", required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    r.add_argument("runs", nargs="+")
    args = parser.parse_args()
    return cmd_trace(args) if args.cmd == "trace" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
