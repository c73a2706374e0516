#!/usr/bin/env python3
"""Repeats the end-to-end benchmark and summarises the spread.

    python3 perfbench/repeat.py [--runs N] [--workloads ann,online]
        [--trace 0|1] [--tree DIR [--tree DIR]] [--out FILE]
        [--baseline FILE]

Runs every workload N times, each run with its own seed (--seed-base + i),
from each source tree given with --tree (default: the tree this script
lives in). With two trees the runs alternate between them, run by run,
which side goes first changing each round, so drift on the host hits both
alike. For every workload, tree and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median.

Each run also records the host's CPU steal ticks (from /proc/stat) it
accrued: steal is time another tenant of the host took from this one, and
a run with much of it is not comparable.

Two sets of runs are compared against the bounds of BENCHMARK.json: two
trees against each other (the first is the base), or one tree against a
set saved earlier with --out and passed back with --baseline. A metric
fails when its median is worse than the base's by more than its bound, or
when the share of failed operations differs. The exit status is 1 when a
comparison fails or a run was not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def steal_ticks():
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def run_once(tree, spec, workload, seed, seconds, trace):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    if os.path.isabs(env.get("CARGO_TARGET_DIR", "")):
        del env["CARGO_TARGET_DIR"]  # each tree keeps its own build
    steal_before = steal_ticks()
    start = time.monotonic()
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    record = {"tree": tree, "workload": workload, "seed": seed,
              "wall_s": time.monotonic() - start,
              "steal_ticks": steal_ticks() - steal_before,
              "exit": done.returncode}
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("host "):
            record["host"] = dict(item.split("=", 1)
                                  for item in line.split()[1:])
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
        record["stderr"] = done.stderr[-2000:]
    return record


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def collect(records, tree, workload):
    runs = [r for r in records if r["tree"] == tree and
            r["workload"] == workload and r["result"] is not None]
    metrics = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    failed = {(run["result"]["failed"], run["result"]["attempted"])
              for run in runs}
    return runs, metrics, failed


def print_table(records, trees, workloads, bounds):
    for workload in workloads:
        for tree in trees:
            runs, metrics, failed = collect(records, tree, workload)
            steal = [r["steal_ticks"] for r in records
                     if r["tree"] == tree and r["workload"] == workload]
            print("\n%s  tree=%s  runs=%d  steal_ticks=%s  failed/attempted=%s"
                  % (workload, tree, len(runs), steal, sorted(failed)))
            for name, values in metrics.items():
                s = summarise(values)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and \
                        s["spread"] > bound:
                    flag = "  SPREAD > bound %.3g" % bound
                print("  %-28s median %-14.6g q1 %-14.6g q3 %-14.6g "
                      "spread %.4f%s" % (name, s["median"], s["q1"], s["q3"],
                                         s["spread"], flag))


def compare(base_records, base_tree, new_records, new_tree, workloads, spec):
    """Returns the list of failures of `new` against `base`."""
    failures = []
    direction = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        _, base, base_failed = collect(base_records, base_tree, workload)
        _, new, new_failed = collect(new_records, new_tree, workload)
        shares = {f / a for f, a in base_failed | new_failed if a}
        if len(shares) > 1:
            failures.append("%s: failed share differs %s vs %s"
                            % (workload, sorted(base_failed),
                               sorted(new_failed)))
        for name, bound in bounds.items():
            if name not in base or name not in new:
                continue
            b = statistics.median(base[name])
            n = statistics.median(new[name])
            if b == 0:
                continue
            worse = (n - b) / b if direction[name] == "lower" else (b - n) / b
            verdict = "worse by %.2f%% > bound" % (100 * worse) \
                if worse > bound else "ok"
            print("  %-8s %-16s base %-12.6g new %-12.6g change %+.2f%% "
                  "(bound %.0f%%) %s" % (workload, name, b, n,
                                         100 * (n - b) / b, 100 * bound,
                                         verdict))
            if worse > bound:
                failures.append("%s/%s %s" % (workload, name, verdict))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tree", action="append", default=[],
                        help="source tree to run in (give two to A/B)")
    parser.add_argument("--out", help="save every run record as JSON")
    parser.add_argument("--baseline", help="records saved earlier by --out")
    args = parser.parse_args()

    trees = [os.path.abspath(t) for t in args.tree] or [os.path.dirname(HERE)]
    if len(trees) > 2:
        parser.error("at most two trees")
    spec = load_spec(trees[0])
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    records = []
    for workload in workloads:
        for i in range(args.runs):
            order = trees if i % 2 == 0 else list(reversed(trees))
            for tree in order:
                record = run_once(tree, spec, workload, args.seed_base + i,
                                  seconds, args.trace)
                records.append(record)
                result = record["result"]
                print("%s seed=%d tree=%s exit=%d wall=%.1fs steal=%d %s" % (
                    workload, record["seed"], os.path.basename(tree),
                    record["exit"], record["wall_s"], record["steal_ticks"],
                    "correct=%s failed=%d/%d" % (
                        result["correct"], result["failed"],
                        result["attempted"]) if result else "NO RESULT"),
                    flush=True)

    hosts = {json.dumps(r.get("host", {}), sort_keys=True) for r in records}
    print("\nhost: nproc=%d %s" % (os.cpu_count() or 0, " | ".join(hosts)))
    print_table(records, trees, workloads, bounds)

    bad = [r for r in records
           if r["result"] is None or not r["result"]["correct"]]
    failures = ["%s seed=%d: %s" % (r["workload"], r["seed"],
                                    "no result" if r["result"] is None
                                    else "not correct") for r in bad]
    if args.trace == 0:
        if len(trees) == 2:
            print("\ncompare %s (base) -> %s" % (trees[0], trees[1]))
            failures += compare(records, trees[0], records, trees[1],
                                workloads, spec)
        if args.baseline:
            with open(args.baseline, encoding="utf-8") as f:
                base_records = json.load(f)
            base_tree = base_records[0]["tree"] if base_records else ""
            print("\ncompare %s (base) -> this set" % args.baseline)
            failures += compare(base_records, base_tree, records, trees[0],
                                workloads, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(records, f, indent=1)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
