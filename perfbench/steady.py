#!/usr/bin/env python3
"""Steadiness and comparison tool for the perfbench benchmark.

Run a workload N times, each with another seed, and print every metric's
median, quartiles and spread (interquartile distance over the median),
marked against the metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py run --workload forklift-batch --runs 10 \
        [--seed0 1] [--seconds 10] [--trace 0] [--out runs.jsonl]

Compare two sets of saved runs (refused when they come from machines with
different fingerprints: CPU model, nproc, GOMAXPROCS, Go version):

    python3 perfbench/steady.py compare parent.jsonl change.jsonl

Run from the root of a checkout, as the benchmark itself is.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_spec():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def bounds(spec):
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def one_run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("fingerprint "):
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: workload {workload} seed {seed} exit {p.returncode}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "wall_s": wall,
        "fingerprint": json.loads(lines[-2][len("fingerprint "):]),
        "result": json.loads(lines[-1]),
    }


def summarize(runs, bound_of):
    names = sorted(runs[0]["result"]["metrics"])
    rows = []
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, runs[0]["result"]["metrics"][name]["unit"], med, q1, q3, spread, bound_of.get(name)))
    return rows


def print_rows(rows):
    print(f"{'metric':40} {'unit':9} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for name, unit, med, q1, q3, spread, bound in rows:
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:40} {unit:9} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {b:>6}  {verdict}")


def cmd_run(args):
    spec = bench_spec()
    want = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    runs = []
    for i in range(args.runs):
        r = one_run(args.workload, args.seed0 + i, args.seconds, args.trace)
        res = r["result"]
        got = sorted(res["metrics"])
        if got != sorted(want):
            raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        print(f"seed {r['seed']}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={r['wall_s']:.1f}s", flush=True)
        runs.append(r)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(r) + "\n")
    print(f"fingerprint {json.dumps(runs[0]['fingerprint'])}")
    print_rows(summarize(runs, bounds(spec)))
    if not all(r["result"]["correct"] for r in runs):
        raise SystemExit("some runs reported incorrect output")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(args):
    a, b = load(args.parent), load(args.change)
    fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in a + b}
    if len(fps) != 1:
        raise SystemExit("refusing to compare runs from different machines:\n  " + "\n  ".join(sorted(fps)))
    spec = bench_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound_of = bounds(spec)
    for wl in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        ra = [r for r in a if r["workload"] == wl]
        rb = [r for r in b if r["workload"] == wl]
        print(f"== {wl}: {len(ra)} parent runs, {len(rb)} change runs")
        sa = {row[0]: row for row in summarize(ra, bound_of)}
        sb = {row[0]: row for row in summarize(rb, bound_of)}
        for name in sorted(set(sa) & set(sb)):
            ma, mb = sa[name][2], sb[name][2]
            change = (mb - ma) / ma if ma else float("nan")
            worse = change if better.get(name) == "lower" else -change
            bound = bound_of.get(name)
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
            print(f"  {name:40} {ma:14.6g} -> {mb:14.6g} {change:+8.2%}  spread {sa[name][5]:.4f}/{sb[name][5]:.4f}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=bench_spec()["run_seconds"])
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.set_defaults(func=cmd_compare)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
