#!/usr/bin/env python3
"""Repeated runs of the benchmark command, and their spread.

Runs the command from BENCHMARK.json once per seed on each workload and
prints, for every metric, the median of its values and the distance
between their first and third quartiles as a share of the median (the
spread), beside the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 --save perfbench/out/a.json
    python3 perfbench/spread.py --workload serve-resubmit --runs 5
    python3 perfbench/spread.py --workload ring-1m-sync --runs 1 --trace 1
    python3 perfbench/spread.py --compare perfbench/out/a.json perfbench/out/b.json

Each run line shows `steal`, the share of CPU time the hypervisor took
during the run, and `ref_ms`, a fixed loop's time at its end (see
README.md); both are kept in the series as `host.steal` and
`host.ref_ms`. Exits 1 when a run fails or an end-to-end spread exceeds
its bound. `setup_s` is held to its bound by --compare only: a run sets
up one to nine times (sweeps, passes or server boots), too few for its
spread over seeds to be steady, so its check is that the medians of two series
of the same code agree.

--save writes every value of the series to a JSON file; --compare reads
two such files and prints, for each end-to-end metric, both medians and
how much worse the second is than the first as a share of the first.
It exits 1 when that exceeds the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    host = json.loads(lines[-2])["host"] if len(lines) >= 2 else {}
    return proc.returncode, wall, result, host, proc.stderr


def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2 or med == 0:
        return float("nan")
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / med


def compare(bench, first, second):
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print(f"\n| {workload} | median 1 | median 2 | worse by | bound |\n|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            a, b = first[workload].get(m["name"]), second[workload].get(m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            shown = f"{m['bound']}"
            if worse > m["bound"]:
                ok = False
                shown += " EXCEEDED"
            print(f"| {m['name']} | {ma:.6g} | {mb:.6g} | {worse:+.4f} | {shown} |")
    return ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", metavar="PATH")
    ap.add_argument("--compare", nargs=2, metavar="PATH")
    args = ap.parse_args()

    if args.compare:
        first, second = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(bench, first, second) else 1)

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    ok = True
    series = {}
    for workload in args.workload or names:
        values = series.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, wall, result, host, stderr = run(
                bench["command"], workload, seed, args.seconds, args.trace
            )
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {code}\n{stderr}", file=sys.stderr)
            if result is None:
                continue
            shown = " ".join(
                f"{name}={m['value']:.5g}"
                for name, m in result["metrics"].items()
                if name in bounds and bounds[name] is not None
            )
            print(
                f"{workload} seed {seed}: {wall:.1f} s, steal {host.get('steal', 0):.3f}, "
                f"ref_ms {host.get('ref_ms', 0):.1f}, "
                f"attempted {result['attempted']}, failed {result['failed']} {shown}"
            )
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for key in ("steal", "ref_ms"):
                values.setdefault(f"host.{key}", []).append(host.get(key, 0))
        print(f"\n| {workload} | median | IQR / median | bound |\n|---|---|---|---|")
        for name, xs in values.items():
            s = spread(xs)
            bound = bounds.get(name)
            shown = "" if bound is None else f"{bound}"
            if bound is not None and name != "setup_s" and s > bound:
                ok = False
                shown += " EXCEEDED"
            print(f"| {name} | {statistics.median(xs):.6g} | {s:.4f} | {shown} |")
        print()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(series, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
