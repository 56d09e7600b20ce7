#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload N times, seed 1..N (or --first-seed onwards),
alternating the workload order between iterations, and prints for each
end-to-end metric the median, the quartiles, the interquartile range as a
share of the median, and (max-min)/median. It also prints the cross-seed
spread of the virtual-time outcomes (commit_p50_ms, commit_p90_ms,
tree_mean_depth), which are exact for a given seed and build.

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --runs 5 --workloads paxos-steer

Run it from the repository root. It exits 1 when any run fails its output
checks, when the share of failed operations differs between runs, or when
an interquartile spread exceeds the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    quality = {}
    for line in lines[:-1]:
        if line.startswith("quality "):
            quality = json.loads(line[len("quality "):])
    return json.loads(lines[-1]), quality


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--json", default=None, help="also write every run's result to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            res, quality = run_once(w, seed, seconds)
            results[w].append({"seed": seed, "result": res, "quality": quality})
            print(f"# {w} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)

    bad = False
    for w in names:
        runs = results[w]
        print(f"\n== {w}: {len(runs)} runs, seconds={seconds}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        if any(not r["result"]["correct"] for r in runs):
            print("  FAIL: a run failed its output checks")
            bad = True
        if len(shares) != 1:
            print(f"  FAIL: failed share differs between runs: {sorted(shares)}")
            bad = True
        else:
            print(f"  failed share {shares.pop():.4f}")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for name in sorted(runs[0]["result"]["metrics"]):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3 = spread(vals) if len(vals) >= 2 else (vals[0],) * 3
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(vals) - min(vals)) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound:
                flag, bad = " OVER", True
            elif bound is not None and iqr > bound / 3:
                flag = " >1/3"
            print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>8.3f} {rng:>8.3f} {bound if bound is not None else '':>6}{flag}")
        qnames = sorted({k for r in runs for k in r["quality"]})
        if qnames:
            print("  cross-seed spread of virtual-time outcomes:")
            for name in qnames:
                vals = [r["quality"][name] for r in runs if name in r["quality"]]
                med, q1, q3 = spread(vals) if len(vals) >= 2 else (vals[0],) * 3
                print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {(q3 - q1) / med:>8.3f} {(max(vals) - min(vals)) / med:>8.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
