#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--sets 2]
                                [--seconds S] [--seed-base N]

Runs `--sets` sets of `--runs` untraced runs of one workload on the current
build, interleaved (set A run 1, set B run 1, set A run 2, ...), each run
with its own seed. For every end-to-end metric of BENCHMARK.json it prints
each set's median and the spread of its runs (first-to-third quartile
distance over the median, statistics.quantiles(n=4)), and whether the
benchmark's bound holds: every spread but setup_s within the bound, and no
set's median worse than the first set's by more than the bound. It also
compares each set's share of failed operations. Rerun it whenever the host
changes. Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result: {' '.join(cmd)}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        for s in range(args.sets):
            seed = args.seed_base + s * args.runs + i
            sets[s].append(run_once(args.workload, seed, seconds))
            m = sets[s][-1]["metrics"]
            print(f"set {s} run {i} seed {seed}: " +
                  " ".join(f"{k}={m[k]['value']:.4g}" for k in m),
                  flush=True)

    ok = True
    print(f"\n{args.workload}: {args.sets} sets x {args.runs} runs of "
          f"{seconds} s")
    print(f"{'metric':18} {'bound':>6} " +
          " ".join(f"{'median' + str(s):>12} {'spread' + str(s):>8}"
                   for s in range(args.sets)) + "  verdict")
    for metric in metrics:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        cols, verdict = [], "ok"
        base = None
        for s in range(args.sets):
            values = [r["metrics"][name]["value"] for r in sets[s]]
            med = statistics.median(values)
            sp = spread(values) if len(values) >= 2 else 0.0
            cols.append(f"{med:12.5g} {sp:8.3f}")
            if name != "setup_s" and sp > bound:
                verdict = "SPREAD"
            if sp > bound / 3 and verdict == "ok" and name != "setup_s":
                verdict = "ok (spread > bound/3)"
            if base is None:
                base = med
            else:
                worse = (med - base) / base if better == "lower" \
                    else (base - med) / base
                if worse > bound:
                    verdict = "MEDIANS"
        ok = ok and verdict.startswith("ok")
        print(f"{name:18} {bound:6.3f} " + " ".join(cols) + "  " + verdict)

    shares = []
    for s in range(args.sets):
        attempted = sum(r["attempted"] for r in sets[s])
        failed = sum(r["failed"] for r in sets[s])
        shares.append(set(r["failed"] / r["attempted"] for r in sets[s]))
        print(f"set {s}: {failed} of {attempted} operations failed")
    if len(set().union(*shares)) != 1:
        print("failed-operation share differs between runs")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
