#!/usr/bin/env python3
"""Run-to-run spread check for the benchmark in BENCHMARK.json.

Runs every (or the named) workload once per seed, untraced, and prints
each end-to-end metric's median and its quartile spread (Q3 - Q1 as a
share of the median, quartiles as statistics.quantiles(n=4) gives them)
next to the metric's bound. A spread above a third of the bound is
flagged "wide"; above the bound, "OVER".

Run from the repository root:
    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workloads camera --seeds 5 --first-seed 100
    python3 perfbench/spread.py --seeds 10 --save set1.json
    python3 perfbench/spread.py --seeds 10 --save set2.json --compare set1.json

--compare reports, per metric, how far this set's median moved from the
saved set's median in the metric's worse direction, as a share of the
saved median.
"""

import argparse
import json
import statistics
import subprocess
import sys


FAILURES = []  # (workload, seed) of every incorrect run


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result\n{proc.stdout}{proc.stderr}")
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        print(f"INCORRECT RUN {workload} seed {seed}:\n" +
              "\n".join(l for l in lines if l.startswith(("FAILED", "ERROR"))), flush=True)
        FAILURES.append((workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    opts = ap.parse_args()

    with open(opts.bench) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    names = opts.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    saved = {}
    if opts.compare:
        with open(opts.compare) as f:
            saved = json.load(f)

    runs = {}
    worst = {}
    for w in names:
        runs[w] = [run_once(bench["command"], w, s, seconds)
                   for s in range(opts.first_seed, opts.first_seed + opts.seeds)]
        print(f"\n{w} ({opts.seeds} seeds from {opts.first_seed}, {seconds}s)", flush=True)
        for name, m in metrics.items():
            vals = [r[name] for r in runs[w]]
            med, sp = spread(vals)
            flag = "OVER" if sp > m["bound"] else ("wide" if sp > m["bound"] / 3 else "")
            line = f"  {name:20s} median {med:14.4f} {m['unit']:6s} spread {sp:7.4f} bound {m['bound']:.2f} {flag}"
            if w in saved:
                old = statistics.median(saved[w][name])
                drift = (med - old) / old if old else 0.0
                if m["better"] == "higher":
                    drift = -drift
                line += f"  drift {drift:+.4f}" + (" OVER" if drift > m["bound"] else "")
            print(line, flush=True)
            worst[name] = max(worst.get(name, 0.0), sp)
        if opts.save:
            with open(opts.save, "w") as f:
                json.dump({w: {n: [r[n] for r in rs] for n in metrics} for w, rs in runs.items()}, f, indent=1)
    print("\nwidest spread per metric:", {k: round(v, 4) for k, v in worst.items()})
    if FAILURES:
        sys.exit(f"incorrect runs: {FAILURES}")


if __name__ == "__main__":
    main()
