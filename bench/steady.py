"""Steadiness of the end-to-end metrics: two interleaved sets of runs on one commit.

    python3 bench/steady.py --runs 10 [--first-seed 1]

Run from the repository root. Every workload in BENCHMARK.json runs at its
`run_seconds`. For each run index and workload, set A and set B run one
after the other (the order alternates), each run with its own seed. For every workload and metric it prints the count, median, quartiles
and spread (interquartile range over median) of each set, and whether set
B's median is no worse than set A's by more than the bound in
BENCHMARK.json. The raw results go to bench/_work/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(results, spec):
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, by_set in results.items():
        shares = {s: sorted({r["failed"] / r["attempted"] for r in runs}) for s, runs in by_set.items()}
        lines.append(f"\n{workload}: failed share per set {shares}")
        lines.append(f"  {'metric':14s} set  n  {'median':>11s} {'q1':>11s} {'q3':>11s} spread  bound  verdict")
        for name, m in bounds.items():
            med = {}
            for s in "AB":
                vals = [r["metrics"][name]["value"] for r in by_set[s]]
                q1, med[s], q3 = quartiles(vals)
                spread = (q3 - q1) / med[s]
                verdict = ""
                if s == "B":
                    a, b = med["A"], med["B"]
                    worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                    verdict = f"B vs A {worse:+.3f} {'ok' if worse <= m['bound'] else 'WORSE'}"
                flag = "" if spread <= m["bound"] else " SPREAD>BOUND"
                lines.append(f"  {name:14s} {s}   {len(vals):2d} {med[s]:11.5g} {q1:11.5g} {q3:11.5g} "
                             f"{spread:6.3f} {m['bound']:5.2f}  {verdict}{flag}")
    return "\n".join(lines)


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for workload in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                t0 = time.perf_counter()
                results[workload][s].append(run_once(workload, seed, spec["run_seconds"]))
                print(f"run {i} {workload} set {s} seed {seed}: {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr, flush=True)
                seed += 1
    text = report(results, spec)
    print(text)
    out = BENCH / "_work" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))
    print(f"\nraw results: {out}")


if __name__ == "__main__":
    main()
