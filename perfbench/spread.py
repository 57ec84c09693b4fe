#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--seeds 1,2,...] [--trace 0|1]

Each run is a separate ``perfbench/run.py`` process, one after another,
for every workload in BENCHMARK.json at its ``run_seconds``.
For every end-to-end metric (per-layer with --trace 1) it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json, plus each workload's attempted and failed operations and
the longest run.  With one seed it simply runs every workload once.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results, longest = [], 0.0
        for seed in seeds:
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            longest = max(longest, time.perf_counter() - t0)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                ok = False
                continue
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, longest {longest:.1f} s, "
              f"correct {all(r['correct'] for r in results)}, attempted "
              f"{[r['attempted'] for r in results]}, failed "
              f"{[r['failed'] for r in results]}, failed share "
              f"{sorted(shares)}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "" if bound is None or share <= bound / 3 else "  <-- wide"
            print(f"  {m['name']:<34} {m['unit']:<5} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} iqr/median {share:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
