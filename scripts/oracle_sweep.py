#!/usr/bin/env python3
"""Quick-look simulator-vs-analytic cross-check over the standard grid.

Usage:
    python3 scripts/oracle_sweep.py [--slots N] [--seed S] [--csv PATH]

Runs every point of the evaluation grid (load x relays x erasure rates x
forwarding probability), compares the Monte Carlo estimate against the
analytic throughput, and prints the pass rate at the 3-half-width level.
The acceptance suite runs the same comparison at 10^6 slots; the default
here is 10x smaller for a fast sanity pass.
"""

import argparse
import itertools
import time

from relay_aloha import SimConfig, SystemParams, simulate, throughput

GRID_G = (0.25, 0.5, 1.0, 2.0, 4.0)
GRID_K = tuple(range(1, 9))
GRID_EPS_U = (0.05, 0.3, 0.5, 0.9)
GRID_EPS_D = (0.0, 0.3, 0.7)
GRID_DELTA = (0.1, 0.5, 1.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--slots", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--csv", default=None,
                    help="also dump per-point results here")
    args = ap.parse_args()

    grid = list(
        itertools.product(GRID_G, GRID_K, GRID_EPS_U, GRID_EPS_D, GRID_DELTA)
    )
    rows = []
    failures = 0
    worst = (0.0, None)
    t0 = time.perf_counter()
    for i, (g, k, eu, ed, d) in enumerate(grid):
        params = SystemParams(g, k, eu, ed, d)
        st = simulate(SimConfig(params=params, n_slots=args.slots,
                                seed=args.seed, stream_id=i))
        target = throughput(params).value
        gap = abs(st.throughput_estimate - target)
        ok = gap <= 3 * st.ci95_halfwidth
        failures += not ok
        score = gap / st.ci95_halfwidth if st.ci95_halfwidth else 0.0
        if score > worst[0]:
            worst = (score, params)
        rows.append((params, st.throughput_estimate, st.ci95_halfwidth,
                     target, ok))
    elapsed = time.perf_counter() - t0

    print(f"{len(grid)} points, {args.slots} slots each, {elapsed:.0f}s")
    print(f"pass rate at 3 half-widths: {1 - failures / len(grid):.4f} "
          f"({failures} failures)")
    print(f"worst gap: {worst[0]:.2f} half-widths at {worst[1]}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            f.write("g,k,eps_u,eps_d,delta,estimate,ci95,analytic,pass\n")
            for p, est, hw, target, ok in rows:
                f.write(
                    f"{p.g:.10g},{p.k},{p.eps_u:.10g},{p.eps_d:.10g},"
                    f"{p.delta:.10g},{est:.10g},{hw:.10g},"
                    f"{target:.10g},{int(ok)}\n"
                )
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
