#!/usr/bin/env python3
"""Benchmark of relay_aloha: one workload, one fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {figures,grid,oracle,long_sim} \\
        --seed N --seconds S --trace {0,1}

The run imports ``relay_aloha`` from ``./src``, builds the workload's
inputs and reference values from the seed, then repeats rounds of the
workload for ``--seconds`` (at least two rounds; no round is started
that would, at the median round's length, end later).  Each
round starts from an empty H_m memo, as a fresh CLI process would.
Between rounds, fresh interpreters import ``relay_aloha``: the median of
their import times is setup_s.  With ``--trace 1`` odd rounds run with every public
function wrapped (see tracing.py) and the run reports per-layer metrics;
otherwise it reports end-to-end metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# One thread per numpy pool: the runs measure a single process on a
# two-core machine, and the setup probes below inherit these settings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 16
IMPORT_PROBE = ("import time; t = time.perf_counter(); import relay_aloha; "
                "print(time.perf_counter() - t)")
LAYER_FUNCS = (
    "kernels.ancillary_h", "kernels.poisson_pmf",
    "model.throughput", "model.throughput_closed", "model.throughput_series",
    "model.bound", "model.bound_closed", "model.bound_series",
    "optimize.optimize_delta", "optimize.optimize_load", "optimize.optimize_k",
    "cli.cli_main",
)
OPTIMIZERS = ("optimize.optimize_delta", "optimize.optimize_load",
              "optimize.optimize_k")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("figures", "grid", "oracle", "long_sim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program(src: Path):
    """Import relay_aloha from ``src``."""
    sys.path.insert(0, str(src))
    import relay_aloha
    if not Path(relay_aloha.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"relay_aloha came from {relay_aloha.__file__}, "
                          f"not from {src}")
    import relay_aloha.cli  # noqa: F401  (bound as relay_aloha.cli)
    return relay_aloha


def probe_import(src: Path) -> float:
    """Seconds a fresh interpreter takes to import relay_aloha."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def typical(rounds, attr: str = "parts") -> float:
    """A round's timed work (or, with attr="eval_parts", the time of its
    analytic evaluations): the sum of each part's median time over every
    time the run took it."""
    def times(k):
        return [t for r in rounds for t in getattr(r, attr)[k]]

    return sum(statistics.median(times(k)) for k in getattr(rounds[0], attr))


def typical_sims(rounds) -> dict:
    """simulate call key -> (median seconds over rounds, slots simulated)."""
    return {k: (statistics.median(r.sims[k][0] for r in rounds
                                  if k in r.sims), n)
            for k, (_, n, _) in rounds[0].sims.items()}


def end_to_end(rounds, setup, peak_rss_mb):
    """End-to-end metrics from the untraced rounds.

    Every timed part of a round, and every simulate call, counts at its
    median over the run: on this shared machine the speed swings by up to
    2x with other tenants' load, and a part's fastest time depends on
    whether a run happens to catch a short fast spell, while its median
    does not (see README.md).
    """
    wall = typical(rounds)
    sims = typical_sims(rounds)
    # Time to a 1e-3 half-width, per call: t (hw / 1e-3)^2, with the mean
    # squared half-width over the rounds.
    to_ci = sum(t * statistics.fmean(r.sims[k][2] ** 2 for r in rounds
                                     if k in r.sims) / 1e-6
                for k, (t, _) in sims.items())
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "evals_per_s": rounds[0].evals / typical(rounds, "eval_parts"),
        "sim_slots_per_s": (sum(n for _, n in sims.values())
                            / sum(t for t, _ in sims.values())),
        "sim_time_to_ci_s": to_ci,
    }


def per_layer(wl, plain, traced, tracers, peak_alloc):
    """Per-layer metrics: the median over traced rounds of each round's
    totals, plus simulator costs from every round's own call timings."""
    per_round = []
    for t in tracers:
        tot, c, m = t.totals, t.counts, {}
        for label in LAYER_FUNCS:
            calls, _, self_s = tot.get(label, (0, 0.0, 0.0))
            m[f"{label}.calls"] = calls
            m[f"{label}.self_s"] = self_s
        for label in OPTIMIZERS:
            m[f"{label}.evals"] = c[label + ".evals"]
        m["model.series_terms"] = c["model.series_terms"]
        m["model.errors"] = c["model.throughput.raised"] + c["model.bound.raised"]
        calls, incl, _ = tot.get("simulate.simulate", (0, 0.0, 0.0))
        m["simulate.simulate.calls"] = calls
        m["simulate.simulate.s"] = incl
        m["simulate.slots"] = c["simulate.simulate.slots"]
        incl = tot.get("simulate.simulate_trace", (0, 0.0, 0.0))[1]
        slots = c["simulate.simulate_trace.slots"]
        m["simulate.simulate_trace.s"] = incl
        m["simulate.trace_ns_per_slot"] = 1e9 * incl / slots if slots else 0.0
        for fig in ("fig2", "fig3", "fig4", "fig5"):
            m[f"sweep.{fig}_s"] = c[f"sweep.{fig}_s"]
        m["sweep.write_csv.s"] = tot.get("sweep.write_csv", (0, 0.0, 0.0))[1]
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round)
           for k in per_round[0]}

    ns = {k: 1e9 * t / n for k, (t, n) in typical_sims(plain + traced).items()}
    for name in ("k1_g2", "k8_g2", "k8_g0.25", "k8_g8", "bound_k8_g2"):
        out[f"simulate.ns_per_slot.{name}"] = ns.get(name, 0.0)
    relay = base = 0.0
    if "k1_g2" in ns and "k8_g2" in ns:
        relay = (ns["k8_g2"] - ns["k1_g2"]) / 7.0
        base = ns["k1_g2"] - relay
    elif hasattr(wl, "relays"):
        # oracle: least squares of ns/slot on k, slope per relay and
        # intercept at k = 0 (per-call set-up included)
        relay, base = statistics.linear_regression(
            [wl.relays(k) for k in ns], list(ns.values()))
    out["simulate.relay_ns_per_slot"] = relay
    out["simulate.base_ns_per_slot"] = base
    out["simulate.peak_alloc_mb"] = peak_alloc
    out["trace.overhead_pct"] = 100.0 * (
        typical(traced) / typical(plain) - 1.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "relay_aloha" / "__init__.py").is_file():
        print(f"perfbench: {src}/relay_aloha not found; run from the root "
              f"of a relay-aloha checkout", file=sys.stderr)
        return 2
    ra = import_program(src)
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup = []

    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wl = workloads.WORKLOADS[args.workload](ra, args.seed, Path(tmp))
        # The inputs and reference values stay alive for the whole run.
        # Moved out of the collector's reach, they cannot lengthen the
        # collections that the program's own allocations trigger, which a
        # fresh CLI process would not have to pay.
        gc.collect()
        gc.freeze()
        plain, traced, tracers = [], [], []
        start = time.perf_counter()
        lengths = []
        r = 0
        # A round starts only if, at the median round's length, it ends
        # by --seconds, so a run of long rounds does not overrun by most
        # of a round.
        while r < 2 or (time.perf_counter() - start
                        + statistics.median(lengths) <= args.seconds):
            begun = time.perf_counter()
            # import probes spread over the run, between rounds
            if (not args.trace and len(setup) < SETUP_PROBES
                    and time.perf_counter() - start
                    >= len(setup) * args.seconds / SETUP_PROBES):
                setup.append(probe_import(src))
            workloads.reset_memo()
            if args.trace and r % 2 == 1:
                tracer = tracing.Tracer(keep_spans=not tracers)
                patched = tracing.install(tracer)
                try:
                    traced.append(wl.round(r))
                finally:
                    tracing.uninstall(patched)
                tracers.append(tracer)
            else:
                plain.append(wl.round(r))
            r += 1
            lengths.append(time.perf_counter() - begun)

    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(probe_import(src))
    rounds = plain + traced
    attempted = sum(x.ops for x in rounds)
    failed = sum(x.failed for x in rounds)
    problems = [p for x in rounds for p in x.unexpected]
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if args.trace:
        tracers[0].write_spans(
            scratch / f"spans-{args.workload}-{args.seed}.jsonl")
        workloads.reset_memo()
        tracemalloc.start()
        ra.simulate(wl.largest_sim)
        peak_alloc = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        values = per_layer(wl, plain, traced, tracers, peak_alloc)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(plain, setup, peak_rss)
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError("metrics computed differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in wanted})}")

    print(f"workload {args.workload}: attempted {attempted} failed {failed} "
          f"rounds {len(rounds)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
