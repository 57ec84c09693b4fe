"""Spans and counts for the traced run, recorded from outside the program.

``install`` replaces every public function of every ``relay_aloha``
module, at every module that holds a reference to it, with a wrapper that
times the call and records a span (id, parent id, label, start, end).
The label names the module that defines the function, so
``relay_aloha.optimize.throughput`` and ``relay_aloha.throughput`` both
count as ``model.throughput``.  Self time is a span's duration minus the
time its child spans cover.  ``uninstall`` puts the originals back, so
untraced rounds in the same process run the program unchanged.

Totals and counts cover every call; individual spans are kept for the
calls in SPAN_LABELS.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import sys
import time


def _result_counts(label, counts, args, kwargs, out, seconds):
    """Counters read off a call's arguments and result."""
    if label in ("model.throughput_series", "model.bound_series"):
        counts["model.series_terms"] += out.terms_used
    elif label.startswith("optimize.optimize_"):
        counts[label + ".evals"] += out.evaluations
    elif label in ("simulate.simulate", "simulate.simulate_trace"):
        cfg = args[0] if args else kwargs["config"]
        counts[label + ".slots"] += cfg.warmup_slots + cfg.n_slots
    elif label == "sweep.figure_table":
        fig = args[0] if args else kwargs["fig_id"]
        counts[f"sweep.{fig}_s"] += seconds


_COUNTED = ("model.throughput_series", "model.bound_series",
            "optimize.optimize_delta", "optimize.optimize_load",
            "optimize.optimize_k", "simulate.simulate",
            "simulate.simulate_trace", "sweep.figure_table")

# Spans are kept for the calls that cross a layer boundary; helpers
# called once per series term (p_decode_uplink, poisson_pmf, ...) are
# only totalled, or the span list would outgrow the program's own data.
SPAN_LABELS = frozenset((
    "cli.cli_main", "sweep.reproduce_figure", "sweep.figure_table",
    "sweep.write_csv", "optimize.optimize_delta", "optimize.optimize_load",
    "optimize.optimize_k", "model.throughput", "model.throughput_closed",
    "model.throughput_series", "model.bound", "model.bound_closed",
    "model.bound_series", "simulate.simulate", "simulate.simulate_trace",
))


class Tracer:
    """Per-label call counts and times, counters, and (optionally) spans."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.totals: dict[str, list] = {}  # label -> [calls, incl s, self s]
        self.counts: collections.Counter = collections.Counter()
        self.spans: list[tuple] | None = [] if keep_spans else None
        self._stack: list[list] = [[0, 0.0]]  # [span id, child seconds]
        self._ids = itertools.count(1)

    def wrap(self, label: str, fn):
        stack, counts, ids = self._stack, self.counts, self._ids
        tot = self.totals.setdefault(label, [0, 0.0, 0.0])
        spans = self.spans if label in SPAN_LABELS else None
        counted = label in _COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[label + ".raised"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                tot[0] += 1
                tot[1] += t1 - t0
                tot[2] += t1 - t0 - frame[1]
                if spans is not None:
                    spans.append((frame[0], parent[0], label, t0, t1))
            if counted:
                _result_counts(label, counts, args, kwargs, out, t1 - t0)
            return out

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, label, t0, t1 in self.spans or ():
                f.write(json.dumps({"id": sid, "parent": parent,
                                    "name": label, "start": t0,
                                    "end": t1}) + "\n")


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public relay_aloha function wherever it is bound."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "relay_aloha" or name.startswith("relay_aloha.")]
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("relay_aloha.")):
                continue
            label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            setattr(mod, name, tracer.wrap(label, obj))
            patched.append((mod, name, obj))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, name, obj in patched:
        setattr(mod, name, obj)
