"""Declarative parameter sweeps and canned figure datasets, CSV out.

A sweep varies one axis (load, forwarding probability, erasure rates, or
relay count) over an explicit value list while the remaining parameters
stay fixed, and evaluates any subset of the available outputs per point.
Output files are plain CSV with a header row, 10-significant-digit
numbers, ``\\n`` line endings and ``#`` provenance comments, and are
byte-identical across runs of the same request.

``reproduce_figure`` emits four frozen diagnostic datasets:

* fig2: throughput and its upper bound vs load, two relays, always
  forwarding, symmetric erasures in {0.1, 0.3, 0.5};
* fig3: optimal two-relay operation vs symmetric erasure rate at peak
  load, with the single-relay baseline for comparison;
* fig4: optimal two-relay throughput over the full (eps_u, eps_d) grid
  at peak load;
* fig5: delta-optimized throughput and upper bound vs relay count at
  peak load, symmetric erasures in {0.1, 0.3, 0.5}.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import IO, Callable, Iterable

from . import __version__
from .model import (
    SystemParams,
    bound,
    delta_star_k2,
    peak_load,
    s_star_k2,
    throughput,
    throughput_closed,
    throughput_series,
)
from .optimize import OptimizationResult, optimize_delta
from .simulate import (
    MODE_FULL, RNG_ALGORITHM, RNG_LAYOUT, SimConfig, simulate,
)

AXES = ("g", "delta", "eps", "eps_u", "eps_d", "k")
OUTPUTS = ("analytic", "closed", "series", "bound", "simulated",
           "delta_star", "s_star")

# A sweep row is one CSV record: parameter cells, one value and one error
# cell per requested output, and an ``error`` cell for per-row failures.
ResultRow = dict[str, object]


# The ``# rng=`` provenance comment of ``simulate`` and simulated sweeps.
RNG_COMMENT = f"rng={RNG_ALGORITHM} layout={RNG_LAYOUT}"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request.

    ``values`` must be real numbers (not a string or bytes) in strictly
    increasing order, stored as a tuple; a value outside the axis's
    domain (NaN, a bool, k = 2.5) only fills its row's ``error`` cell.
    No output may repeat (its columns would).  The ``eps`` axis sets the
    uplink and downlink erasure rates jointly.  The ``delta_star`` and
    ``s_star`` outputs optimize the forwarding probability at each row's
    own load and relay count (the row's ``delta`` field is ignored for
    those two columns).  ``n_slots``, ``warmup_slots`` and ``seed`` set
    the simulated output (row i plays stream id i of ``seed``).  They and
    ``fixed`` are checked by :class:`SimConfig`'s rules whatever the
    outputs: a bad one is a ValueError.
    """

    axis: str
    values: tuple[float, ...]
    fixed: SystemParams
    outputs: tuple[str, ...] = ("analytic",)
    n_slots: int = 100_000
    warmup_slots: int = SimConfig.warmup_slots
    seed: int = SimConfig.seed

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        try:
            values = tuple(self.values)
        except TypeError:  # not iterable
            values = None
        if (values is None or isinstance(self.values, (str, bytes, bytearray))
                or not all(isinstance(v, numbers.Real) for v in values)):
            raise ValueError(
                f"values must be real numbers, got {self.values!r}")
        if not values:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "values", values)
        if not self.outputs:
            raise ValueError("outputs must be non-empty")
        for i, out in enumerate(self.outputs):
            if out not in OUTPUTS:
                raise ValueError(
                    f"unknown output {out!r}; choices: {OUTPUTS}"
                )
            if out in self.outputs[:i]:
                raise ValueError(f"output {out!r} is repeated")
        cfg = SimConfig(self.fixed, self.n_slots, self.warmup_slots, self.seed)
        for name in ("n_slots", "warmup_slots", "seed"):
            object.__setattr__(self, name, getattr(cfg, name))


def columns_for(spec: SweepSpec) -> list[str]:
    """CSV column set for a sweep; a pure function of the spec."""
    cols = ["g", "k", "eps_u", "eps_d", "delta"]
    for out in spec.outputs:
        cols += [out, f"{out}_err"]
    if "simulated" in spec.outputs:
        cols += ["seed", "n_slots"]
    cols.append("error")
    return cols


def _params_at(spec: SweepSpec, value: float) -> SystemParams:
    if spec.axis == "eps":
        return replace(spec.fixed, eps_u=value, eps_d=value)
    return replace(spec.fixed, **{spec.axis: value})


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every requested output at every axis value.

    Rows are independent and the result is deterministic, including the
    simulation stream: row i uses stream id i of the sweep seed.  A
    failing output leaves its cells empty and records the reason in the
    row's ``error`` cell instead of aborting the sweep.
    """
    # a row asking for delta_star and s_star optimizes once
    optimum = functools.cache(optimize_delta)
    rows: list[ResultRow] = []
    for i, value in enumerate(spec.values):
        row: ResultRow = {"error": ""}
        errors: list[str] = []
        try:
            pt = _params_at(spec, value)
        except ValueError as exc:
            pt = None
            errors.append(str(exc))
        if pt is not None:
            row.update(
                g=pt.g, k=pt.k, eps_u=pt.eps_u, eps_d=pt.eps_d, delta=pt.delta
            )
            for out in spec.outputs:
                try:
                    row[out], row[f"{out}_err"] = _evaluate(
                        out, pt, spec, i, optimum)
                except ValueError as exc:
                    row[out] = row[f"{out}_err"] = ""
                    errors.append(f"{out}: {exc}")
            if "simulated" in spec.outputs:
                row["seed"] = spec.seed
                row["n_slots"] = spec.n_slots
        row["error"] = "; ".join(errors)
        rows.append(row)
    return rows


def _evaluate(
    out: str, pt: SystemParams, spec: SweepSpec, stream_id: int,
    optimum: Callable[..., OptimizationResult],
) -> tuple[float, float]:
    if out in ("analytic", "closed", "series", "bound"):
        r = (throughput(pt) if out == "analytic"
             else throughput_closed(pt) if out == "closed"
             else throughput_series(pt) if out == "series"
             else bound(pt.g, pt.k, pt.eps_u))
        return r.value, r.est_abs_error
    if out == "simulated":
        stats = simulate(SimConfig(
            params=pt, n_slots=spec.n_slots, warmup_slots=spec.warmup_slots,
            seed=spec.seed, stream_id=stream_id, mode=MODE_FULL,
        ))
        return stats.throughput_estimate, stats.ci95_halfwidth
    # "delta_star" or "s_star": SweepSpec admits no other output
    r = optimum(pt.g, pt.k, pt.eps_u, pt.eps_d)
    return (float(r.arg_star) if out == "delta_star"
            else r.value_star), 0.0


# --------------------------------------------------------------------------
# CSV writing


def format_cell(v: object) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def write_csv(
    f: IO[str],
    columns: list[str],
    rows: Iterable[ResultRow],
    comments: Iterable[str] = (),
) -> None:
    """Write rows in the package CSV dialect (see module docstring)."""
    for c in comments:
        f.write(f"# {c}\n")
    f.write(",".join(columns) + "\n")
    for row in rows:
        f.write(",".join(format_cell(row.get(c, "")) for c in columns) + "\n")


def emit_csv(
    out_path: str | None,
    columns: list[str],
    rows: Iterable[ResultRow],
    comments: Iterable[str] = (),
) -> None:
    """:func:`write_csv` to the file ``out_path``, or to stdout if None."""
    if out_path is None:
        write_csv(sys.stdout, columns, rows, comments)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        write_csv(f, columns, rows, comments)


def sweep_comments(spec: SweepSpec) -> list[str]:
    comments = [
        f"relay-aloha {__version__}",
        f"sweep axis={spec.axis} outputs={','.join(spec.outputs)}",
    ]
    if "simulated" in spec.outputs:
        comments.append(
            f"simulation seed={spec.seed} n_slots={spec.n_slots} "
            f"warmup={spec.warmup_slots} {RNG_COMMENT}"
        )
    return comments


# --------------------------------------------------------------------------
# Frozen figure datasets

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5")

_FIG_EPS_SET = (0.1, 0.3, 0.5)
_FIG2_G_STEPS = 100   # g = 0 .. 5 in steps of 0.05
_FIG3_EPS_STEPS = 98  # eps = 0 .. 0.98 in steps of 0.01
_FIG4_EPS_STEPS = 19  # eps = 0 .. 0.95 in steps of 0.05
_FIG5_K_MAX = 32


def figure_table(fig_id: str) -> tuple[list[str], list[str], list[ResultRow]]:
    """(comments, columns, rows) for one frozen figure dataset."""
    if fig_id == "fig2":
        rows = [
            {
                "eps": eps,
                "g": (g := i * 0.05),
                "s": throughput(SystemParams(g, 2, eps, eps, 1.0)).value,
                "s_bound": bound(g, 2, eps).value,
            }
            for eps in _FIG_EPS_SET
            for i in range(_FIG2_G_STEPS + 1)
        ]
        what = "throughput and upper bound vs load; k=2 delta=1 eps_u=eps_d"
    elif fig_id == "fig3":
        rows = [
            {
                "eps": (eps := j * 0.01),
                "g": (g := peak_load(eps)),
                "delta_star": delta_star_k2(eps, eps),
                "s_star": s_star_k2(eps, eps),
                "s_bound": bound(g, 2, eps).value,
                "s_single_relay": (1.0 - eps) * math.exp(-1.0),
            }
            for j in range(_FIG3_EPS_STEPS + 1)
        ]
        what = ("optimal k=2 operation vs symmetric erasure rate at "
                "peak load g=1/(1-eps)")
    elif fig_id == "fig4":
        rows = [
            {
                "eps_u": (eu := iu * 0.05),
                "eps_d": (ed := id_ * 0.05),
                "delta_star": delta_star_k2(eu, ed),
                "s_star": s_star_k2(eu, ed),
            }
            for iu in range(_FIG4_EPS_STEPS + 1)
            for id_ in range(_FIG4_EPS_STEPS + 1)
        ]
        what = "optimal k=2 throughput over (eps_u, eps_d); g=1/(1-eps_u)"
    elif fig_id == "fig5":
        rows = []
        for eps in _FIG_EPS_SET:
            g = peak_load(eps)
            for k in range(1, _FIG5_K_MAX + 1):
                r = optimize_delta(g, k, eps, eps)
                rows.append({"eps": eps, "k": k,
                             "delta_star": float(r.arg_star),
                             "s_star": r.value_star,
                             "s_bound": bound(g, k, eps).value})
        what = ("delta-optimized throughput and upper bound vs relay "
                "count at peak load; eps_u=eps_d")
    else:
        raise ValueError(
            f"unknown figure id {fig_id!r}; choices: {FIGURE_IDS}"
        )
    comments = [f"relay-aloha {__version__}", f"figure: {fig_id}, {what}"]
    return comments, list(rows[0]), rows  # each row's keys, in order


def reproduce_figure(fig_id: str, out_path: str | None = None) -> None:
    """Write one figure dataset as CSV to ``out_path`` (stdout if None)."""
    comments, columns, rows = figure_table(fig_id)
    emit_csv(out_path, columns, rows, comments)
