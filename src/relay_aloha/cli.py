"""Command-line front end.

Subcommands: eval, bound, optimize-delta, optimize-k, optimize-load,
simulate, sweep, reproduce.  All numeric output is CSV on stdout or to
``--out``.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .model import SystemParams, bound, throughput
from .optimize import (
    DEFAULT_G_MAX,
    DEFAULT_K_MAX,
    optimize_delta,
    optimize_k,
    optimize_load,
)
from .simulate import MODE_BOUND, MODE_FULL, SimConfig, simulate
from .sweep import (
    AXES,
    FIGURE_IDS,
    OUTPUTS,
    RNG_COMMENT,
    SweepSpec,
    columns_for,
    emit_csv,
    reproduce_figure,
    run_sweep,
    sweep_comments,
)


_PARAMS = {  # name: (type, default when optional, help)
    "g": (float, 1.0, "channel load [packets/slot]"),
    "k": (int, 1, "number of relays"),
    "eps_u": (float, 0.0, "uplink erasure probability"),
    "eps_d": (float, 0.0, "downlink erasure probability"),
    "delta": (float, 1.0, "forwarding probability"),
}


def _params(names: str = "g k eps_u eps_d delta",
            *, required: bool = True) -> dict[str, dict]:
    """Flag keywords for the system parameters in ``names``."""
    flags = {}
    for name in names.split():
        kind, default, help_ = _PARAMS[name]
        flags[name] = dict(type=kind, required=required,
                           default=None if required else default, help=help_)
    return flags


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-aloha",
        description="Two-tier slotted-ALOHA relay network: analysis, "
                    "optimization and simulation",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_, **flags) -> argparse.ArgumentParser:
        """Subcommand ``name`` with ``--flag`` per keyword, then ``--out``."""
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write CSV here instead of stdout")
        p.set_defaults(run=run)
        return p

    command("eval", _eval, "end-to-end throughput at one point",
            **_params())
    command("bound", _bound, "upper-bound throughput at one point",
            **_params("g k eps_u"))
    command("optimize-delta", _optimize_delta,
            "best forwarding probability at fixed load",
            **_params("g k eps_u eps_d"))
    command("optimize-load", _optimize_load, "best channel load",
            **_params("k eps_u eps_d delta"),
            g_max=dict(type=float, default=DEFAULT_G_MAX))
    command("optimize-k", _optimize_k,
            "best relay count, delta-optimized per count",
            **_params("eps_u eps_d"),
            g=dict(type=float, default=None, help="fixed load; omit for "
                   "the peak-load rule 1/(1-eps_u)"),
            k_max=dict(type=int, default=DEFAULT_K_MAX))
    command("simulate", _simulate, "slot-level Monte Carlo run",
            **_params(),
            slots=dict(type=int, required=True, help="measured slots"),
            warmup=dict(type=int, default=SimConfig.warmup_slots),
            seed=dict(type=int, default=SimConfig.seed),
            stream=dict(type=int, default=SimConfig.stream_id),
            mode=dict(choices=("full", "bound"), default="full"))
    command("sweep", _sweep, "vary one axis, CSV row per value",
            axis=dict(choices=AXES, required=True),
            values=dict(required=True,
                        help="comma-separated, strictly increasing"),
            outputs=dict(default="analytic", help="comma-separated subset "
                         f"of {','.join(OUTPUTS)}"),
            **_params(required=False),
            slots=dict(type=int, default=SweepSpec.n_slots,
                       help="slots per simulated point"),
            warmup=dict(type=int, default=SweepSpec.warmup_slots),
            seed=dict(type=int, default=SweepSpec.seed))
    command("reproduce", _reproduce, "emit a frozen figure dataset"
            ).add_argument("figure", choices=FIGURE_IDS)
    return parser


def _emit_row(args, row, *comments) -> None:
    emit_csv(args.out, list(row), [row],
             [f"relay-aloha {__version__}", *comments])


def _eval(args) -> None:
    params = SystemParams(args.g, args.k, args.eps_u, args.eps_d, args.delta)
    r = throughput(params)
    _emit_row(args, {
        "g": params.g, "k": params.k, "eps_u": params.eps_u,
        "eps_d": params.eps_d, "delta": params.delta,
        "s": r.value, "s_err": r.est_abs_error, "method": r.method,
        "terms": r.terms_used,
    })


def _bound(args) -> None:
    r = bound(args.g, args.k, args.eps_u)
    _emit_row(args, {
        "g": args.g, "k": args.k, "eps_u": args.eps_u,
        "s_bound": r.value, "s_bound_err": r.est_abs_error,
        "method": r.method, "terms": r.terms_used,
    })


def _emit_optimum(args, row, arg_name, r) -> None:
    row.update({arg_name: r.arg_star, "s_star": r.value_star,
                "method": r.method, "evaluations": r.evaluations,
                "arg_tol": r.arg_tol})
    _emit_row(args, row)


def _optimize_delta(args) -> None:
    r = optimize_delta(args.g, args.k, args.eps_u, args.eps_d)
    _emit_optimum(args, {"g": args.g, "k": args.k, "eps_u": args.eps_u,
                         "eps_d": args.eps_d}, "delta_star", r)


def _optimize_load(args) -> None:
    r = optimize_load(args.k, args.eps_u, args.eps_d, args.delta, args.g_max)
    _emit_optimum(args, {"k": args.k, "eps_u": args.eps_u,
                         "eps_d": args.eps_d, "delta": args.delta},
                  "g_star", r)


def _optimize_k(args) -> None:
    r = optimize_k(args.eps_u, args.eps_d, args.k_max, g=args.g)
    _emit_optimum(args, {"eps_u": args.eps_u, "eps_d": args.eps_d,
                         "g_rule": "peak_load" if args.g is None else args.g},
                  "k_star", r)


def _simulate(args) -> None:
    params = SystemParams(args.g, args.k, args.eps_u, args.eps_d, args.delta)
    mode = MODE_FULL if args.mode == "full" else MODE_BOUND
    stats = simulate(
        SimConfig(params=params, n_slots=args.slots,
                  warmup_slots=args.warmup, seed=args.seed,
                  stream_id=args.stream, mode=mode)
    )
    _emit_row(args, {
        "g": params.g, "k": params.k, "eps_u": params.eps_u,
        "eps_d": params.eps_d, "delta": params.delta, "mode": stats.mode,
        "n_slots": stats.measured_slots, "warmup_slots": args.warmup,
        "seed": stats.seed, "stream_id": stats.stream_id,
        "estimate": stats.throughput_estimate,
        "ci95": stats.ci95_halfwidth,
        "delivered": stats.delivered_packets,
        "uplink_union_rate": stats.uplink_union_rate,
        "sink_collision_rate": stats.sink_collision_rate,
        "relay_decode_rate_mean":
            sum(stats.relay_decode_rate) / len(stats.relay_decode_rate),
    }, RNG_COMMENT)


def _number(text: str) -> int | float:
    """``text`` as an ``int`` if it reads as one, else as a ``float``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _sweep(args) -> None:
    # one rule for every axis: the library decides what each axis accepts
    try:
        values = tuple(_number(v) for v in args.values.split(","))
    except ValueError:
        raise ValueError(f"could not parse --values {args.values!r}")
    fixed = SystemParams(args.g, args.k, args.eps_u, args.eps_d, args.delta)
    spec = SweepSpec(
        axis=args.axis, values=values, fixed=fixed,
        outputs=tuple(args.outputs.split(",")), n_slots=args.slots,
        warmup_slots=args.warmup, seed=args.seed,
    )
    emit_csv(args.out, columns_for(spec), run_sweep(spec),
             sweep_comments(spec))


def _reproduce(args) -> None:
    reproduce_figure(args.figure, args.out)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        args.run(args)
    except ValueError as exc:
        print(f"relay-aloha: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream reader (e.g. head) closed stdout; silence the
        # interpreter's shutdown flush and exit like a signalled process
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"relay-aloha: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
