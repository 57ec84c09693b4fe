"""Command-line front end.

Subcommands: eval, bound, optimize-delta, optimize-k, optimize-load,
simulate, sweep, reproduce.  All numeric output is CSV on stdout or to
``--out``.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .model import (
    SystemParams,
    bound,
    bound_closed,
    bound_series,
    throughput,
    throughput_closed,
    throughput_series,
)
from .optimize import (
    DEFAULT_G_MAX,
    DEFAULT_K_MAX,
    optimize_delta,
    optimize_k,
    optimize_load,
)
from .simulate import (
    MODE_BOUND,
    MODE_FULL,
    RNG_ALGORITHM,
    RNG_LAYOUT,
    SimConfig,
    simulate,
)
from .sweep import (
    FIGURE_IDS,
    AXES,
    OUTPUTS,
    SimOverrides,
    SweepSpec,
    columns_for,
    reproduce_figure,
    run_sweep,
    sweep_comments,
    write_csv,
)


_PARAMS = {  # name: (type, default when optional, help)
    "g": (float, 1.0, "channel load [packets/slot]"),
    "k": (int, 1, "number of relays"),
    "eps_u": (float, 0.0, "uplink erasure probability"),
    "eps_d": (float, 0.0, "downlink erasure probability"),
    "delta": (float, 1.0, "forwarding probability"),
}


def _add_params(p: argparse.ArgumentParser, names: str = "g k eps_u eps_d delta",
                *, required: bool = True) -> None:
    for name in names.split():
        kind, default, help_ = _PARAMS[name]
        p.add_argument("--" + name.replace("_", "-"), type=kind,
                       required=required,
                       default=None if required else default, help=help_)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-aloha",
        description="Two-tier slotted-ALOHA relay network: analysis, "
                    "optimization and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="end-to-end throughput at one point")
    _add_params(p)
    p.add_argument("--method", choices=("auto", "closed", "series"),
                   default="auto")
    _add_out(p)

    p = sub.add_parser("bound", help="upper-bound throughput at one point")
    _add_params(p, "g k eps_u")
    p.add_argument("--method", choices=("auto", "closed", "series"),
                   default="auto")
    _add_out(p)

    p = sub.add_parser("optimize-delta",
                       help="best forwarding probability at fixed load")
    _add_params(p, "g k eps_u eps_d")
    _add_out(p)

    p = sub.add_parser("optimize-load", help="best channel load")
    _add_params(p, "k eps_u eps_d delta")
    p.add_argument("--g-max", type=float, default=DEFAULT_G_MAX)
    _add_out(p)

    p = sub.add_parser("optimize-k",
                       help="best relay count, delta-optimized per count")
    _add_params(p, "eps_u eps_d")
    p.add_argument("--g", type=float, default=None,
                   help="fixed load; omit for the peak-load rule 1/(1-eps_u)")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    _add_out(p)

    p = sub.add_parser("simulate", help="slot-level Monte Carlo run")
    _add_params(p)
    p.add_argument("--slots", type=int, required=True,
                   help="measured slots")
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--mode", choices=("full", "bound"), default="full")
    _add_out(p)

    p = sub.add_parser("sweep", help="vary one axis, CSV row per value")
    p.add_argument("--axis", choices=AXES, required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated, strictly increasing")
    p.add_argument("--outputs", default="analytic",
                   help=f"comma-separated subset of {','.join(OUTPUTS)}")
    _add_params(p, required=False)
    p.add_argument("--slots", type=int, default=100_000,
                   help="slots per simulated point")
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    p = sub.add_parser("reproduce", help="emit a frozen figure dataset")
    p.add_argument("figure", choices=FIGURE_IDS)
    _add_out(p)

    return parser


def _emit(args, columns, rows, comments) -> None:
    if args.out is None:
        write_csv(sys.stdout, columns, rows, comments)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            write_csv(f, columns, rows, comments)


def _emit_row(args, row) -> None:
    _emit(args, list(row), [row], [f"relay-aloha {__version__}"])


def _cmd_eval(args) -> None:
    params = SystemParams(args.g, args.k, args.eps_u, args.eps_d, args.delta)
    r = {"closed": throughput_closed, "series": throughput_series}.get(
        args.method, throughput)(params)
    _emit_row(args, {
        "g": params.g, "k": params.k, "eps_u": params.eps_u,
        "eps_d": params.eps_d, "delta": params.delta,
        "s": r.value, "s_err": r.est_abs_error, "method": r.method,
        "terms": r.terms_used,
    })


def _cmd_bound(args) -> None:
    r = {"closed": bound_closed, "series": bound_series}.get(
        args.method, bound)(args.g, args.k, args.eps_u)
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


def _cmd_optimize_delta(args) -> None:
    r = optimize_delta(args.g, args.k, args.eps_u, args.eps_d)
    _emit_optimum(args, {"g": args.g, "k": args.k, "eps_u": args.eps_u,
                         "eps_d": args.eps_d}, "delta_star", r)


def _cmd_optimize_load(args) -> None:
    r = optimize_load(args.k, args.eps_u, args.eps_d, args.delta, args.g_max)
    _emit_optimum(args, {"k": args.k, "eps_u": args.eps_u,
                         "eps_d": args.eps_d, "delta": args.delta},
                  "g_star", r)


def _cmd_optimize_k(args) -> None:
    r = optimize_k(args.eps_u, args.eps_d, args.k_max, g=args.g)
    _emit_optimum(args, {"eps_u": args.eps_u, "eps_d": args.eps_d,
                         "g_rule": "peak_load" if args.g is None else args.g},
                  "k_star", r)


def _cmd_simulate(args) -> None:
    params = SystemParams(args.g, args.k, args.eps_u, args.eps_d, args.delta)
    mode = MODE_FULL if args.mode == "full" else MODE_BOUND
    stats = simulate(
        SimConfig(params=params, n_slots=args.slots,
                  warmup_slots=args.warmup, seed=args.seed,
                  stream_id=args.stream, mode=mode)
    )
    row = {
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
    }
    comments = [f"relay-aloha {__version__}",
                f"rng={RNG_ALGORITHM} layout={RNG_LAYOUT}"]
    _emit(args, list(row), [row], comments)


def _cmd_sweep(args) -> None:
    try:
        values = tuple(
            int(v) if args.axis == "k" else float(v)
            for v in args.values.split(",")
        )
    except ValueError:
        raise ValueError(f"could not parse --values {args.values!r}")
    outputs = tuple(args.outputs.split(","))
    fixed = SystemParams(args.g, args.k, args.eps_u, args.eps_d, args.delta)
    spec = SweepSpec(
        axis=args.axis, values=values, fixed=fixed, outputs=outputs,
        sim=SimOverrides(n_slots=args.slots, warmup_slots=args.warmup,
                         seed=args.seed),
    )
    rows = run_sweep(spec)
    _emit(args, columns_for(spec), rows, sweep_comments(spec))


def _cmd_reproduce(args) -> None:
    reproduce_figure(args.figure, args.out)


_COMMANDS = {
    "eval": _cmd_eval,
    "bound": _cmd_bound,
    "optimize-delta": _cmd_optimize_delta,
    "optimize-load": _cmd_optimize_load,
    "optimize-k": _cmd_optimize_k,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        _COMMANDS[args.command](args)
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
