import functools
import inspect
import math
import numbers

import numpy as np
import pytest

import relay_aloha
import relay_aloha.cli  # noqa: F401  (the walk below reads relay_aloha.cli)
from relay_aloha import (
    SimConfig,
    SweepSpec,
    SystemParams,
    ancillary_h,
    ancillary_h_oracle,
    bound,
    bound_closed,
    bound_series,
    delta_star_k2,
    optimize_delta,
    optimize_k,
    optimize_load,
    peak_load,
    rng_substream,
    run_sweep,
    s_star_k2,
    simulate,
    simulate_trace,
    throughput,
    throughput_closed,
    throughput_k2_at_peak_load,
    throughput_sa,
    throughput_series,
)
from relay_aloha.kernels import poisson_table
from relay_aloha.sweep import AXES


def test_every_exported_name_imports():
    for name in relay_aloha.__all__:
        assert getattr(relay_aloha, name) is not None, name
    namespace = {}
    exec("from relay_aloha import *", namespace)
    assert set(relay_aloha.__all__) <= set(namespace)


REMOVED = ("SeriesTruncation", "default_truncation", "poisson_pmf",
           "log_binomial", "q_success_downlink_arrival", "EPS_FLOOR",
           "K_CLOSED_MAX", "p_decode_uplink", "NonConvergenceError",
           "DEFAULT_ARG_TOL", "HCache", "SimOverrides")


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in relay_aloha.__all__, name
        assert not hasattr(relay_aloha, name), name
        for module in ("kernels", "model", "optimize", "simulate", "sweep",
                       "cli"):
            assert not hasattr(getattr(relay_aloha, module), name), name


def test_no_public_callable_takes_a_cache():
    modules = [relay_aloha] + [
        getattr(relay_aloha, m)
        for m in ("kernels", "model", "optimize", "simulate", "sweep", "cli")
    ]
    seen = 0
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            seen += 1
            for knob in ("cache", "trunc", "use_k2_shortcut", "arg_tol"):
                assert knob not in params, f"{module.__name__}.{name}"
    assert seen > 40


# Every public entry point that takes numbers, with valid positional
# arguments; SimConfig's first argument is its SystemParams.
P = SystemParams(2.0, 2, 0.3, 0.3, 0.5)


@functools.wraps(optimize_k)  # so that the case ids name optimize_k
def _optimize_k(eps_u, eps_d, k_max, g):
    return optimize_k(eps_u, eps_d, k_max, g=g)  # g is keyword-only


@functools.wraps(SweepSpec)
def _sweep_spec(n_slots, warmup_slots, seed):
    return SweepSpec("g", (1.0,), P, ("simulated",), n_slots, warmup_slots,
                     seed)


ENTRY_POINTS = {
    "SystemParams": (SystemParams, (2.0, 2, 0.3, 0.3, 0.5)),
    "bound": (bound, (2.0, 2, 0.3)),
    "bound_closed": (bound_closed, (2.0, 2, 0.3)),
    "bound_series": (bound_series, (2.0, 2, 0.3)),
    "throughput_sa": (throughput_sa, (2.0, 0.3)),
    "peak_load": (peak_load, (0.3,)),
    "throughput_k2_at_peak_load": (throughput_k2_at_peak_load,
                                   (0.3, 0.3, 0.5)),
    "delta_star_k2": (delta_star_k2, (0.3, 0.3)),
    "s_star_k2": (s_star_k2, (0.3, 0.3)),
    "optimize_delta": (optimize_delta, (2.0, 2, 0.3, 0.3)),
    "optimize_load": (optimize_load, (2, 0.3, 0.3, 0.5, 4.0)),
    "optimize_k": (_optimize_k, (0.3, 0.3, 3, 2.0)),
    "SimConfig": (SimConfig, (P, 100, 10, 0, 0)),
    "SweepSpec": (_sweep_spec, (100, 10, 0)),
    "rng_substream": (rng_substream, (0, 0)),
    "ancillary_h": (ancillary_h, (2, 1.0)),
    "ancillary_h_oracle": (ancillary_h_oracle, (2, 1.0)),
    "poisson_table": (poisson_table, (2.0, 1e-14)),
}
NOT_NUMBERS = ("1", None, 1j, True, math.nan)


@pytest.mark.parametrize("name,i", [
    (name, i) for name, (_, args) in ENTRY_POINTS.items()
    for i in range(len(args))
])
def test_a_non_number_is_a_domain_error(name, i):
    fn, args = ENTRY_POINTS[name]
    for bad in NOT_NUMBERS:
        if (name, i, bad) == ("optimize_k", 3, None):
            continue  # g=None is the peak-load rule
        with pytest.raises(ValueError):
            fn(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("values", [("1", "2"), (None,), (1j,), (True,),
                                    (math.nan,)])
def test_a_sweep_over_non_numbers_fills_error_cells(axis, values):
    # A value that is no real number (a string, None, a complex) is
    # refused when the spec is built; a real number outside every axis's
    # domain (a bool, NaN) fails at its point, in the row's error cell.
    if not all(isinstance(v, numbers.Real) for v in values):
        with pytest.raises(ValueError, match="values must be real numbers"):
            SweepSpec(axis, values, P, ("analytic", "bound"))
        return
    rows = run_sweep(SweepSpec(axis, values, P, ("analytic", "bound")))
    assert len(rows) == len(values)
    for row in rows:
        assert row["error"]
        assert row.get("analytic", "") == row.get("bound", "") == ""


@pytest.mark.parametrize("fn", [throughput, throughput_closed,
                                throughput_series, simulate, simulate_trace])
@pytest.mark.parametrize("bad", [(2.0, 8, 0.3, 0.3, 0.5), (P, 100), None,
                                 "1"])
def test_a_wrong_object_is_a_domain_error(fn, bad):
    # the throughput functions take a SystemParams, the simulators a
    # SimConfig; nothing else reaches an attribute lookup
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize("values", [(1.0, "2"), (None, None)])
def test_sweep_values_that_do_not_compare_are_a_domain_error(values):
    with pytest.raises(ValueError, match="values must be real numbers"):
        SweepSpec("g", values, P)


def _throughput(*args):
    return throughput(SystemParams(*args))


def _simulate(*args):
    return simulate(SimConfig(SystemParams(*args[:5]), *args[5:]))


# (entry point, arguments): floats become numpy floats, ints np.int64
NUMPY_CASES = [
    (SystemParams, (2.0, 8, 0.3, 0.3, 0.5)),
    (_throughput, (2.0, 8, 0.3, 0.3, 0.5)),
    (_throughput, (2.0, 25, 0.3, 0.3, 0.5)),
    (bound, (2.0, 25, 0.3)),
    (bound_closed, (2.0, 8, 0.3)),
    (bound_series, (2.0, 8, 0.3)),
    (throughput_sa, (2.0, 0.3)),
    (peak_load, (0.3,)),
    (throughput_k2_at_peak_load, (0.3, 0.2, 0.7)),
    (delta_star_k2, (0.3, 0.2)),
    (s_star_k2, (0.3, 0.2)),
    (s_star_k2, (0.9, 0.1)),
    (optimize_delta, (2.0, 3, 0.3, 0.3)),
    (optimize_load, (2, 0.3, 0.3, 0.5, 4.0)),
    (_optimize_k, (0.3, 0.3, 3, 2.0)),
    (ancillary_h, (3, 1.5)),
    (ancillary_h_oracle, (3, 1.5)),
    (poisson_table, (2.0, 1e-14)),
    (_simulate, (2.0, 3, 0.3, 0.3, 0.5, 2000, 10, 7, 1)),
    (_sweep_spec, (2000, 10, 7)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fn,args", NUMPY_CASES)
def test_numpy_scalars_compute_like_python_numbers(fn, args, dtype):
    as_numpy = [np.int64(a) if type(a) is int else dtype(a) for a in args]
    as_python = [a.item() for a in as_numpy]
    # repr shows every bit of a float, and names a numpy scalar "np."
    result = repr(fn(*as_numpy))
    assert result == repr(fn(*as_python))
    assert "np." not in result
