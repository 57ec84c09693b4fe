import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relay_aloha import (
    SystemParams,
    delta_star_k2,
    optimize_delta,
    optimize_k,
    optimize_load,
    peak_load,
    s_star_k2,
    throughput,
    throughput_series,
)
from relay_aloha import model, optimize
from relay_aloha.model import _delta_curve
from relay_aloha.optimize import (
    _DELTA_GRID, ARG_TOL, LOAD_GRID_POINTS, _delta_array, _grid_then_golden,
)


class TestOptimizeDelta:
    def test_single_relay_always_forwards(self):
        # S is linear in delta with positive slope for k=1
        r = optimize_delta(1.0, 1, 0.2, 0.1)
        assert r.arg_star == pytest.approx(1.0, abs=ARG_TOL)
        assert r.arg_tol == ARG_TOL
        assert r.method == "grid_golden"

    def test_clean_two_relay_peak_load(self):
        r = optimize_delta(1.0, 2, 0.0, 0.0)
        assert r.arg_star == pytest.approx(0.5, abs=1e-6)
        assert r.value_star == pytest.approx(1 / (2 * math.e), abs=1e-8)

    def test_two_relays_at_peak_load_take_the_one_search(self):
        # the one search, within ARG_TOL of the closed-form vertex
        r = optimize_delta(peak_load(0.3), 2, 0.3, 0.3)
        assert r.method == "grid_golden"
        assert abs(r.arg_star - delta_star_k2(0.3, 0.3)) <= ARG_TOL

    def test_numeric_agrees_with_closed_form_grid(self):
        # the search against the closed-form optimum across the
        # (eps_u, eps_d) lattice
        for iu in range(10):
            for id_ in range(10):
                eu, ed = iu / 10, id_ / 10
                r = optimize_delta(peak_load(eu), 2, eu, ed)
                assert abs(r.arg_star - delta_star_k2(eu, ed)) <= ARG_TOL
                assert abs(r.value_star - s_star_k2(eu, ed)) <= 1e-8

    def test_against_dense_grid_oracle(self):
        # independent oracle: exhaustive 1e-4-step scan of the series path
        g, k, eu, ed = 2.0, 4, 0.5, 0.5
        best = 0.0
        for i in range(10001):
            d = i * 1e-4
            v = throughput_series(SystemParams(g, k, eu, ed, d)).value
            best = max(best, v)
        r = optimize_delta(g, k, eu, ed)
        assert r.value_star == pytest.approx(best, abs=1e-8)

    def test_never_below_its_own_grid(self):
        g, k, eu, ed = 1.7, 5, 0.4, 0.2
        r = optimize_delta(g, k, eu, ed)
        grid_best = max(
            throughput(SystemParams(g, k, eu, ed, i / 100)).value
            for i in range(101)
        )
        assert r.value_star >= grid_best

    def test_value_matches_analytic_at_argument(self):
        # the last case is k = 2 at peak load with an interior delta*
        for (g, k, eu, ed) in [(1.0, 3, 0.3, 0.1), (2.5, 2, 0.6, 0.4),
                               (peak_load(0.1), 2, 0.1, 0.1)]:
            r = optimize_delta(g, k, eu, ed)
            at_arg = throughput(SystemParams(g, k, eu, ed, r.arg_star)).value
            assert r.value_star == at_arg

    @pytest.mark.parametrize(
        "g,k,eu,ed",
        [(2.0, 8, 0.3, 0.3), (1.0, 3, 0.3, 0.1), (1.4, 25, 0.3, 0.3),
         (1.0, 2, 0.0, 0.0), (peak_load(0.3), 2, 0.3, 0.3),
         (1 / 0.9, 15, 0.1, 0.1), (1.4, 33, 0.3, 0.3)],
    )
    def test_value_is_throughput_at_argument_bit_for_bit(self, g, k, eu, ed):
        # closed form (k = 8, 3; eps_u = 0), series (an estimate above
        # 1e-12 at k = 25, 15; k > 32) and k = 2 at peak load
        r = optimize_delta(g, k, eu, ed)
        at_arg = throughput(SystemParams(g, k, eu, ed, r.arg_star)).value
        assert r.value_star == at_arg

    def test_evaluation_count(self):
        # 101 grid points plus the golden section down to ARG_TOL
        assert optimize_delta(2.0, 8, 0.3, 0.3).evaluations == 125

    def test_deterministic(self):
        a = optimize_delta(1.9, 4, 0.35, 0.25)
        b = optimize_delta(1.9, 4, 0.35, 0.25)
        assert a == b


def _libm_power(x, y):
    """np.power through libm's pow, the path of hosts without SVML."""
    return np.vectorize(math.pow, otypes=[float])(x, y)


def _curve_at(g, k, eu, ed):
    """The delta curve at load g, or for g=None at the peak load, up to
    20 (eps_u <= 0.95)."""
    if g is None:
        g = peak_load(eu) if eu <= 0.95 else 20.0
    return _delta_curve(SystemParams(g, k, eu, ed, 0.0))


# eps including both ends; loads up to 20, the peak load (None) and 0;
# k up to 40: closed form, series and k > 32
_eps = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_loads = st.one_of(st.none(), st.just(0.0), st.floats(0.0, 20.0))
_relays = st.integers(1, 40)
# the peak-load lattice: eps = 0..0.95 by 0.05, k = 1..32; it holds the
# bimodal curves, e.g. eps = 0.05 with k = 4
_LATTICE = [(None, k, i * 0.05, i * 0.05)
            for i in range(20) for k in range(1, 33)]
# the extremes: loads up to 1000, eps within 1e-16 of 0 and of 1, and
# deltas at and below the subnormal range besides the search's grid
_far_loads = st.one_of(st.sampled_from([0.0, 1000.0]), st.floats(0.0, 1000.0))
_near_ends = st.one_of(st.sampled_from([0.0, 1e-16, 1.0 - 1e-16, 1.0]),
                       st.floats(0.0, 1e-16), st.floats(1.0 - 1e-16, 1.0),
                       st.floats(0.0, 1.0))
_EXTREME_DELTAS = [0.0, 5e-324, 1e-300, 1e-20, 0.5, 1.0]


class TestDeltaScreen:
    """The delta grid screened in one numpy pass gives the search its
    exact result, evaluating the exact curve only where it can peak."""

    @staticmethod
    def _both(g, k, eu, ed):
        curve = _curve_at(g, k, eu, ed)

        def f(d):
            return curve(d).value

        screen = curve.screen(_delta_array())
        return (_grid_then_golden(f, _DELTA_GRID, ARG_TOL),
                _grid_then_golden(f, _DELTA_GRID, ARG_TOL, screen))

    @settings(max_examples=300)
    @given(g=_loads, k=_relays, eu=_eps, ed=_eps)
    @example(g=None, k=4, eu=0.05, ed=0.05)  # bimodal
    @example(g=0.0, k=3, eu=0.3, ed=0.3)
    def test_screened_search_is_the_search(self, g, k, eu, ed):
        plain, screened = self._both(g, k, eu, ed)
        assert screened == plain

    def test_screened_search_on_the_peak_load_lattice(self):
        for point in _LATTICE:
            plain, screened = self._both(*point)
            assert screened == plain, point

    @staticmethod
    def _check_bound(g, k, eu, ed):
        curve = _curve_at(g, k, eu, ed)
        approx, tol = curve.screen(_delta_array())
        exact = np.array([curve(d).value for d in _DELTA_GRID])
        assert approx.shape == tol.shape == (len(_DELTA_GRID),)
        assert np.all(np.abs(approx - exact) <= tol), (g, k, eu, ed)

    @pytest.mark.parametrize("power", [np.power, _libm_power],
                             ids=["numpy", "libm"])
    @settings(max_examples=200)
    @given(g=_loads, k=_relays, eu=_eps, ed=_eps)
    def test_screen_within_its_bound(self, power, g, k, eu, ed):
        # numpy's power may be SVML (within 2 ulp) or libm's pow
        with mock.patch.object(model, "_power", power):
            self._check_bound(g, k, eu, ed)

    @pytest.mark.parametrize("power", [np.power, _libm_power],
                             ids=["numpy", "libm"])
    def test_screen_within_its_bound_on_the_lattice(self, power):
        with mock.patch.object(model, "_power", power):
            for point in _LATTICE:
                self._check_bound(*point)

    @pytest.mark.parametrize("power", [np.power, _libm_power],
                             ids=["numpy", "libm"])
    @pytest.mark.parametrize("kind", ["closed", "series"])
    @settings(max_examples=100)
    @given(g=_far_loads, k=st.integers(1, 32), eu=_near_ends, ed=_near_ends)
    @example(g=1000.0, k=32, eu=1.0 - 1e-16, ed=0.0)  # r = 1e-300 r1 subnormal
    @example(g=1000.0, k=32, eu=1e-16, ed=1.0 - 1e-16)
    def test_screen_within_its_bound_at_the_extremes(self, power, kind, g, k,
                                                     eu, ed):
        # either curve kind, whatever the dispatch would pick
        if kind == "closed":
            curve = model._closed_curve(g, k, eu, ed, False)
        else:
            curve = model._series_curve(g, k, eu, ed, False)
        deltas = np.concatenate([_EXTREME_DELTAS, _delta_array()])
        with mock.patch.object(model, "_power", power):
            approx, tol = curve.screen(deltas)
        exact = np.array([curve(d).value for d in deltas])
        assert np.all(np.abs(approx - exact) <= tol), (g, k, eu, ed)

    @pytest.mark.parametrize("g,k,eu,ed", [
        (0.0, 4, 0.3, 0.3), (2.0, 4, 0.3, 1.0), (2.0, 40, 0.3, 1.0),
        (2.0, 4, 1.0, 0.3), (0.0, 40, 0.0, 0.0),
    ])
    def test_flat_curves_keep_the_first_grid_point(self, g, k, eu, ed):
        # every grid point ties, so every one is evaluated exactly and
        # the first is kept, as without the screen
        plain, screened = self._both(g, k, eu, ed)
        assert screened == plain
        r = optimize_delta(g, k, eu, ed)
        assert (r.arg_star, r.value_star) == (0.0, 0.0)

    def test_a_screen_within_tol_keeps_the_first_maximum(self):
        # f ties at grid points 2 and 5; the screen, within its tol,
        # ranks 5 higher, yet the search keeps 2 as without the screen
        grid = [i / 10 for i in range(11)]
        vals = [0.0, 1.0, 3.0, 2.0, 0.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0]

        def f(x):
            return float(np.interp(x, grid, vals))

        approx = np.array(vals)
        approx[5] += 0.4
        screen = (approx, np.full(len(grid), 0.5))
        plain = _grid_then_golden(f, grid, ARG_TOL)
        assert plain[0] == pytest.approx(0.2, abs=ARG_TOL)
        assert _grid_then_golden(f, grid, ARG_TOL, screen) == plain

    def test_one_grid_point_is_evaluated_at_a_single_peak(self):
        curve = _curve_at(None, 8, 0.3, 0.3)
        calls = []

        def f(d):
            calls.append(d)
            return curve(d).value

        _, _, evals = _grid_then_golden(f, _DELTA_GRID, ARG_TOL,
                                        curve.screen(_delta_array()))
        # the evaluation count still includes the whole grid
        assert len(calls) == evals - len(_DELTA_GRID) + 1


class TestOptimizeLoad:
    def test_classical_single_relay_peak(self):
        r = optimize_load(1, 0.0, 0.0, 1.0, g_max=5.0)
        assert r.arg_star == pytest.approx(1.0, abs=1e-5)
        assert r.value_star == pytest.approx(math.exp(-1), rel=1e-9)

    def test_erasures_push_the_peak_out(self):
        # the single-link rate peaks where g (1 - eps_u) = 1
        r = optimize_load(1, 0.5, 0.0, 1.0)
        assert r.arg_star == pytest.approx(2.0, abs=1e-5)

    def test_peak_ordering_two_relays(self):
        peaks = {
            eps: optimize_load(2, eps, eps, 1.0).value_star
            for eps in (0.1, 0.3, 0.5)
        }
        assert peaks[0.3] > peaks[0.5] > peaks[0.1]

    def test_g_max_validation(self):
        with pytest.raises(ValueError):
            optimize_load(1, 0.1, 0.1, 1.0, g_max=0.0)

    @pytest.mark.parametrize("g_max", [1e-320, 5e-324, 2.225073858507201e-308])
    def test_subnormal_g_max_is_a_domain_error(self, g_max):
        # the grid floor 1e-4 g_max would round to 0
        with pytest.raises(ValueError, match=r"g_max must be finite and in "
                                             r"\[2\.22507e-308, 1e\+09\]"):
            optimize_load(2, 0.3, 0.3, 1.0, g_max)

    def test_smallest_normal_g_max(self):
        r = optimize_load(2, 0.3, 0.3, 1.0, sys.float_info.min)
        assert 0.0 < r.value_star < r.arg_star <= sys.float_info.min

    @pytest.mark.parametrize("g_max", [1e4, 1e5, 1e9])
    def test_large_g_max_keeps_the_peak(self, g_max):
        # the grid's floor stays below the peak near 1/(1 - eps_u)
        ref = optimize_load(2, 0.3, 0.3, 1.0, 8.0).value_star
        r = optimize_load(2, 0.3, 0.3, 1.0, g_max)
        assert r.value_star == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("g_max", [sys.float_info.min, 1e-6, 0.5, 8.0,
                                       1e9])
    def test_grid_rises_to_g_max(self, monkeypatch, g_max):
        grids, search = [], optimize._grid_then_golden

        def spy(f, grid, xtol):
            grids.append(grid)
            return search(f, grid, xtol)

        monkeypatch.setattr(optimize, "_grid_then_golden", spy)
        optimize_load(2, 0.3, 0.3, 1.0, g_max)
        (grid,) = grids
        assert len(grid) == LOAD_GRID_POINTS
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[0] <= 1e-4
        assert grid[-1] == g_max


class TestOptimizeK:
    def test_known_optima_at_peak_load(self):
        assert optimize_k(0.1, 0.1, k_max=8).arg_star == 1
        assert optimize_k(0.3, 0.3, k_max=8).arg_star == 2
        assert optimize_k(0.5, 0.5, k_max=8).arg_star == 4

    def test_per_k_values_reproducible_individually(self):
        r = optimize_k(0.3, 0.3, k_max=5)
        g = peak_load(0.3)
        for i, v in enumerate(r.per_k, start=1):
            assert v == optimize_delta(g, i, 0.3, 0.3).value_star

    def test_value_is_max_of_per_k(self):
        r = optimize_k(0.5, 0.5, k_max=8)
        assert r.value_star == max(r.per_k)
        assert r.per_k[r.arg_star - 1] == r.value_star

    @pytest.mark.parametrize("k_max", [2.5, 3.0, True, "3"])
    def test_non_integer_k_max_is_a_domain_error(self, k_max):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            optimize_k(0.3, 0.3, k_max=k_max)

    def test_ties_break_toward_fewer_relays(self):
        # with a fully erased downlink every (k, delta) gives zero
        r = optimize_k(0.3, 1.0, k_max=5)
        assert r.arg_star == 1
        assert r.value_star == 0.0

    def test_load_is_keyword_only(self):
        # a fourth positional argument is not taken for the load
        with pytest.raises(TypeError):
            optimize_k(0.3, 0.3, 4, 0.8)

    def test_fixed_load_rule(self):
        r = optimize_k(0.3, 0.3, k_max=4, g=0.8)
        g = 0.8
        assert r.per_k[2] == optimize_delta(g, 3, 0.3, 0.3).value_star

    def test_method_and_evaluations(self):
        r = optimize_k(0.2, 0.2, k_max=3)
        assert r.method == "exhaustive_k"
        assert r.evaluations >= 3

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            optimize_k(0.3, 0.3, k_max=0)
        # the range of k
        with pytest.raises(ValueError,
                           match=f"k_max must be in 1..{2**53}, got"):
            optimize_k(0.3, 0.3, k_max=2**53 + 1)
