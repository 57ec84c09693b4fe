import math

import pytest

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
from relay_aloha import optimize
from relay_aloha.optimize import ARG_TOL, LOAD_GRID_POINTS


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

    @pytest.mark.parametrize("g_max", [1e4, 1e5, 1e9])
    def test_large_g_max_keeps_the_peak(self, g_max):
        # the grid's floor stays below the peak near 1/(1 - eps_u)
        ref = optimize_load(2, 0.3, 0.3, 1.0, 8.0).value_star
        r = optimize_load(2, 0.3, 0.3, 1.0, g_max)
        assert r.value_star == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("g_max", [1e-6, 0.5, 8.0, 1e9])
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
