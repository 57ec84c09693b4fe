import functools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relay_aloha import (
    NonConvergenceError,
    SeriesTruncation,
    ancillary_h,
    ancillary_h_oracle,
    default_truncation,
    log_binomial,
    poisson_pmf,
)
from relay_aloha.kernels import H_MAX_ORDER, _TOUCHARD_OVER_X, _stirling_rows

H_TEST_X = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@functools.cache
def stirling2(m, j):
    """Stirling numbers of the second kind by the standard recurrence."""
    if m == j == 0:
        return 1
    if m == 0 or j == 0:
        return 0
    return j * stirling2(m - 1, j) + stirling2(m - 1, j - 1)


class TestAncillaryH:
    def test_order_zero_is_exp(self):
        assert ancillary_h(0, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert ancillary_h(0, 0.0) == 1.0

    def test_order_one_at_zero(self):
        # every term with n >= 1 vanishes at x = 0, and n^m = 0 at n = 0
        assert ancillary_h(1, 0.0) == 0.0

    def test_order_two_value(self):
        # frozen from the direct-series oracle; analytically (x+x^2) e^x
        assert ancillary_h(2, 0.5) == pytest.approx(
            1.2365409530250961, rel=1e-13
        )

    @pytest.mark.parametrize("x", [0.2, 1.0, 3.7, 8.0, 25.0])
    def test_low_order_identities(self, x):
        ex = math.exp(x)
        assert ancillary_h(1, x) == pytest.approx(x * ex, rel=1e-13)
        assert ancillary_h(2, x) == pytest.approx(
            (x + x * x) * ex, rel=1e-13
        )

    @pytest.mark.parametrize("m", range(13))
    @pytest.mark.parametrize("x", H_TEST_X)
    def test_recursion_matches_oracle(self, m, x):
        rec = ancillary_h(m, x)
        ora = ancillary_h_oracle(m, x)
        assert abs(rec - ora) / max(1.0, abs(ora)) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    def test_strictly_increasing_in_x(self, m):
        xs = [0.01 * 1.6**i for i in range(20)]
        vals = [ancillary_h(m, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_touchard_coefficients_are_stirling_numbers(self, m):
        # H_m(x) / e^x is a degree-m polynomial with no constant term;
        # recover its coefficients from m samples and compare with the
        # independently computed Stirling numbers of the second kind.
        import numpy as np

        xs = np.arange(1.0, m + 1.0)
        rhs = np.array(
            [ancillary_h(m, x) / math.exp(x) for x in xs]
        )
        vand = np.column_stack([xs**j for j in range(1, m + 1)])
        coeffs = np.linalg.solve(vand, rhs)
        for j, c in enumerate(coeffs, start=1):
            assert abs(c - round(c)) < 1e-6
            assert round(c) == stirling2(m, j)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ancillary_h(0, -0.5)
        with pytest.raises(ValueError):
            ancillary_h(0, math.nan)
        with pytest.raises(ValueError):
            ancillary_h(0, math.inf)
        with pytest.raises(ValueError):
            ancillary_h(-1, 1.0)

    def test_overflow_and_bad_orders_are_domain_errors(self):
        assert math.isfinite(ancillary_h(0, 709.0))
        for m, x in [(0, 710.0), (3, 700.0), (2.5, 1.0), (True, 1.0)]:
            with pytest.raises(ValueError):
                ancillary_h(m, x)

    def test_order_above_the_table_raises(self):
        assert ancillary_h(H_MAX_ORDER, 1.0) == pytest.approx(
            ancillary_h_oracle(H_MAX_ORDER, 1.0), rel=1e-12
        )
        with pytest.raises(ValueError, match="order m"):
            ancillary_h(H_MAX_ORDER + 1, 1.0)

    def test_stirling_rows_match_the_integer_recurrence(self):
        rows = _stirling_rows(H_MAX_ORDER)
        assert len(rows) == H_MAX_ORDER + 1
        for m, row in enumerate(rows):
            assert row == [stirling2(m, j) for j in range(m + 1)]
        # the float table is row m without S(m, 0), highest power first
        for m in range(1, H_MAX_ORDER + 1):
            assert _TOUCHARD_OVER_X[m] == tuple(
                float(stirling2(m, j)) for j in range(m, 0, -1)
            )

    def test_repeated_and_concurrent_calls_are_identical(self):
        from concurrent.futures import ThreadPoolExecutor

        xs = [0.1, 0.5, 1.0, 2.0, 3.3] * 40
        first = [ancillary_h(10, x) for x in xs]
        assert [ancillary_h(10, x) for x in xs] == first
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(lambda x: ancillary_h(10, x), xs)) == first


class TestAncillaryHOracle:
    def test_reduces_to_exp_at_order_zero(self):
        assert ancillary_h_oracle(0, 2.0) == pytest.approx(
            math.exp(2.0), rel=1e-13
        )

    def test_order_one_at_unit_x(self):
        # sum n/n! = sum 1/(n-1)! = e
        assert ancillary_h_oracle(1, 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_frozen_value(self):
        assert ancillary_h_oracle(3, 0.3) == pytest.approx(
            0.8058657081228737, rel=1e-13
        )

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            ancillary_h_oracle(2, 10.0, SeriesTruncation(tol=1e-14, n_max_hard=5))


class TestPoissonPmf:
    def test_empty_channel_certain_at_zero_load(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_single_arrival_unit_load(self):
        assert poisson_pmf(1, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_against_recurrence(self):
        # pmf(n) = pmf(n-1) * g / n, seeded at pmf(0) = e^-g
        g = 5.0
        ref = math.exp(-g)
        for n in range(1, 21):
            ref *= g / n
        assert poisson_pmf(20, g) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("g", [0.5, 1.0, 5.0, 20.0])
    def test_normalization(self, g):
        trunc = default_truncation(g)
        total = math.fsum(
            poisson_pmf(n, g) for n in range(trunc.n_max_hard + 1)
        )
        assert abs(total - 1.0) < trunc.tol

    def test_large_count_log_domain(self):
        # cross-check the log-domain branch against the recurrence
        g = 40.0
        ref = math.exp(-g)
        for n in range(1, 101):
            ref *= g / n
        assert poisson_pmf(100, g) == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.1)
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)


class TestLogBinomial:
    def test_choose_zero(self):
        assert log_binomial(5, 0) == 0.0

    def test_small_case(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-15)

    def test_against_exact_big_integer(self):
        assert log_binomial(60, 30) == pytest.approx(
            math.log(math.comb(60, 30)), rel=1e-14
        )

    @given(
        n=st.integers(min_value=0, max_value=400),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_exact_everywhere(self, n, frac):
        k = round(frac * n)
        assert log_binomial(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-12, abs=1e-12
        )

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)


class TestSeriesTruncation:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesTruncation(tol=0.0)
        with pytest.raises(ValueError):
            SeriesTruncation(tol=1e-14, n_max_hard=0)

    def test_default_cap_scales_with_load(self):
        assert default_truncation(1.0).n_max_hard == 200
        big = default_truncation(400.0)
        assert big.n_max_hard >= 400 + 12 * 20 + 50
