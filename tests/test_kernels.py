import functools
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relay_aloha import (
    G_MAX,
    ancillary_h,
    ancillary_h_oracle,
)
from relay_aloha.kernels import (
    DEFAULT_TOL,
    H_MAX_ORDER,
    _TOUCHARD_OVER_X,
    _stirling_rows,
    poisson_table,
)

H_TEST_X = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 700.0)


def h_is_finite(m, x):
    try:
        ancillary_h(m, x)
    except ValueError:  # past the float range
        return False
    return True


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

    @pytest.mark.parametrize("x,m", [
        (x, m) for x in H_TEST_X for m in range(H_MAX_ORDER + 1)
        if h_is_finite(m, x)
    ])
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
        # the oracle takes the same orders: no OverflowError from n ** m
        for m, x in [(200, 1.0), (2.5, 1.0), (True, 1.0)]:
            with pytest.raises(ValueError, match="order m"):
                ancillary_h_oracle(m, x)

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

    def test_converges_where_the_terms_are_large(self):
        # the terms near n = x are about 1e46 here, so the sum ends on a
        # term small next to the sum, not on a term small in itself
        assert ancillary_h_oracle(2, 100.0) == pytest.approx(
            ancillary_h(2, 100.0), rel=1e-13
        )

    @pytest.mark.parametrize("m,x", [(2, 800.0), (0, 710.0), (20, 700.0)])
    def test_past_the_float_range(self, m, x):
        # x^n / n! or a term overflows: said at once, as ancillary_h does
        with pytest.raises(ValueError, match="exceeds the float range"):
            ancillary_h_oracle(m, x)


def pmf_at(g, n):
    """P[N = n] from the table at tolerance DEFAULT_TOL."""
    lo, weights, _ = poisson_table(g, DEFAULT_TOL)
    return weights[n - lo]


def poisson_decimal(g, lo, hi, prec=50):
    """P[N = n] for n = lo..hi in ``prec``-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        G = Decimal(g)
        p = (-G).exp()
        out = []
        for n in range(hi + 1):
            if n >= lo:
                out.append(p)
            p = p * G / (n + 1)
        return out


class TestPoissonTable:
    """The Poisson probabilities as :func:`poisson_table` tabulates them."""

    def test_empty_channel_certain_at_zero_load(self):
        lo, weights, _ = poisson_table(0.0, DEFAULT_TOL)
        assert (lo, weights) == (0, [1.0, 0.0])

    def test_single_arrival_unit_load(self):
        assert pmf_at(1.0, 1) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_against_recurrence(self):
        # pmf(n) = pmf(n-1) * g / n, seeded at pmf(0) = e^-g
        g = 5.0
        ref = math.exp(-g)
        for n in range(1, 21):
            ref *= g / n
        assert pmf_at(g, 20) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("g", [0.5, 1.0, 5.0, 20.0])
    def test_normalization(self, g):
        lo, weights, err = poisson_table(g, DEFAULT_TOL)
        assert abs(math.fsum(weights) - 1.0) < 1e-15
        exact = poisson_decimal(g, lo, lo + len(weights) - 1)
        assert float(1 - sum(exact)) <= err < 1e-13

    def test_large_count(self):
        # far out in the upper tail, against the recurrence from n = 0
        g = 40.0
        ref = math.exp(-g)
        for n in range(1, 101):
            ref *= g / n
        lo, weights, _ = poisson_table(g, 1e-20)
        assert weights[100 - lo] == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        for g in (-0.1, math.inf, math.nan, 1e300,
                  math.nextafter(G_MAX, math.inf)):
            with pytest.raises(ValueError):
                poisson_table(g, DEFAULT_TOL)


class TestPoissonTableCut:
    """Where :func:`poisson_table` cuts the Poisson law off."""

    def test_validation(self):
        for tol in (0.0, -1e-14, math.nan):
            with pytest.raises(ValueError):
                poisson_table(1.0, tol)

    def test_cut_scales_with_load(self):
        # each side ends at the first count past the mode where both
        # P[N = n] and the geometric bound on the mass beyond are < tol
        def done(w, beyond):
            return w < DEFAULT_TOL and w * beyond < DEFAULT_TOL

        for g in (1.0, 8.0, 400.0, 1e6):
            lo, weights, _ = poisson_table(g, DEFAULT_TOL)
            hi = lo + len(weights) - 1
            assert hi > g and done(weights[-1], g / (hi + 1 - g))
            assert hi - 1 <= g or not done(weights[-2], g / (hi - g))
            if lo:
                assert done(weights[0], lo / (g - lo))
                assert not done(weights[1], (lo + 1) / (g - lo - 1))
            assert hi - g <= 12.0 * math.sqrt(g) + 50.0
        assert poisson_table(30.0, DEFAULT_TOL)[0] == 0
        assert poisson_table(400.0, DEFAULT_TOL)[0] > 0
        assert len(poisson_table(1e6, DEFAULT_TOL)[1]) < 20_000

    @given(
        g=st.floats(min_value=0.0, max_value=1000.0),
        tol=st.sampled_from([DEFAULT_TOL, 2.0**-53, 1e-6]),
    )
    def test_error_covers_omitted_mass_and_rounding(self, g, tol):
        lo, weights, err = poisson_table(g, tol)
        exact = poisson_decimal(g, lo, lo + len(weights) - 1)
        off = sum(abs(Decimal(w) - p) for w, p in zip(weights, exact))
        assert off + (1 - sum(exact)) <= Decimal(err)
