import itertools
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relay_aloha import (
    G_MAX,
    SystemParams,
    bound,
    bound_closed,
    bound_series,
    delta_star_k2,
    peak_load,
    s_star_k2,
    throughput,
    throughput_closed,
    throughput_k2_at_peak_load,
    throughput_sa,
    throughput_series,
)
from relay_aloha.kernels import H_MAX_ORDER
from relay_aloha.model import _decode_table

eps_floats = st.floats(min_value=0.0, max_value=1.0)
load_floats = st.floats(min_value=0.0, max_value=8.0)
relay_counts = st.integers(min_value=1, max_value=8)


def params_strategy():
    return st.builds(
        SystemParams,
        g=load_floats,
        k=relay_counts,
        eps_u=eps_floats,
        eps_d=eps_floats,
        delta=eps_floats,
    )


def enumerate_single_survivor(n, eps):
    """Brute-force P[exactly one of n packets survives] over all 2^n
    erasure patterns."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        w = 1.0
        for survives in pattern:
            w *= (1.0 - eps) if survives else eps
        if sum(pattern) == 1:
            total += w
    return total


class TestSystemParams:
    @pytest.mark.parametrize("k", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integer_relay_counts_become_int(self, k):
        p = SystemParams(1.0, k, 0.3, 0.3, 1.0)
        assert p.k == 3 and type(p.k) is int

    @pytest.mark.parametrize(
        "k", [2.5, 3.0, np.float64(3.0), True, False, np.True_, "3", None]
    )
    def test_non_integer_relay_count_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            SystemParams(1.0, k, 0.3, 0.3, 1.0)

    @pytest.mark.parametrize("k", [0, -1, np.int64(0)])
    def test_relay_count_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be in 1..{2**53}"):
            SystemParams(1.0, k, 0.3, 0.3, 1.0)

    def test_relay_count_ends_at_two_to_the_53(self):
        # every formula takes k as a float, exact up to 2^53
        assert SystemParams(1.0, 2**53, 0.3, 0.3, 1.0).k == 2**53
        for k in (2**53 + 1, 10**400):
            with pytest.raises(ValueError,
                               match=f"k must be in 1..{2**53}, got"):
                SystemParams(1.0, k, 0.3, 0.3, 1.0)

    @pytest.mark.parametrize("field", ["eps_d", "delta"])
    @pytest.mark.parametrize("v", [-0.1, 1.5, math.inf])
    def test_downlink_probability_out_of_range(self, field, v):
        kw = dict(g=1.0, k=2, eps_u=0.3, eps_d=0.3, delta=0.5)
        kw[field] = v
        with pytest.raises(ValueError, match=f"{field} must be finite and in"):
            SystemParams(**kw)

    def test_fields_are_python_numbers_in_slots(self):
        p = SystemParams(np.float32(1.5), np.int64(2), 0.25, 1, np.float64(0.5))
        assert [type(v) for v in (p.g, p.k, p.eps_u, p.eps_d, p.delta)] == [
            float, int, float, float, float]
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.g = 2.0
        assert p == SystemParams(1.5, 2, 0.25, 1.0, 0.5)
        assert hash(p) == hash(SystemParams(1.5, 2, 0.25, 1.0, 0.5))


class TestDomainErrors:
    @pytest.mark.parametrize(
        "g,k,eu",
        [(2.0, 2.5, 0.3), (2.0, True, 0.3), (2.0, 25.0, 0.3), (2.0, "2", 0.3),
         (math.inf, 2, 0.3), (math.nan, 2, 0.3), (-1.0, 2, 0.3),
         (1e300, 2, 0.3), (math.nextafter(G_MAX, math.inf), 2, 0.3),
         (2.0, 0, 0.3), (2.0, 2, 1.5)],
    )
    def test_bad_bound_arguments(self, g, k, eu):
        for fn in (bound, bound_closed, bound_series):
            with pytest.raises(ValueError):
                fn(g, k, eu)

    def test_integer_like_bound_relay_count(self):
        assert bound(2.0, np.int64(3), 0.3) == bound(2.0, 3, 0.3)

    @pytest.mark.parametrize(
        "g", [math.inf, math.nan, -0.5, math.nextafter(G_MAX, math.inf),
              # ints past the float range
              pytest.param(10**400, id="1e400"),
              pytest.param(-10**400, id="-1e400")]
    )
    def test_single_link_needs_a_finite_load(self, g):
        with pytest.raises(ValueError, match="g must be finite"):
            throughput_sa(g, 0.3)

    def test_explicit_closed_form_far_past_the_load_limit(self):
        # past G_MAX: a documented ValueError, not an overflow in fsum
        with pytest.raises(ValueError, match="g must be finite"):
            throughput_closed(SystemParams(1e300, 20, 0.999, 0.0, 1.0))
        with pytest.raises(ValueError, match="g must be finite"):
            bound_closed(1e300, 20, 0.999)
        # at G_MAX every closed-form term is finite
        assert math.isfinite(bound_closed(G_MAX, 20, 0.999).est_abs_error)
        assert math.isfinite(throughput_closed(
            SystemParams(G_MAX, 20, 0.999, 0.0, 1.0)).est_abs_error)

    def test_a_million_packets_per_slot(self):
        # the table spans about 14 sqrt(g) counts, not g of them
        p = SystemParams(1e6, 25, 0.3, 0.3, 0.5)
        for r in (throughput_series(p), bound_series(1e6, 25, 0.3)):
            assert r.method == "series"
            assert r.terms_used < 20_000
            assert 0.0 <= r.value <= r.est_abs_error < 1e-10
        # e^(x_m - g) underflows in every closed-form term: an exact 0
        for r in (throughput(p), bound(1e6, 25, 0.3)):
            assert r.method == "closed_form"
            assert 0.0 <= r.value <= r.est_abs_error < 1e-10


def p_decode(n, eps):
    """P[a relay decodes a slot of n packets], read from the decode
    table at load n, which holds its mode n."""
    lo, _, p, _ = _decode_table(float(n), eps, 1e-14)
    return p[n - lo]


class TestUplinkDecoding:
    def test_lone_clean_packet_always_decodes(self):
        assert p_decode(1, 0.0) == 1.0

    def test_empty_slot_never_decodes(self):
        for eps in (0.0, 0.3, 1.0):
            assert p_decode(0, eps) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_matches_pattern_enumeration(self, n, eps):
        assert p_decode(n, eps) == pytest.approx(
            enumerate_single_survivor(n, eps), abs=1e-14
        )

    @given(n=st.integers(min_value=0, max_value=200), eps=eps_floats)
    def test_is_a_probability(self, n, eps):
        assert all(0.0 <= p <= 1.0
                   for p in _decode_table(float(n), eps, 1e-14)[2])


def single_link_decimal(g, eu, prec=40):
    """g (1-eps_u) e^(-g (1-eps_u)) in ``prec``-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        ge = Decimal(g) * (1 - Decimal(eu))
        return ge * (-ge).exp()


class TestSingleLinkThroughput:
    @given(g=st.floats(min_value=0.0, max_value=G_MAX), eps=eps_floats)
    @example(g=5e-324, eps=0.3)  # g (1-eps_u) rounds as a subnormal
    @example(g=1e-310, eps=0.6)
    @example(g=740.0, eps=0.0)  # exp(-g) is subnormal
    @example(g=800.0, eps=0.0)  # exp(-g) is 0
    @example(g=2.0, eps=0.5)
    @example(g=0.0, eps=0.3)
    @example(g=3.0, eps=1.0)
    def test_error_estimate_covers_a_decimal_reference(self, g, eps):
        r = throughput_sa(g, eps)
        ref = single_link_decimal(g, eps)
        # the slack covers the reference's own 40-digit rounding
        assert abs(Decimal(r.value) - ref) <= (
            Decimal(r.est_abs_error) + ref * Decimal(10) ** -30)
        # 0 only where the value is exact
        assert (r.est_abs_error == 0.0) == (g == 0.0 or eps == 1.0)

    def test_classical_peak(self):
        assert throughput_sa(1.0, 0.0).value == pytest.approx(
            math.exp(-1), rel=1e-15
        )

    def test_no_traffic(self):
        assert throughput_sa(0.0, 0.7).value == 0.0

    def test_erasures_shift_the_peak(self):
        # g (1-eps) = 1 again, so the peak value is unchanged
        assert throughput_sa(2.0, 0.5).value == pytest.approx(
            math.exp(-1), rel=1e-15
        )


class TestThroughputSeries:
    def test_zero_when_never_forwarding(self):
        r = throughput_series(SystemParams(2.0, 3, 0.3, 0.3, 0.0))
        assert r.value == 0.0
        assert r.method == "series"

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.6])
    def test_single_relay_at_peak_load(self, eps):
        # k=1, delta=1, symmetric erasures, peak load: (1-eps)/e
        g = peak_load(eps)
        r = throughput_series(SystemParams(g, 1, eps, eps, 1.0))
        assert r.value == pytest.approx((1.0 - eps) * math.exp(-1), rel=1e-12)

    def test_frozen_value(self):
        r = throughput_series(SystemParams(1.5, 3, 0.3, 0.2, 0.7))
        assert r.value == pytest.approx(0.2871626808070932, rel=1e-12)

    def test_error_bound_is_poisson_tail(self):
        r = throughput_series(SystemParams(2.0, 2, 0.3, 0.3, 1.0))
        assert 0.0 <= r.est_abs_error < 1e-12
        assert r.terms_used > 2


class TestThroughputClosed:
    def test_single_relay_reduces_to_scaled_single_link(self):
        for (g, eu, ed, d) in [(1.0, 0.3, 0.2, 0.7), (3.0, 0.6, 0.0, 1.0)]:
            r = throughput_closed(SystemParams(g, 1, eu, ed, d))
            expected = d * (1 - ed) * throughput_sa(g, eu).value
            assert r.value == pytest.approx(expected, abs=1e-14)

    def test_two_relay_peak_load_matches_quadratic(self):
        eu = ed = 0.3
        r = throughput_closed(SystemParams(peak_load(eu), 2, eu, ed, 1.0))
        assert r.value == pytest.approx(
            throughput_k2_at_peak_load(eu, ed, 1.0), abs=1e-12
        )

    def test_matches_series_frozen_point(self):
        p = SystemParams(2.0, 5, 0.5, 0.1, 0.8)
        assert throughput_closed(p).value == pytest.approx(
            0.2857131715878393, abs=1e-10
        )

    def test_zero_uplink_erasure_is_in_the_domain(self):
        # eps_u = 0 is in the domain: the eps_u^-m factors cancel in the
        # kernels; the one domain error left is the Touchard table's order
        r = throughput_closed(SystemParams(1.0, 2, 0.0, 0.0, 1.0))
        assert r.value == 0.0
        with pytest.raises(ValueError, match="k <= 32, got 33"):
            throughput_closed(SystemParams(1.0, 33, 0.0, 0.0, 1.0))

    def test_k_past_the_touchard_table(self):
        r = throughput_closed(SystemParams(1.0, 21, 0.3, 0.0, 1.0))
        assert r.method == "closed_form" and math.isfinite(r.est_abs_error)
        with pytest.raises(ValueError, match="closed form needs k <= 32"):
            throughput_closed(
                SystemParams(1.0, H_MAX_ORDER + 1, 0.3, 0.0, 1.0)
            )


class TestDispatch:
    def test_closed_path_at_zero_uplink_erasure(self):
        # both relays always decode the same lone packet and always
        # collide at the sink when delta = 1
        r = throughput(SystemParams(1.0, 2, 0.0, 0.0, 1.0))
        assert r.method == "closed_form"
        assert r.value == 0.0

    def test_closed_path_in_the_stable_region(self):
        r = throughput(SystemParams(1.0, 2, 0.3, 0.3, 1.0))
        assert r.method == "closed_form"

    def test_paths_agree_at_small_uplink_erasure(self):
        for eps_u in (0.0, 1e-9, 2e-6):
            p = SystemParams(1.0, 3, eps_u, 0.1, 0.8)
            assert throughput_closed(p).value == pytest.approx(
                throughput_series(p).value, abs=1e-9
            )

    @given(params=params_strategy())
    def test_value_is_a_probability(self, params):
        assert -1e-12 <= throughput(params).value <= 1.0 + 1e-12

    @given(
        g=st.floats(min_value=0.0, max_value=8.0),
        eps_u=eps_floats,
        eps_d=eps_floats,
    )
    def test_single_relay_consistency(self, g, eps_u, eps_d):
        # with one relay and delta = 1 there is no downlink contention,
        # only erasure: S = (1-eps_d) * S_single_link
        r = throughput(SystemParams(g, 1, eps_u, eps_d, 1.0))
        expected = (1.0 - eps_d) * throughput_sa(g, eps_u).value
        assert r.value == pytest.approx(expected, abs=1e-12)


class TestBound:
    def test_single_relay_is_single_link(self):
        for (g, eu) in [(1.0, 0.3), (2.5, 0.7)]:
            assert bound_closed(g, 1, eu).value == pytest.approx(
                throughput_sa(g, eu).value, abs=1e-13
            )

    def test_total_erasure_kills_everything(self):
        assert bound_series(3.0, 4, 1.0).value == 0.0

    def test_clean_uplink_all_relays_identical(self):
        # every relay sees the very same decode outcome, so the union
        # equals the single-relay event: pmf(1; g)
        assert bound_series(1.0, 3, 0.0).value == pytest.approx(
            math.exp(-1), rel=1e-12
        )

    def test_frozen_values(self):
        assert bound_closed(1.2, 4, 0.4).value == pytest.approx(
            0.6322016355266069, abs=1e-10
        )
        assert bound_series(2.0, 2, 0.5).value == pytest.approx(
            0.5684112622315622, rel=1e-12
        )

    def test_closed_matches_series(self):
        for (g, k, eu) in [(1.2, 4, 0.4), (2.0, 2, 0.5), (4.0, 8, 0.9)]:
            assert bound_closed(g, k, eu).value == pytest.approx(
                bound_series(g, k, eu).value, abs=1e-10
            )

    def test_singularity_and_cap(self):
        # at eps_u = 0 every relay decodes the same lone packet: g e^-g
        assert bound_closed(1.0, 2, 0.0).value == pytest.approx(
            math.exp(-1), rel=1e-14
        )
        for eu in (0.0, 0.3):
            with pytest.raises(ValueError, match="k <= 32, got 33"):
                bound_closed(1.0, H_MAX_ORDER + 1, eu)

    @given(g=load_floats, k=relay_counts, eps_u=eps_floats)
    def test_dominates_throughput(self, g, k, eps_u):
        s = throughput(SystemParams(g, k, eps_u, 0.0, 1.0)).value
        sb = bound(g, k, eps_u).value
        assert s <= sb + 1e-12
        assert -1e-12 <= sb <= 1.0 + 1e-12

    def test_downlink_parameters_are_unrepresentable(self):
        # independence from delta and eps_d is enforced by the signature
        import inspect

        for fn in (bound, bound_closed, bound_series):
            names = set(inspect.signature(fn).parameters)
            assert "eps_d" not in names
            assert "delta" not in names


class TestTwoRelayClosedForms:
    def test_quadratic_examples(self):
        assert throughput_k2_at_peak_load(0.0, 0.0, 1.0) == pytest.approx(
            0.0, abs=1e-15
        )
        assert throughput_k2_at_peak_load(0.0, 0.0, 0.5) == pytest.approx(
            1 / (2 * math.e), rel=1e-14
        )

    def test_quadratic_matches_general_model(self):
        for (eu, ed, d) in [(0.3, 0.3, 1.0), (0.5, 0.1, 0.7), (0.2, 0.6, 0.4)]:
            full = throughput(SystemParams(peak_load(eu), 2, eu, ed, d)).value
            assert throughput_k2_at_peak_load(eu, ed, d) == pytest.approx(
                full, abs=1e-12
            )

    def test_delta_star_clean_channels(self):
        assert delta_star_k2(0.0, 0.0) == 0.5

    def test_delta_star_saturates_at_high_erasure(self):
        assert delta_star_k2(0.9, 0.0) == 1.0

    @pytest.mark.parametrize(
        "eu,ed", [(0.0, 0.0), (0.2, 0.4), (0.1, 0.1), (0.05, 0.6)]
    )
    def test_interior_optimum_is_stationary(self, eu, ed):
        ds = delta_star_k2(eu, ed)
        if ds < 1.0:
            # analytic derivative of the concave quadratic
            c = (1 - eu + eu * eu) * math.exp(-eu)
            deriv = (2 * (1 - ed) / math.e) * (1 - 2 * ds * (1 - ed) * c)
            assert abs(deriv) < 1e-12
            # central difference agrees (quadratic: no truncation term)
            h = 1e-5
            fd = (
                throughput_k2_at_peak_load(eu, ed, ds + h)
                - throughput_k2_at_peak_load(eu, ed, ds - h)
            ) / (2 * h)
            assert abs(fd) < 1e-8

    @pytest.mark.parametrize("eu,ed", [(0.9, 0.0), (0.5, 0.5), (0.8, 0.3)])
    def test_boundary_optimum_has_nonnegative_slope(self, eu, ed):
        if delta_star_k2(eu, ed) == 1.0:
            c = (1 - eu + eu * eu) * math.exp(-eu)
            deriv_at_one = (2 * (1 - ed) / math.e) * (1 - 2 * (1 - ed) * c)
            assert deriv_at_one >= -1e-12

    def test_s_star_clean_channels(self):
        assert s_star_k2(0.0, 0.0) == pytest.approx(
            1 / (2 * math.e), rel=1e-14
        )

    @given(eu=st.floats(min_value=0.0, max_value=0.95),
           ed=st.floats(min_value=0.0, max_value=0.95))
    def test_s_star_consistent_with_quadratic_at_delta_star(self, eu, ed):
        assert s_star_k2(eu, ed) == pytest.approx(
            throughput_k2_at_peak_load(eu, ed, delta_star_k2(eu, ed)),
            abs=1e-12,
        )

    def test_degenerate_downlink_rejected(self):
        with pytest.raises(ValueError):
            delta_star_k2(0.3, 1.0)
        with pytest.raises(ValueError):
            s_star_k2(0.3, 1.0)
        with pytest.raises(ValueError):
            throughput_k2_at_peak_load(1.0, 0.0, 1.0)

    def test_concave_in_delta(self):
        # second differences of a concave quadratic are negative
        eu, ed = 0.4, 0.2
        ds = [i / 20 for i in range(21)]
        vals = [throughput_k2_at_peak_load(eu, ed, d) for d in ds]
        second = [a - 2 * b + c for a, b, c in zip(vals, vals[1:], vals[2:])]
        assert all(s < 0 for s in second)

    def test_vanishes_at_zero_delta_any_k(self):
        for k in (1, 2, 5):
            assert throughput(SystemParams(1.3, k, 0.3, 0.2, 0.0)).value == 0.0


def _h_decimal(m, x):
    hs = [x.exp()]
    for j in range(1, m + 1):
        hs.append(
            x
            * sum(
                (Decimal(math.comb(j - 1, l)) * hs[l] for l in range(j)),
                Decimal(0),
            )
        )
    return hs[m]


def closed_form_decimal(g, k, eu, ed, d, prec=80):
    """High-precision evaluation of the closed form, same formula but in
    ``prec``-digit decimal arithmetic, to expose float cancellation."""
    with localcontext() as ctx:
        ctx.prec = prec
        G, EU, ED, D = Decimal(g), Decimal(eu), Decimal(ed), Decimal(d)
        beta = D * (1 - EU) * (1 - ED)
        exp_g = (-G).exp()
        total = Decimal(0)
        for l in range(k):
            total += (
                (Decimal(-1) ** l)
                * k
                * math.comb(k - 1, l)
                * (beta / EU) ** (l + 1)
                * exp_g
                * _h_decimal(l + 1, G * EU ** (l + 1))
            )
        return +total


def bound_closed_decimal(g, k, eu, prec=80):
    """The bound's closed form, 1 - sum_l (-1)^l C(k, l) r^l e^-g H_l,
    in ``prec``-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        G, EU = Decimal(g), Decimal(eu)
        ratio = (1 - EU) / EU
        exp_g = (-G).exp()
        total = Decimal(0)
        for l in range(k + 1):
            total += (
                (Decimal(-1) ** l)
                * math.comb(k, l)
                * (ratio**l if l else 1)  # Decimal leaves 0**0 undefined
                * exp_g
                * _h_decimal(l, G * EU**l)
            )
        return 1 - total


def series_decimal(g, k, eu, ed, d, prec=40):
    """(S, S~) as Poisson-weighted series in ``prec``-digit decimal
    arithmetic, summed until the Poisson terms pass 1e-(prec + 5)."""
    with localcontext() as ctx:
        ctx.prec = prec
        G, EU, ED, D = Decimal(g), Decimal(eu), Decimal(ed), Decimal(d)
        weight = (-G).exp()
        small = Decimal(10) ** -(prec + 5)
        s = b = Decimal(0)
        n = 0
        while n <= g or weight >= small:
            # Decimal leaves 0**0 undefined
            p = n * (1 - EU) * (EU ** (n - 1) if n > 1 else 1) if n else 0
            q = p * D * (1 - ED)
            s += weight * k * q * ((1 - q) ** (k - 1) if k > 1 else 1)
            b += weight * (1 - (1 - p) ** k)
            n += 1
            weight = weight * G / n
        return +s, +b


def assert_within_estimate(result, ref, prec=80):
    """|value - ref| <= est_abs_error, compared exactly, give or take
    the reference's own rounding at ``prec`` digits."""
    slack = Decimal(10) ** (20 - prec)
    assert abs(Decimal(result.value) - ref) <= (
        Decimal(result.est_abs_error) + slack
    )


class TestClosedFormAtTwentyRelays:
    """At k = 20, where alternating cancellation is already large, the
    closed form is checked against an arbitrary-precision evaluation."""

    @pytest.mark.parametrize(
        "g,eu,ed,d",
        [
            (2.0, 0.05, 0.3, 1.0),
            (0.25, 0.05, 0.0, 1.0),
            (4.0, 0.9, 0.0, 1.0),
        ],
    )
    def test_error_within_budget(self, g, eu, ed, d):
        p = SystemParams(g, 20, eu, ed, d)
        ref = closed_form_decimal(g, 20, eu, ed, d)
        assert abs(throughput_closed(p).value - float(ref)) < 1e-9
        assert abs(throughput_series(p).value - float(ref)) < 1e-13
        # and each closed form's own error estimate covers its error
        assert_within_estimate(throughput_closed(p), ref)
        assert_within_estimate(
            bound_closed(g, 20, eu),
            bound_closed_decimal(g, 20, eu),
        )


# Points where the closed forms are hardest: g = 650 with eps_u = 0.999
# (H_m(x_m) alone is past the float range there) and k = 16..20 with
# small eps_u (a cancellation of up to 1e9 in the alternating sums).
HARD_THROUGHPUT = (
    [(650.0, k, 0.999, 0.0, 1.0) for k in (12, 16, 20)]
    + [(0.5, 20, 1e-3, 0.0, 1.0), (1.0, 18, 1e-3, 0.0, 1.0),
       (2.0, 20, 1e-4, 0.0, 1.0), (0.5, 20, 1e-5, 0.0, 1.0)]
)
HARD_BOUND = ([(650.0, k, 0.999) for k in (12, 16, 20)]
              + [(0.5, 20, 1e-3), (2.0, 20, 1e-4)])


class TestClosedFormErrorEstimate:
    """est_abs_error of a closed form covers its distance from a
    high-precision evaluation of the same formula."""

    @pytest.mark.parametrize("p", HARD_THROUGHPUT)
    def test_throughput_at_hard_points(self, p):
        r = throughput_closed(SystemParams(*p))
        assert r.method == "closed_form"
        assert 0.0 < r.est_abs_error < 1e-7
        ref = closed_form_decimal(*p)
        assert_within_estimate(r, ref)
        # an estimate that large sends the dispatcher to the series
        r = throughput(SystemParams(*p))
        assert r.method == "series"
        assert_within_estimate(r, ref)

    @pytest.mark.parametrize("p", HARD_BOUND)
    def test_bound_at_hard_points(self, p):
        r = bound_closed(*p)
        assert r.method == "closed_form"
        assert 0.0 < r.est_abs_error < 1e-7
        ref = bound_closed_decimal(*p)
        assert_within_estimate(r, ref)
        r = bound(*p)
        assert r.method == "series"
        assert_within_estimate(r, ref)

    def test_bound_reference_matches_series(self):
        for g, k, eu in [(1.2, 4, 0.4), (4.0, 8, 0.9)]:
            assert float(bound_closed_decimal(g, k, eu)) == pytest.approx(
                bound_series(g, k, eu).value, abs=1e-13
            )

    def test_subnormal_kernels_above_g_708(self):
        # every e^(x_m - g) is subnormal or 0 here; at 3000 digits the
        # reference resolves the rounding of values near 1e-311
        p = (735.13, 32, 0.01464, 0.3114, 0.3458)
        ref = closed_form_decimal(*p, 3000)
        for r in (throughput_closed(SystemParams(*p)),
                  throughput(SystemParams(*p))):
            assert r.method == "closed_form"
            assert_within_estimate(r, ref, 3000)
        ref = bound_closed_decimal(*p[:3], 3000)
        for r in (bound_closed(*p[:3]), bound(*p[:3])):
            assert r.method == "closed_form"
            assert_within_estimate(r, ref, 3000)

    @pytest.mark.parametrize("p", [
        (1000.0, 32, 1.0 - 1e-16, 0.0, 1e-300),
        (700.0, 32, 1.0 - 1e-16, 0.3, 1e-300),
        (1.0, 3, 0.51, 0.0, 5e-324),  # delta r1 rounds to 0
    ])
    def test_subnormal_r(self, p):
        # r = delta (1-eps_u) (1-eps_d) rounds subnormal, off by up to
        # 2^-1075, which moves the sum by about |c_1| 2^-1075: more than
        # the rest of the estimate when c_1 is large
        ref = closed_form_decimal(*p, 3000)
        for r in (throughput_closed(SystemParams(*p)),
                  throughput(SystemParams(*p))):
            assert r.method == "closed_form"
            assert r.est_abs_error > 0.0
            assert_within_estimate(r, ref, 3000)

    @given(
        g=st.floats(min_value=0.0, max_value=G_MAX, exclude_min=True),
        k=st.integers(min_value=1, max_value=H_MAX_ORDER),
        eu=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ed=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        d=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @example(g=1.0, k=3, eu=0.51, ed=0.0, d=5e-324)
    def test_estimate_is_positive_unless_the_value_is_exact(self, g, k, eu,
                                                            ed, d):
        # g, delta, 1 - eps_u and 1 - eps_d all positive: the sum is not
        # exactly 0, whatever its rounded value
        p = SystemParams(g, k, eu, ed, d)
        assert throughput_closed(p).est_abs_error > 0
        assert bound_closed(g, k, eu).est_abs_error > 0

    def test_exact_zero_has_no_error(self):
        r = throughput(SystemParams(1.3, 5, 0.3, 0.2, 0.0))
        assert (r.value, r.est_abs_error) == (0.0, 0.0)
        assert bound(0.0, 3, 0.5).value == 0.0
        assert math.copysign(1.0, bound(0.0, 3, 0.5).value) == 1.0

    @given(
        g=st.floats(min_value=0.0, max_value=700.0, exclude_max=True),
        k=st.integers(min_value=1, max_value=20),
        eu=st.floats(min_value=1e-5, max_value=1.0),
        ed=eps_floats,
        d=eps_floats,
    )
    def test_estimate_covers_the_error(self, g, k, eu, ed, d):
        # 400 digits: the decimal bound takes 1 minus a sum as close to 1
        # as 1 - e^-700
        r = throughput_closed(SystemParams(g, k, eu, ed, d))
        assert r.method == "closed_form"
        assert_within_estimate(
            r, closed_form_decimal(g, k, eu, ed, d, 400), 400
        )
        rb = bound_closed(g, k, eu)
        assert rb.method == "closed_form"
        assert_within_estimate(rb, bound_closed_decimal(g, k, eu, 400), 400)


class TestSeriesErrorEstimate:
    """est_abs_error of a series covers its distance from a
    high-precision evaluation of the same series."""

    def test_near_the_closed_form_load_limit(self):
        # where the log-domain pmf used to lose up to 5e-13
        for g in (600.5, 650.0, 693.1, 699.9):
            s, b = series_decimal(g, 20, 0.999, 0.3, 0.7)
            r = throughput_series(SystemParams(g, 20, 0.999, 0.3, 0.7))
            assert 0.0 < r.est_abs_error < 1e-12
            assert_within_estimate(r, s, 40)
            assert_within_estimate(bound_series(g, 20, 0.999), b, 40)

    @given(
        g=st.floats(min_value=0.0, max_value=700.0),
        k=st.integers(min_value=1, max_value=32),
        eu=st.floats(min_value=0.0, max_value=0.999),
        ed=eps_floats,
        d=eps_floats,
    )
    def test_estimate_covers_the_error(self, g, k, eu, ed, d):
        s, b = series_decimal(g, k, eu, ed, d)
        assert_within_estimate(
            throughput_series(SystemParams(g, k, eu, ed, d)), s, 40
        )
        assert_within_estimate(bound_series(g, k, eu), b, 40)


class TestErrorBoundedDispatch:
    """throughput and bound take the closed form only where its own
    estimate is at most 1e-12, and every result, on either path, lies
    within its estimate of the exact value (series_decimal, which both
    paths approximate)."""

    @given(
        g=st.floats(min_value=0.0, max_value=700.0),
        k=st.integers(min_value=1, max_value=H_MAX_ORDER),
        eu=st.floats(min_value=0.0, max_value=0.999),
        ed=eps_floats,
        d=eps_floats,
    )
    def test_dispatch_is_error_bounded(self, g, k, eu, ed, d):
        s, b = series_decimal(g, k, eu, ed, d)
        for r, ref in ((throughput(SystemParams(g, k, eu, ed, d)), s),
                       (bound(g, k, eu), b)):
            assert r.method in ("closed_form", "series")
            if r.method == "closed_form":
                assert r.est_abs_error <= 1.000001e-12
            assert_within_estimate(r, ref, 40)


class TestLonePacketAboveG700:
    """At eps_u = 0 a relay decodes exactly the slots that hold one
    packet, so S = g e^-g k q (1-q)^(k-1) with q = delta (1-eps_d), and
    S~ = g e^-g.  Above g = 700, e^-g is subnormal; each result must
    still lie within its estimate of these values."""

    @example(g=715.6910152444545, k=32, ed=0.0, d=1.0)
    @example(g=718.8, k=27, ed=0.0, d=1.0)
    @given(
        g=st.floats(min_value=700.0, max_value=750.0),
        k=st.integers(min_value=1, max_value=H_MAX_ORDER),
        ed=st.one_of(st.just(0.0), eps_floats),
        d=st.one_of(st.just(1.0), eps_floats),
    )
    def test_within_the_estimate(self, g, k, ed, d):
        with localcontext() as ctx:
            ctx.prec = 400
            lone = Decimal(g) * (-Decimal(g)).exp()
            q = Decimal(d) * (1 - Decimal(ed))
            s = lone * k * q * ((1 - q) ** (k - 1) if k > 1 else 1)
        assert_within_estimate(
            throughput(SystemParams(g, k, 0.0, ed, d)), s, 400)
        assert_within_estimate(bound(g, k, 0.0), lone, 400)


class TestOneDispatchRule:
    """throughput and bound return, field for field, what the explicit
    function of the path their ``method`` names returns."""

    @given(
        g=st.floats(min_value=0.0, max_value=750.0),
        k=st.integers(min_value=1, max_value=40),
        eu=st.one_of(st.sampled_from([0.0, 1.0]), eps_floats),
        ed=eps_floats,
        d=eps_floats,
    )
    def test_a_result_is_its_named_path(self, g, k, eu, ed, d):
        p = SystemParams(g, k, eu, ed, d)
        paths = {"closed_form": (throughput_closed, bound_closed),
                 "series": (throughput_series, bound_series)}
        r = throughput(p)
        assert repr(r) == repr(paths[r.method][0](p))
        r = bound(g, k, eu)
        assert repr(r) == repr(paths[r.method][1](g, k, eu))

    @given(
        g=st.floats(min_value=0.0, max_value=750.0),
        k=st.integers(min_value=1, max_value=40),
        eu=st.one_of(st.sampled_from([0.0, 1.0]), eps_floats),
        ed=eps_floats,
        d=eps_floats,
    )
    def test_dispatch_is_the_curves_own_estimate(self, g, k, eu, ed, d):
        # the closed form exactly where k <= H_MAX_ORDER and its own
        # estimate at delta = 1 is at most 1e-12
        p = SystemParams(g, k, eu, ed, d)
        closed = k <= H_MAX_ORDER and throughput_closed(
            replace(p, delta=1.0)).est_abs_error <= 1e-12
        assert (throughput(p).method == "closed_form") == closed
        closed = k <= H_MAX_ORDER and bound_closed(
            g, k, eu).est_abs_error <= 1e-12
        assert (bound(g, k, eu).method == "closed_form") == closed
