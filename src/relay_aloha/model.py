"""Exact throughput formulas for the two-tier slotted-ALOHA relay system.

Model: an infinite user population offers Poisson traffic of mean ``g``
packets per slot on a shared uplink observed by ``k`` relays.  Each
packet is erased independently per relay with probability ``eps_u``; a
relay decodes a slot iff exactly one packet survives.  A decoding relay
forwards to the sink in the next slot with probability ``delta`` over a
shared slotted-ALOHA downlink whose packets are erased with probability
``eps_d``; the sink decodes iff exactly one forwarded packet arrives.

End-to-end throughput is the mean number of packets the sink decodes per
slot.  It is available both as a truncated series over the slot occupancy
and in closed form as an alternating sum built on the kernels
e^-g H_m(x) = e^(x-g) T_m(x) (T_m the Touchard polynomial), whose error
estimate measures the cancellation: :func:`throughput` and :func:`bound`
take it where that estimate is at most 1e-12, the series elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (
    _UNIT_ROUNDOFF,
    DEFAULT_TOL,
    G_MAX,
    H_MAX_ORDER,
    integer_arg,
    poisson_table,
    real_arg,
    touchard_over_x,
)

# The dispatch rule: throughput and bound take a closed form when k <=
# H_MAX_ORDER (its Touchard table) and its own rounding estimate is at
# most _DISPATCH_TOL, the series otherwise.
_DISPATCH_TOL = 1e-12

# Weights w_m of the closed-form terms m = 1..k, for each k <= H_MAX_ORDER:
# (-1)^(m+1) C(k, m) in the bound, m times that in the throughput.
_BOUND_WEIGHTS = tuple(
    tuple(float((-1) ** (m + 1) * math.comb(k, m)) for m in range(1, k + 1))
    for k in range(H_MAX_ORDER + 1)
)
_THROUGHPUT_WEIGHTS = tuple(
    tuple(m * w for m, w in enumerate(row, 1)) for row in _BOUND_WEIGHTS
)
_SUBNORMAL_STEP = 2.0**-1074

# The power of the delta-grid screens (``screen`` of a delta curve):
# numpy's, SVML on AVX-512 hosts, within 2 ulp of libm's ``pow``; a name
# of its own so the tests can run the screens on libm's ``pow`` too.
_power = np.power
# The most array cells a series screen holds at once.
_SCREEN_CELLS = 2**15


def _check_uplink(g, k, eps_u) -> tuple[float, int, float]:
    """The one check of (g, k, eps_u): g in [0, G_MAX], an integer k in
    1..2^53 (every formula takes k as a float, exact up to 2^53) and
    eps_u in [0, 1], returned as ``(float, int, float)``."""
    return (real_arg("g", g, 0.0, G_MAX), integer_arg("k", k, 1, 2**53),
            real_arg("eps_u", eps_u, 0.0, 1.0))


@dataclass(frozen=True, slots=True, init=False)
class SystemParams:
    """One complete system configuration.

    g: channel load, mean packets per slot on the uplink.
    k: number of relays.
    eps_u: uplink per-packet erasure probability.
    eps_d: downlink per-packet erasure probability.
    delta: probability a decoding relay forwards to the sink.
    Stored as Python ``float``s and an ``int``, checked in one pass.
    """

    g: float
    k: int
    eps_u: float
    eps_d: float
    delta: float

    def __init__(self, g, k, eps_u, eps_d, delta) -> None:
        g, k, eps_u = _check_uplink(g, k, eps_u)
        put = object.__setattr__
        put(self, "g", g)
        put(self, "k", k)
        put(self, "eps_u", eps_u)
        put(self, "eps_d", real_arg("eps_d", eps_d, 0.0, 1.0))
        put(self, "delta", real_arg("delta", delta, 0.0, 1.0))


@dataclass(frozen=True, slots=True)
class ThroughputResult:
    """A throughput value plus how it was obtained.

    ``est_abs_error`` is the rounding estimate (k + g + 8) 2^-53 sum|t_l|
    over the alternating terms t_l for closed forms, and the omitted
    Poisson mass plus a rounding bound for truncated series, so results
    from either path can be compared on equal footing.
    """

    value: float
    method: str  # "closed_form" | "series"
    terms_used: int = 0
    est_abs_error: float = 0.0


def throughput_sa(g: float, eps_u: float) -> ThroughputResult:
    """Throughput of a single slotted-ALOHA link with erasures.

    Poisson-averaging the single-survivor probability collapses to
    g (1-eps_u) e^(-g (1-eps_u)).
    """
    g, _, eps_u = _check_uplink(g, 1, eps_u)
    ge = g * (1.0 - eps_u)
    return ThroughputResult(ge * math.exp(-ge), "closed_form", terms_used=1)


def _fields(params: SystemParams) -> tuple[float, int, float, float]:
    """(g, k, eps_u, eps_d) of a SystemParams, anything else a ValueError."""
    if not isinstance(params, SystemParams):
        raise ValueError(f"params must be a SystemParams, got {params!r}")
    return params.g, params.k, params.eps_u, params.eps_d


def _decode_table(g: float, eps_u: float,
                  tol: float) -> tuple[int, list[float], list[float], float]:
    """``(lo, weights, p, err)``: ``poisson_table(g, tol)`` and, for the
    series and the simulator alike, the probability p[i] that a relay
    decodes a slot of n = lo + i packets: exactly one survives erasure,
    n (1-eps_u) eps_u^(n-1), with 0^0 = 1 (a lone clean packet decodes)."""
    lo, weights, err = poisson_table(g, tol)
    p = [n * (1.0 - eps_u) * eps_u ** (n - 1) if n else 0.0
         for n in range(lo, lo + len(weights))]
    return lo, weights, p, err


def _series_curve(g: float, k: int, eps_u: float, eps_d: float,
                  bound: bool) -> Callable[[float], ThroughputResult]:
    """The series as a function of delta, its decode table built once.

    Every summand is its weight times a factor in [0, 1] computed to
    within (8k + 4) 2^-53, and the sequential sum adds at most
    len(weights) 2^-53, so the table's L1 error plus
    (len(weights) + 8k + 8) 2^-53 covers the error.
    """
    _, weights, p, err = _decode_table(g, eps_u, DEFAULT_TOL)
    n = len(weights)
    err += (n + 8 * k + 8) * _UNIT_ROUNDOFF
    if bound:  # free of delta: summed once
        s = 0.0
        for w, p_n in zip(weights, p):
            s += w * (1.0 - (1.0 - p_n) ** k)
        return lambda delta: ThroughputResult(s, "series", n, err)
    down = 1.0 - eps_d

    def at(delta: float) -> ThroughputResult:
        s = 0.0
        for w, p_n in zip(weights, p):
            q = p_n * delta * down
            s += w * k * q * (1.0 - q) ** (k - 1)
        return ThroughputResult(s, "series", n, err)

    def screen(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``at(delta).value`` for every delta of an array, by the same
        products in the same order, and a bound on each difference.

        Only the power (within 2 ulp) and the summation order (numpy's
        pairwise sum, not the running one) differ: both sums of the
        non-negative terms are within (n - 1) 2^-53 S of the exact one,
        and each term moves by at most 6 2^-53 of itself plus one
        subnormal step, so (2n + 16) 2^-53 S + (n + 16) 2^-1074 bounds
        the difference.
        """
        wk, pn = np.array(weights) * k, np.array(p)
        s = np.zeros(len(deltas))
        step = max(1, _SCREEN_CELLS // len(deltas))
        for lo in range(0, n, step):  # at most _SCREEN_CELLS cells at once
            q = np.multiply.outer(deltas, pn[lo:lo + step]) * down
            s += (wk[lo:lo + step] * q * _power(1.0 - q, k - 1)).sum(axis=1)
        return s, ((2 * n + 16) * _UNIT_ROUNDOFF * s
                   + (n + 16) * _SUBNORMAL_STEP)

    at.screen = screen
    return at


def _kernel_terms(
    g: float, eps_u: float, weights: tuple[float, ...], r: float
) -> tuple[list[float], float, float]:
    """w_m g e^(x_m - g) T_m(x_m) / x_m, x_m = g eps_u^m, for m = 1..k,
    the sum of their magnitudes times r^m, and the error of the factors
    e^(x_m - g) that are subnormal (only above g of about 708): up to
    2^-1074 each, times |w_m g T_m(x_m) / x_m| r^m (below 2e-34 in all).

    e^-g H_m(x) = e^(x-g) T_m(x), T_m the Touchard polynomial; the
    eps_u^-m of each closed-form term cancels against x_m, leaving these
    times r^m (see :func:`_closed_curve`), and x_m <= g keeps every
    factor finite.
    """
    out = []
    size, power, lost = 0.0, 1.0, 0.0
    for m, c in enumerate(weights, 1):
        p = eps_u**m
        x = g * p
        # p - 1 is exact for p >= 1/2: the exponent keeps one rounding
        e = math.exp(g * (p - 1.0) if p >= 0.5 else x - g)
        a = c * touchard_over_x(m, x) * g
        t = a * e
        power *= r
        size += abs(t) * power
        if e < 2.0**-1022:  # subnormal or 0
            lost += abs(a) * power
        out.append(t)
    return out, size, lost * _SUBNORMAL_STEP


def _closed_curve(
    g: float, k: int, eps_u: float, eps_d: float, bound: bool
) -> tuple[Callable[[float], ThroughputResult], float]:
    """The closed form as a function of delta, its k delta-free
    coefficients computed once, and its error estimate at delta = 1, which
    bounds every delta's (each |t_m| grows like delta^m).

    Both sums are sum_m t_m, t_m = w_m e^-g H_m(g eps_u^m) (r/eps_u)^m
    with r = delta (1-eps_u) (1-eps_d) <= 1.  The terms alternate, so the
    rounding error scales with sum|t_m|: (k + g + 8) 2^-53 sum|t_m| covers
    the powers, the Horner evaluations and exp(x_m - g), whose argument's
    error grows with g.  r^m is taken as mant^m 2^(e m), r = mant 2^e, so
    no power underflows early and a term loses at most ~2^-1075 a step,
    only if subnormal; (k+1)^2 2^-1074 covers that unless r = 0, and
    ``lost`` (from :func:`_kernel_terms`) the subnormal kernels.  For
    e > 0 the power is scaled before the coefficient multiplies it, as a
    product rounded subnormal and scaled up would scale its error too.
    Every term is finite: |t_m| <= m C(k, m) T_m(g) < 1e290 for g <= G_MAX.
    """
    if k > H_MAX_ORDER:  # the Touchard table's order; eps_u may be 0
        raise ValueError(f"closed form needs k <= {H_MAX_ORDER}, got {k}")
    r1 = (1.0 - eps_u) * (1.0 - eps_d)
    weights = (_BOUND_WEIGHTS if bound else _THROUGHPUT_WEIGHTS)[k]
    coeffs, size, lost = _kernel_terms(g, eps_u, weights, r1)
    scale = (k + g + 8) * _UNIT_ROUNDOFF
    subnormal = (k + 1) ** 2 * _SUBNORMAL_STEP + lost
    # r = delta r1; a subnormal delta loses no bits
    mant_s, exp_s = math.frexp(r1)

    def at(delta: float) -> ThroughputResult:
        mant_d, exp_d = math.frexp(delta)
        mant, e = mant_d * mant_s, exp_d + exp_s
        if e > 0:
            terms = [c * math.ldexp(mant**m, e * m)
                     for m, c in enumerate(coeffs, 1)]
        else:
            terms = [math.ldexp(c * mant**m, e * m)
                     for m, c in enumerate(coeffs, 1)]
        err = scale * sum(map(abs, terms))
        if mant:
            err += subnormal
        return ThroughputResult(math.fsum(terms), "closed_form", k, err)

    def screen(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``at(delta).value`` for every delta of an array, by the same
        frexp, products and ldexp, and a bound on each difference.

        Only the power (within 2 ulp) and the sum (numpy's pairwise sum,
        within (k - 1) 2^-53 sum|t_m| of the exact one, where ``fsum`` is
        within 2^-53) differ; each term moves by at most 8 2^-53 |t_m|
        plus two subnormal steps, so (2k + 16) 2^-53 sum|t_m| +
        (k + 1) 2^-1072 bounds the difference.
        """
        ms = np.arange(1, k + 1)
        mant_d, exp_d = np.frexp(deltas)
        mant, e = mant_d * mant_s, exp_d + exp_s
        em = np.multiply.outer(e, ms)
        pw = _power(mant[:, None], ms)
        c = np.array(coeffs)
        terms = np.ldexp(c * pw, em)
        up = e > 0  # scaled before the coefficient, as in ``at``
        if up.any():
            terms[up] = c * np.ldexp(pw[up], em[up])
        return terms.sum(axis=1), (
            (2 * k + 16) * _UNIT_ROUNDOFF * np.abs(terms).sum(axis=1)
            + (k + 1) * 4 * _SUBNORMAL_STEP)

    at.screen = screen
    return at, scale * size + lost


def _curve(g: float, k: int, eps_u: float, eps_d: float,
           bound: bool) -> Callable[[float], ThroughputResult]:
    """Throughput, or with ``bound`` the bound, as a function of delta,
    by the one dispatch rule, decided once per curve: the closed form if
    k <= H_MAX_ORDER and its estimate at delta = 1 is at most
    _DISPATCH_TOL, else the series."""
    if k <= H_MAX_ORDER:
        closed, err = _closed_curve(g, k, eps_u, eps_d, bound)
        if err <= _DISPATCH_TOL:
            return closed
    return _series_curve(g, k, eps_u, eps_d, bound)


def _delta_curve(params: SystemParams) -> Callable[[float], ThroughputResult]:
    """Throughput as a function of delta; ``params.delta`` is ignored."""
    g, k, eps_u, eps_d = _fields(params)  # not starred: ~0.1 us faster
    return _curve(g, k, eps_u, eps_d, False)


def throughput(params: SystemParams) -> ThroughputResult:
    """End-to-end throughput by the closed form where its own error
    estimate is at most 1e-12, by the series otherwise."""
    return _delta_curve(params)(params.delta)


def throughput_series(params: SystemParams) -> ThroughputResult:
    """End-to-end throughput as a truncated Poisson-weighted series.

    S = sum_n P[N=n] * k q_n (1-q_n)^(k-1), where q_n is the per-relay
    probability of a successful downlink arrival, over the counts of
    :func:`~relay_aloha.kernels.poisson_table`; the reported error bound
    is the omitted Poisson mass plus rounding.
    """
    return _series_curve(*_fields(params), False)(params.delta)


def throughput_closed(params: SystemParams) -> ThroughputResult:
    """End-to-end throughput in closed form.

    Binomial expansion of (1-q_n)^(k-1) inside the series turns each
    power of n into an H kernel:

        S = sum_{l=0}^{k-1} (-1)^l k C(k-1, l)
            [delta (1-eps_u) (1-eps_d) / eps_u]^(l+1)
            e^-g H_{l+1}(g eps_u^(l+1)).

    The eps_u^-(l+1) cancels inside the kernels, so any eps_u in [0, 1]
    is valid; k above H_MAX_ORDER is a ValueError.  The sum alternates:
    ``est_abs_error`` reports its cancellation.
    """
    return _closed_curve(*_fields(params), False)[0](params.delta)


def bound(g: float, k: int, eps_u: float) -> ThroughputResult:
    """Upper-bound throughput, dispatching like :func:`throughput`.

    Like every bound function, it takes g in [0, G_MAX], an integer
    (not bool) k >= 1 and eps_u in [0, 1], else raises ValueError.
    """
    g, k, eps_u = _check_uplink(g, k, eps_u)
    return _curve(g, k, eps_u, 0.0, True)(1.0)


def bound_series(g: float, k: int, eps_u: float) -> ThroughputResult:
    """Upper-bound throughput (some relay decodes) as a truncated series.

    S~ = sum_n P[N=n] * (1 - (1-p_n)^k), valid for every eps_u including
    the endpoints 0 and 1.
    """
    return _series_curve(*_check_uplink(g, k, eps_u), 0.0, True)(1.0)


def bound_closed(g: float, k: int, eps_u: float) -> ThroughputResult:
    """Upper-bound throughput in closed form.

    S~ = 1 - sum_{l=0}^{k} (-1)^l C(k, l) ((1-eps_u)/eps_u)^l
             e^-g H_l(g eps_u^l).

    By construction this is the probability that at least one relay
    decodes in a slot; it does not depend on delta or eps_d, which is why
    neither is a parameter.  The l = 0 term is 1 and cancels exactly, so
    k terms are summed.  Like :func:`throughput_closed`, it takes any
    eps_u in [0, 1] and k up to H_MAX_ORDER.
    """
    return _closed_curve(*_check_uplink(g, k, eps_u), 0.0, True)[0](1.0)


def peak_load(eps_u: float) -> float:
    """Load maximizing each relay's individual decode rate: 1/(1-eps_u)."""
    return 1.0 / (1.0 - real_arg("eps_u", eps_u, 0.0, 1.0, open_hi=True))


def throughput_k2_at_peak_load(
    eps_u: float, eps_d: float, delta: float
) -> float:
    """Two-relay throughput at g = 1/(1-eps_u), quadratic in delta.

    S = (2 delta (1-eps_d) / e)
        [1 - delta (1-eps_d) (1 - eps_u + eps_u^2) e^-eps_u],

    concave in delta, vanishing at delta = 0.
    """
    eps_u = real_arg("eps_u", eps_u, 0.0, 1.0, open_hi=True)  # g finite
    eps_d = real_arg("eps_d", eps_d, 0.0, 1.0)
    delta = real_arg("delta", delta, 0.0, 1.0)
    a = delta * (1.0 - eps_d)
    c = (1.0 - eps_u + eps_u * eps_u) * math.exp(-eps_u)
    return (2.0 * a / math.e) * (1.0 - a * c)


def delta_star_k2(eps_u: float, eps_d: float) -> float:
    """Forwarding probability maximizing two-relay throughput at peak load.

    Stationarity of the quadratic gives
    min{1, e^eps_u / (2 (1-eps_d) (1 - eps_u + eps_u^2))}.
    """
    eps_u = real_arg("eps_u", eps_u, 0.0, 1.0)
    # at eps_d = 1 the throughput is identically zero: no optimum
    eps_d = real_arg("eps_d", eps_d, 0.0, 1.0, open_hi=True)
    return min(
        1.0,
        math.exp(eps_u)
        / (2.0 * (1.0 - eps_d) * (1.0 - eps_u + eps_u * eps_u)),
    )


def s_star_k2(eps_u: float, eps_d: float) -> float:
    """Optimal two-relay throughput at peak load.

    Piecewise in which branch of delta_star applies:
    e^(eps_u - 1) / (2 (1 - eps_u + eps_u^2)) at an interior optimum,
    the quadratic evaluated at delta = 1 otherwise.
    """
    return throughput_k2_at_peak_load(eps_u, eps_d,
                                      delta_star_k2(eps_u, eps_d))
