"""Independent reference values for the end-to-end throughput S and its
upper bound S~, written without importing ``relay_aloha``.

Both quantities are Poisson(g)-weighted averages of a per-occupancy
success probability:

    S  = sum_n P[N=n] * k q_n (1 - q_n)^(k-1),
         q_n = n (1-eps_u) eps_u^(n-1) * delta (1-eps_d);
    S~ = sum_n P[N=n] * (1 - (1 - p_n)^k),
         p_n = n (1-eps_u) eps_u^(n-1).

Every summand is non-negative and is formed in the log domain, so there
is no cancellation to lose digits to.  The Poisson weights are built
outward from the mode by adding log(g/n) steps, which are small near the
bulk of the mass, and are then normalised to sum to one; this keeps the
relative error near a few ulps even at g ~ 700, where a direct
``n log g - g - lgamma(n+1)`` loses about 1e-13.  Weights below e^-80 of
the mode's are dropped; their total is far below one ulp of the result.

The module also carries the two textbook special cases the sums must
reduce to (checked by ``self_check``) and ``closed_form_scale``, which
sizes the alternating closed-form sums the program evaluates, so a
workload can tell ill-conditioned points apart without running the
program.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_LOG_CUT = 80.0


@functools.lru_cache(maxsize=4096)
def _poisson(g: float) -> tuple[np.ndarray, np.ndarray]:
    """(n values, log P[N=n]) covering all but a e^-80 share of Poisson(g)."""
    if g == 0.0:
        return np.zeros(1), np.zeros(1)
    mode = int(math.floor(g))
    up, n, acc = [0.0], mode, 0.0
    while acc > -_LOG_CUT:
        n += 1
        acc += math.log(g / n)
        up.append(acc)
    down, n, acc = [], mode, 0.0
    while n > 0 and acc > -_LOG_CUT:
        acc += math.log(n / g)
        n -= 1
        down.append(acc)
    logs = np.array(down[::-1] + up)
    logs -= math.log(math.fsum(np.exp(logs)))
    ns = np.arange(mode - len(down), mode - len(down) + len(logs),
                   dtype=np.float64)
    return ns, logs


def _log_p_decode(ns: np.ndarray, eps_u: float) -> np.ndarray:
    """log of n (1-eps_u) eps_u^(n-1), with 0^0 = 1 and log 0 = -inf."""
    if eps_u >= 1.0:
        return np.full(ns.shape, -np.inf)
    log_eps = math.log(eps_u) if eps_u > 0.0 else -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        pow_part = np.where(ns <= 1.0, 0.0, (ns - 1.0) * log_eps)
        return np.log(ns) + math.log1p(-eps_u) + pow_part


def throughput_ref(g: float, k: int, eps_u: float, eps_d: float, delta):
    """Reference S; ``delta`` may be a float or a 1-D array of values."""
    ns, logw = _poisson(float(g))
    d = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = _log_p_decode(ns, eps_u)
        log_a = log_a + (math.log1p(-eps_d) if eps_d < 1.0 else -np.inf)
        log_q = log_a[:, None] + np.log(d)[None, :]
        q = np.exp(log_q)
        log_rest = (k - 1) * np.log1p(-q) if k > 1 else 0.0
        log_terms = logw[:, None] + math.log(k) + log_q + log_rest
    s = np.exp(log_terms).sum(axis=0)
    return float(s[0]) if np.ndim(delta) == 0 else s


def bound_ref(g: float, k: int, eps_u: float) -> float:
    """Reference S~ (probability that at least one relay decodes)."""
    ns, logw = _poisson(float(g))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.exp(_log_p_decode(ns, eps_u))
        some = -np.expm1(k * np.log1p(-p))
    return float(np.sum(np.exp(logw) * some))


def throughput_k1(g: float, eps_u: float, eps_d: float, delta: float) -> float:
    """k=1: delta (1-eps_d) g (1-eps_u) e^(-g (1-eps_u))."""
    ge = g * (1.0 - eps_u)
    return delta * (1.0 - eps_d) * ge * math.exp(-ge)


def throughput_k2_peak(eps_u: float, eps_d: float, delta: float) -> float:
    """k=2 at g = 1/(1-eps_u): a quadratic in a = delta (1-eps_d),
    (2a/e) [1 - a (1 - eps_u + eps_u^2) e^(-eps_u)]."""
    a = delta * (1.0 - eps_d)
    return (2.0 * a / math.e) * (
        1.0 - a * (1.0 - eps_u + eps_u * eps_u) * math.exp(-eps_u))


@functools.lru_cache(maxsize=8)
def _log_factorials(top: int) -> np.ndarray:
    """log n! for n = 0..top."""
    return np.array([math.lgamma(n + 1.0) for n in range(top + 1)])


def _log_h(orders: list[int], xs: list[float]) -> np.ndarray:
    """log H_m(x) = log sum_n x^n n^m / n! for each (m, x) pair."""
    out = np.full(len(orders), -np.inf)
    live = [i for i, x in enumerate(xs) if x > 0.0]
    for i, (m, x) in enumerate(zip(orders, xs)):
        if x == 0.0 and m == 0:
            out[i] = 0.0
    if not live:
        return out
    reach = max(xs[i] + orders[i] for i in live)
    top = 1 << int(reach + 20.0 * math.sqrt(reach) + 100.0).bit_length()
    ns = np.arange(top + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_ns = np.log(ns)
    m = np.array([orders[i] for i in live], dtype=np.float64)[:, None]
    x = np.array([xs[i] for i in live])[:, None]
    with np.errstate(invalid="ignore"):
        logs = ns * np.log(x) + np.where(m == 0.0, 0.0, m * log_ns)
    logs = logs - _log_factorials(top)
    peak = logs.max(axis=1, keepdims=True)
    out[live] = (peak + np.log(np.exp(logs - peak).sum(axis=1,
                                                       keepdims=True)))[:, 0]
    return out


def closed_form_scale(g: float, k: int, eps_u: float, eps_d: float,
                      delta: float, bound: bool) -> tuple[float, float]:
    """(largest log H_m(x) used, sum of |terms|) of the alternating
    closed form for S (``bound=False``) or S~ (``bound=True``).

    The closed forms are

        S  = sum_{m=1..k} (-1)^(m-1) k C(k-1, m-1) (beta/eps_u)^m e^-g
                          H_m(g eps_u^m),   beta = delta (1-eps_u) (1-eps_d);
        S~ = 1 - sum_{m=0..k} (-1)^m C(k, m) ((1-eps_u)/eps_u)^m e^-g
                          H_m(g eps_u^m).

    A float evaluation of them overflows once some H_m(x) passes
    ~1.8e308 (log 709.78), and rounds to an absolute error of order
    (k + g) * 2^-53 * sum|terms|: k from the sum and the H_m recursion,
    g from rounding the arguments of exp.  Requires 0 < eps_u < 1.
    """
    if bound:
        orders = list(range(0, k + 1))
        log_coef = [math.log(math.comb(k, m)) for m in orders]
        log_ratio = math.log1p(-eps_u) - math.log(eps_u)
    else:
        orders = list(range(1, k + 1))
        log_coef = [math.log(k * math.comb(k - 1, m - 1)) for m in orders]
        beta = delta * (1.0 - eps_u) * (1.0 - eps_d)
        if beta == 0.0:
            return -math.inf, 0.0
        log_ratio = math.log(beta) - math.log(eps_u)
    log_h = _log_h(orders, [g * eps_u**m for m in orders])
    logs = np.array(log_coef) + np.array(orders) * log_ratio - g + log_h
    peak = float(logs.max())
    if peak == -math.inf:
        return float(log_h.max()), 0.0
    return float(log_h.max()), math.exp(peak) * float(np.exp(logs - peak).sum())


def max_over_delta(g: float, k: int, eps_u: float, eps_d: float,
                   points: int = 2001) -> tuple[float, float]:
    """(delta, S) maximising the reference S over a delta grid on [0, 1],
    refined once on a 201-point grid around the best coarse point."""
    coarse = np.linspace(0.0, 1.0, points)
    s = throughput_ref(g, k, eps_u, eps_d, coarse)
    i = int(np.argmax(s))
    step = 1.0 / (points - 1)
    fine = np.clip(np.linspace(coarse[i] - step, coarse[i] + step, 201),
                   0.0, 1.0)
    sf = throughput_ref(g, k, eps_u, eps_d, fine)
    j = int(np.argmax(sf))
    return float(fine[j]), float(sf[j])


def self_check() -> list[str]:
    """Special cases the reference must reproduce; returns failures."""
    bad = []
    for g in (0.0, 0.1, 1.0, 3.7, 40.0, 650.0):
        for eu in (0.0, 0.3, 0.9, 0.999):
            for ed, d in ((0.0, 1.0), (0.4, 0.35)):
                got = throughput_ref(g, 1, eu, ed, d)
                want = throughput_k1(g, eu, ed, d)
                if abs(got - want) > 1e-14 * max(1.0, abs(want)):
                    bad.append(f"k=1 at {(g, eu, ed, d)}: {got!r} != {want!r}")
    for eu in (0.0, 0.05, 0.3, 0.5, 0.9):
        for ed, d in ((0.0, 1.0), (0.3, 0.5), (0.7, 0.1)):
            got = throughput_ref(1.0 / (1.0 - eu), 2, eu, ed, d)
            want = throughput_k2_peak(eu, ed, d)
            if abs(got - want) > 1e-14:
                bad.append(f"k=2 peak at {(eu, ed, d)}: {got!r} != {want!r}")
    for g in (0.25, 2.0, 30.0):
        for k in (1, 3, 8, 32):
            for eu in (0.0, 0.3, 0.95):
                s = throughput_ref(g, k, eu, 0.2, 0.8)
                sb = bound_ref(g, k, eu)
                if not (0.0 <= s <= sb + 1e-15 and sb <= 1.0 + 1e-15):
                    bad.append(f"0 <= S <= S~ <= 1 fails at {(g, k, eu)}: "
                               f"S={s!r} S~={sb!r}")
    return bad
