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
and in closed form as an alternating sum built on the H_m kernels; the
two paths agree to within series truncation error and are cross-checked
against each other and against the simulator in the test suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .kernels import (
    HCache,
    NonConvergenceError,
    SeriesTruncation,
    ancillary_h,
    default_truncation,
    poisson_pmf,
)

# The closed forms carry eps_u**-(l+1) factors whose eps_u -> 0 limits are
# finite but are never taken symbolically; below this floor the series
# paths (exact and limit-free) take over.
EPS_FLOOR = 1e-6

# Past this relay count the alternating closed-form sums shed digits; the
# all-non-negative series paths remain stable for any k.  The cap choice
# is certified against a high-precision evaluation in the test suite.
K_CLOSED_MAX = 20

# exp() overflows just above 709; route larger loads to the series paths.
_G_CLOSED_MAX = 700.0


@dataclass(frozen=True)
class SystemParams:
    """One complete system configuration.

    g: channel load, mean packets per slot on the uplink.
    k: number of relays.
    eps_u: uplink per-packet erasure probability.
    eps_d: downlink per-packet erasure probability.
    delta: probability a decoding relay forwards to the sink.
    """

    g: float
    k: int
    eps_u: float
    eps_d: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.g >= 0.0) or not math.isfinite(self.g):
            raise ValueError(f"g must be finite and >= 0, got {self.g}")
        try:
            if isinstance(self.k, bool):  # an int subclass, but no count
                raise TypeError
            k = operator.index(self.k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {self.k!r}") from None
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)
        for name in ("eps_u", "eps_d", "delta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True, slots=True)
class ThroughputResult:
    """A throughput value plus how it was obtained.

    ``est_abs_error`` is 0 for closed forms, the Poisson tail bound for
    truncated series, and the 95% CI half-width for simulation estimates,
    so results from any path can be compared on equal footing.
    """

    value: float
    method: str  # "closed_form" | "series" | "simulated"
    terms_used: int = 0
    est_abs_error: float = 0.0


def p_decode_uplink(n: int, eps_u: float) -> float:
    """Probability a relay decodes a slot carrying n uplink packets.

    Exactly one of the n packets must survive erasure:
    n (1-eps_u) eps_u^(n-1), with the convention 0^0 = 1 so a lone
    packet on a clean channel decodes with certainty.
    """
    if n == 0:
        return 0.0
    return n * (1.0 - eps_u) * eps_u ** (n - 1)


def q_success_downlink_arrival(n: int, params: SystemParams) -> float:
    """Probability a given relay decodes, forwards, and survives the downlink."""
    return (
        p_decode_uplink(n, params.eps_u)
        * params.delta
        * (1.0 - params.eps_d)
    )


def throughput_sa(g: float, eps_u: float) -> ThroughputResult:
    """Throughput of a single slotted-ALOHA link with erasures.

    Poisson-averaging the single-survivor probability collapses to
    g (1-eps_u) e^(-g (1-eps_u)).
    """
    if not (g >= 0.0):
        raise ValueError(f"g must be non-negative, got {g}")
    if not (0.0 <= eps_u <= 1.0):
        raise ValueError(f"eps_u must be in [0, 1], got {eps_u}")
    ge = g * (1.0 - eps_u)
    return ThroughputResult(ge * math.exp(-ge), "closed_form", terms_used=1)


def throughput_series(
    params: SystemParams, trunc: SeriesTruncation | None = None
) -> ThroughputResult:
    """End-to-end throughput as a truncated Poisson-weighted series.

    S = sum_n P[N=n] * k q_n (1-q_n)^(k-1), where q_n is the per-relay
    probability of a successful downlink arrival.  Each summand is at
    most the Poisson weight, so the reported error bound is the omitted
    Poisson tail.
    """
    if trunc is None:
        trunc = default_truncation(params.g)
    total = 0.0
    cum = 0.0
    k = params.k
    for n in range(trunc.n_max_hard + 1):
        w = poisson_pmf(n, params.g)
        q = q_success_downlink_arrival(n, params)
        total += w * k * q * (1.0 - q) ** (k - 1)
        cum += w
        if n > params.g and w < trunc.tol:
            return ThroughputResult(
                total, "series", terms_used=n + 1,
                est_abs_error=max(0.0, 1.0 - cum),
            )
    raise NonConvergenceError(
        f"series at g={params.g} did not meet tol={trunc.tol} "
        f"within {trunc.n_max_hard} terms"
    )


def bound_series(
    g: float, k: int, eps_u: float, trunc: SeriesTruncation | None = None
) -> ThroughputResult:
    """Upper-bound throughput (some relay decodes) as a truncated series.

    S~ = sum_n P[N=n] * (1 - (1-p_n)^k), valid for every eps_u including
    the endpoints 0 and 1.
    """
    if not (g >= 0.0):
        raise ValueError(f"g must be non-negative, got {g}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0.0 <= eps_u <= 1.0):
        raise ValueError(f"eps_u must be in [0, 1], got {eps_u}")
    if trunc is None:
        trunc = default_truncation(g)
    total = 0.0
    cum = 0.0
    for n in range(trunc.n_max_hard + 1):
        w = poisson_pmf(n, g)
        p = p_decode_uplink(n, eps_u)
        total += w * (1.0 - (1.0 - p) ** k)
        cum += w
        if n > g and w < trunc.tol:
            return ThroughputResult(
                total, "series", terms_used=n + 1,
                est_abs_error=max(0.0, 1.0 - cum),
            )
    raise NonConvergenceError(
        f"series at g={g} did not meet tol={trunc.tol} "
        f"within {trunc.n_max_hard} terms"
    )


def throughput_closed(
    params: SystemParams, cache: HCache | None = None
) -> ThroughputResult:
    """End-to-end throughput in closed form.

    Binomial expansion of (1-q_n)^(k-1) inside the series turns each
    power of n into an H kernel:

        S = sum_{l=0}^{k-1} (-1)^l k C(k-1, l)
            [delta (1-eps_u) (1-eps_d) / eps_u]^(l+1)
            e^-g H_{l+1}(g eps_u^(l+1)).

    Requires eps_u above EPS_FLOOR (the expansion divides by eps_u) and
    k at most K_CLOSED_MAX (the sum alternates); use the series path
    outside that region.
    """
    if params.eps_u <= EPS_FLOOR:
        raise ValueError(
            f"closed form is singular for eps_u <= {EPS_FLOOR} "
            f"(got {params.eps_u}); use throughput_series"
        )
    if params.k > K_CLOSED_MAX:
        raise ValueError(
            f"closed form is unstable for k > {K_CLOSED_MAX} "
            f"(got {params.k}); use throughput_series"
        )
    g, k, eps_u = params.g, params.k, params.eps_u
    beta = params.delta * (1.0 - eps_u) * (1.0 - params.eps_d)
    ratio = beta / eps_u
    exp_g = math.exp(-g)
    terms = []
    for l in range(k):
        h = ancillary_h(l + 1, g * eps_u ** (l + 1), cache)
        terms.append(
            (-1.0) ** l * k * math.comb(k - 1, l) * ratio ** (l + 1) * exp_g * h
        )
    return ThroughputResult(math.fsum(terms), "closed_form", terms_used=k)


def bound_closed(
    g: float, k: int, eps_u: float, cache: HCache | None = None
) -> ThroughputResult:
    """Upper-bound throughput in closed form.

    S~ = 1 - sum_{l=0}^{k} (-1)^l C(k, l) ((1-eps_u)/eps_u)^l
             e^-g H_l(g eps_u^l).

    By construction this is the probability that at least one relay
    decodes in a slot; it does not depend on delta or eps_d, which is why
    neither is a parameter.
    """
    if not (g >= 0.0):
        raise ValueError(f"g must be non-negative, got {g}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0.0 <= eps_u <= 1.0):
        raise ValueError(f"eps_u must be in [0, 1], got {eps_u}")
    if eps_u <= EPS_FLOOR:
        raise ValueError(
            f"closed form is singular for eps_u <= {EPS_FLOOR} "
            f"(got {eps_u}); use bound_series"
        )
    if k > K_CLOSED_MAX:
        raise ValueError(
            f"closed form is unstable for k > {K_CLOSED_MAX} "
            f"(got {k}); use bound_series"
        )
    ratio = (1.0 - eps_u) / eps_u
    exp_g = math.exp(-g)
    terms = []
    for l in range(k + 1):
        h = ancillary_h(l, g * eps_u**l, cache)
        terms.append((-1.0) ** l * math.comb(k, l) * ratio**l * exp_g * h)
    return ThroughputResult(
        1.0 - math.fsum(terms), "closed_form", terms_used=k + 1
    )


def throughput(
    params: SystemParams,
    cache: HCache | None = None,
    trunc: SeriesTruncation | None = None,
) -> ThroughputResult:
    """End-to-end throughput, dispatching to the best evaluation path.

    Closed form wherever it is stable, series otherwise; on the overlap
    region the two agree to well below 1e-9.
    """
    if (
        params.eps_u > EPS_FLOOR
        and params.k <= K_CLOSED_MAX
        and params.g < _G_CLOSED_MAX
    ):
        return throughput_closed(params, cache)
    return throughput_series(params, trunc)


def bound(
    g: float,
    k: int,
    eps_u: float,
    cache: HCache | None = None,
    trunc: SeriesTruncation | None = None,
) -> ThroughputResult:
    """Upper-bound throughput, dispatching like :func:`throughput`."""
    if eps_u > EPS_FLOOR and k <= K_CLOSED_MAX and g < _G_CLOSED_MAX:
        return bound_closed(g, k, eps_u, cache)
    return bound_series(g, k, eps_u, trunc)


def peak_load(eps_u: float) -> float:
    """Load maximizing each relay's individual decode rate: 1/(1-eps_u)."""
    if not (0.0 <= eps_u < 1.0):
        raise ValueError(f"eps_u must be in [0, 1), got {eps_u}")
    return 1.0 / (1.0 - eps_u)


def throughput_k2_at_peak_load(
    eps_u: float, eps_d: float, delta: float
) -> float:
    """Two-relay throughput at g = 1/(1-eps_u), quadratic in delta.

    S = (2 delta (1-eps_d) / e)
        [1 - delta (1-eps_d) (1 - eps_u + eps_u^2) e^-eps_u],

    concave in delta, vanishing at delta = 0.
    """
    if not (0.0 <= eps_u < 1.0):
        raise ValueError(
            f"eps_u must be in [0, 1) for a finite peak load, got {eps_u}"
        )
    if not (0.0 <= eps_d <= 1.0):
        raise ValueError(f"eps_d must be in [0, 1], got {eps_d}")
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    a = delta * (1.0 - eps_d)
    c = (1.0 - eps_u + eps_u * eps_u) * math.exp(-eps_u)
    return (2.0 * a / math.e) * (1.0 - a * c)


def delta_star_k2(eps_u: float, eps_d: float) -> float:
    """Forwarding probability maximizing two-relay throughput at peak load.

    Stationarity of the quadratic gives
    min{1, e^eps_u / (2 (1-eps_d) (1 - eps_u + eps_u^2))}.
    """
    if not (0.0 <= eps_u <= 1.0):
        raise ValueError(f"eps_u must be in [0, 1], got {eps_u}")
    if not (0.0 <= eps_d < 1.0):
        raise ValueError(
            f"the optimum is undefined at eps_d = 1 (throughput is "
            f"identically zero); got eps_d={eps_d}"
        )
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
    ds = delta_star_k2(eps_u, eps_d)
    if ds < 1.0:
        return math.exp(-1.0 + eps_u) / (
            2.0 * (1.0 - eps_u + eps_u * eps_u)
        )
    c = (1.0 - eps_u + eps_u * eps_u) * math.exp(-eps_u)
    return (2.0 * (1.0 - eps_d) / math.e) * (1.0 - (1.0 - eps_d) * c)
