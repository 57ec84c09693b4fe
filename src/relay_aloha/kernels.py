"""Scalar numeric kernels shared by the analytic throughput model.

Everything in :mod:`relay_aloha.model` is assembled from three ingredients:
the weighted exponential sums H_m(x) = sum_{n>=0} x^n n^m / n! (through
Touchard polynomials), Poisson probabilities, and binomial coefficients,
with a brute-force series evaluator of H_m as an independent cross-check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

DEFAULT_TOL = 1e-14

# Binomial coefficients up to this n are converted from exact integers, so
# small alternating sums carry no rounding noise from the coefficients.
_EXACT_COMB_MAX_N = 1000


class NonConvergenceError(RuntimeError):
    """A truncated series hit its hard cap before meeting the tolerance."""


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation policy for the infinite sums over the slot occupancy n.

    ``tol`` is an absolute bound on the first omitted term, ``n_max_hard``
    the largest summation index ever attempted.
    """

    tol: float = DEFAULT_TOL
    n_max_hard: int = 200

    def __post_init__(self) -> None:
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.n_max_hard < 1:
            raise ValueError(f"n_max_hard must be >= 1, got {self.n_max_hard}")


def default_truncation(g: float, tol: float = DEFAULT_TOL) -> SeriesTruncation:
    """Truncation for Poisson-weighted sums at mean occupancy ``g``.

    The cap leaves a dozen standard deviations of headroom past the mean,
    so the omitted tail is far below ``tol`` whenever the cap is reached
    through the normal stopping rule.
    """
    if g < 0.0:
        raise ValueError(f"g must be non-negative, got {g}")
    hard = max(200, math.ceil(g + 12.0 * math.sqrt(g) + 50.0))
    return SeriesTruncation(tol=tol, n_max_hard=hard)


def _stirling_rows(m_max: int) -> list[list[int]]:
    """Rows m = 0..m_max of the Stirling numbers of the second kind,
    S(m, j) = j S(m-1, j) + S(m-1, j-1) for j = 0..m, in exact integers."""
    rows = [[1]]
    for m in range(1, m_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, m + 1)])
    return rows


# The highest order of H_m (and of the Touchard polynomial T_m) provided.
H_MAX_ORDER = 32

# Row m >= 1: the coefficients of T_m(x) / x = sum_{j>=1} S(m, j) x^(j-1),
# highest power first, as floats for Horner.
_TOUCHARD_OVER_X = tuple(
    tuple(float(c) for c in reversed(row[1:]))
    for row in _stirling_rows(H_MAX_ORDER)
)


def integer_arg(name: str, value: object) -> int:
    """``value`` through ``operator.index`` (numpy integers pass); a float,
    a string or a bool (an int, but no count) is a ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def touchard_over_x(m: int, x: float) -> float:
    """T_m(x) / x for the Touchard polynomial T_m(x) = sum_j S(m, j) x^j.

    A polynomial for m = 1..H_MAX_ORDER (unchecked: the closed forms'
    hot path), by Horner; its coefficients are non-negative and
    S(m, 1) = 1, so for x >= 0 it is >= 1 and accurate to a few ulps.
    """
    t = 0.0
    for c in _TOUCHARD_OVER_X[m]:
        t = t * x + c
    return t


def ancillary_h(m: int, x: float) -> float:
    """H_m(x) = sum_{n>=0} x^n n^m / n! = e^x T_m(x).

    The identity follows from n^m = sum_j S(m, j) n(n-1)...(n-j+1) and
    sum_n x^n / (n-j)! = x^j e^x (checked against
    :func:`ancillary_h_oracle` in the test suite).  Orders above
    H_MAX_ORDER and values past the float range (x above about 709)
    are a ValueError.
    """
    m = integer_arg("order m", m)
    if not 0 <= m <= H_MAX_ORDER:
        raise ValueError(f"order m must be in 0..{H_MAX_ORDER}, got {m}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be finite and non-negative, got {x}")
    try:
        h = math.exp(x) * (x * touchard_over_x(m, x) if m else 1.0)
    except OverflowError:
        h = math.inf
    if h == math.inf:
        raise ValueError(f"H_{m}({x}) exceeds the float range")
    return h


def ancillary_h_oracle(
    m: int, x: float, trunc: SeriesTruncation | None = None
) -> float:
    """Direct partial sum of x^n n^m / n!, the slow reference for H_m.

    Terms are accumulated until the sequence is past its maximum and the
    first omitted term is below ``trunc.tol``.  Independent of the
    Touchard form in :func:`ancillary_h` by construction.
    """
    if m < 0:
        raise ValueError(f"order m must be non-negative, got {m}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be finite and non-negative, got {x}")
    if trunc is None:
        trunc = default_truncation(x + m)
    total = 0.0
    weight = 1.0  # x^n / n!
    prev = math.inf
    n = 0
    while n <= trunc.n_max_hard:
        term = weight * float(n) ** m if n > 0 else (1.0 if m == 0 else 0.0)
        total += term
        if n >= 1 and term < trunc.tol and term <= prev and n > x:
            return total
        prev = term
        n += 1
        weight *= x / n
    raise NonConvergenceError(
        f"H_{m}({x}) series did not meet tol={trunc.tol} "
        f"within {trunc.n_max_hard} terms"
    )


def poisson_pmf(n: int, g: float) -> float:
    """P[N = n] for N Poisson with mean g, i.e. g^n e^-g / n!.

    Evaluated directly for small n and in the log domain otherwise, so
    large counts neither overflow nor underflow prematurely.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not (g >= 0.0):
        raise ValueError(f"g must be non-negative, got {g}")
    if g == 0.0:
        return 1.0 if n == 0 else 0.0
    if n < 30 and g < 500.0:
        return g**n * math.exp(-g) / math.factorial(n)
    return math.exp(n * math.log(g) - g - math.lgamma(n + 1))


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k).  Exact-integer path for every n this package uses."""
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be non-negative, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"k must not exceed n, got n={n}, k={k}")
    if n <= _EXACT_COMB_MAX_N:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
