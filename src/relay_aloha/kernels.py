"""Scalar numeric kernels shared by the analytic throughput model.

Everything in :mod:`relay_aloha.model` is assembled from two ingredients:
the weighted exponential sums H_m(x) = sum_{n>=0} x^n n^m / n! (through
Touchard polynomials), with a brute-force series evaluator of H_m as an
independent cross-check, and one table of Poisson probabilities, which
the simulator's occupancy draw uses too.
"""

from __future__ import annotations

import math
import numbers
import operator

DEFAULT_TOL = 1e-14

# The largest load accepted: a Poisson table at G_MAX holds about 5e5
# entries (its width grows like sqrt(g)).
G_MAX = 1e9

_UNIT_ROUNDOFF = 2.0**-53


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


def integer_arg(name: str, value: object, lo: int,
                hi: int | None = None) -> int:
    """``value`` as an ``int`` in lo..hi (None: no limit), through
    ``operator.index`` (numpy integers pass); a float, a string, a bool
    (an int, but no count) or a value out of range is a ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if lo <= v and (hi is None or v <= hi):
        return v
    limits = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise ValueError(f"{name} must be {limits}, got {v}")


def real_arg(name: str, value: object, lo: float, hi: float,
             open_lo: bool = False, open_hi: bool = False) -> float:
    """``value`` as a ``float`` in [lo, hi], either end open if asked.

    Any real number (int, numpy scalar, Fraction) is converted, so float32
    inputs are computed in float64; str, bytes, None, complex, bool, NaN
    or a value out of range is a ValueError."""
    v = value
    if type(v) is not float:  # the common case skips the ABC check
        try:
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            v = float(v) if real else math.nan
        except OverflowError:  # an int past the float range
            v = math.nan
    if (lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi):
        return v
    raise ValueError(f"{name} must be finite and in {'(' if open_lo else '['}"
                     f"{lo:g}, {hi:g}{')' if open_hi else ']'}, got {value!r}")


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
    m = integer_arg("order m", m, 0, H_MAX_ORDER)
    x = real_arg("x", x, 0.0, math.inf, open_hi=True)
    try:
        h = math.exp(x) * (x * touchard_over_x(m, x) if m else 1.0)
    except OverflowError:
        h = math.inf
    if h == math.inf:
        raise ValueError(f"H_{m}({x}) exceeds the float range")
    return h


def ancillary_h_oracle(m: int, x: float) -> float:
    """Direct partial sum of x^n n^m / n!, the slow reference for H_m.

    Terms are accumulated up to the first one past the sequence's
    maximum, past n = x and at most 2^-53 of the running sum; the terms
    are log-concave in n and go to 0, so the sum always ends.  It takes
    the orders :func:`ancillary_h` takes, and a sum past the float range
    is a ValueError.  Independent of the Touchard form by construction.
    """
    m = integer_arg("order m", m, 0, H_MAX_ORDER)
    x = real_arg("x", x, 0.0, math.inf, open_hi=True)
    total = 0.0
    weight = 1.0  # x^n / n!
    prev = math.inf
    n = 0
    while True:
        term = weight * float(n) ** m if n > 0 else (1.0 if m == 0 else 0.0)
        total += term
        if total == math.inf:  # x^n / n! or a term overflowed
            raise ValueError(f"H_{m}({x}) exceeds the float range")
        if n > x and term <= prev and term <= _UNIT_ROUNDOFF * total:
            return total
        prev = term
        n += 1
        weight *= x / n


def poisson_table(g: float, tol: float) -> tuple[int, list[float], float]:
    """P[N = n] for N Poisson with mean g, over the counts n = lo, lo+1, ...

    The weights run by the ratio recurrence outward from the mode
    m = floor(g) (Fox & Glynn, "Computing Poisson probabilities", CACM
    31(4), 1988): up through the first n > g, and down through the first
    n < m (or to 0), where both P[N = n] and the mass beyond n (bounded
    by a geometric series from P[N = n]) are below ``tol``; their
    ``fsum`` normalises them.

    Returns ``(lo, weights, err)``.  ``err`` bounds the L1 distance
    sum_n |weights[n - lo] - P[N = n]| over all n, so it bounds the
    error of any table average of a function with values in [0, 1]: twice
    the omitted mass (once left out, once spread over the table by the
    normalisation) plus the rounding, 2 roundings per step from the
    mode summed against the weights, at most (4 sqrt(g + 1) + 2) 2^-53.
    A load outside [0, G_MAX] is a ValueError.
    """
    g = real_arg("g", g, 0.0, G_MAX)
    tol = real_arg("tol", tol, 0.0, math.inf, open_lo=True, open_hi=True)
    m = int(g)
    # P[N = m] only places the cut-offs, so its log-domain rounding is
    # harmless: the weights below are relative to the mode's
    log_pm = -g if m == 0 else m * math.log(g) - g - math.lgamma(m + 1)
    cut = tol * math.exp(-log_pm)
    # above n the ratios are at most g / (n + 1), below it at most n / g
    up, x, hi = [], 1.0, m
    while True:
        hi += 1
        x *= g / hi
        up.append(x)
        if x < cut and x * g < cut * (hi + 1 - g):
            break
    down, x, lo = [], 1.0, m
    while lo > 0:
        x *= lo / g
        lo -= 1
        down.append(x)
        if x < cut and x * lo < cut * (g - lo):
            break
    down.reverse()
    down.append(1.0)
    down += up
    total = math.fsum(down)
    weights = [v / total for v in down]
    omitted = weights[-1] * g / (hi + 1 - g)
    if lo:
        omitted += weights[0] * lo / (g - lo)
    err = 2.0 * omitted + (4.0 * math.sqrt(g + 1.0) + 2.0) * _UNIT_ROUNDOFF
    return lo, weights, err
