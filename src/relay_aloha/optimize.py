"""Numerical maximization of end-to-end throughput.

Three knobs can be tuned: the forwarding probability delta (for any relay
count), the channel load g, and the relay count k itself.  Throughput as
a function of delta is a degree-k polynomial, and as a function of g it
shows a single dominant peak but unimodality is unproven, so both scalar
searches go coarse-grid-first and only then refine the best bracket by
golden section.  All searches are deterministic.  The two-relay
peak-load closed forms in ``model`` (``delta_star_k2``, ``s_star_k2``)
are references the delta search is tested against; no k is special.

The delta search screens its 101-point grid in one numpy pass
(``screen`` of the curve, built from the same delta-free coefficients
as the exact curve) with a bound ``tol`` on its distance from the exact
values, which each of ``model``'s two screens proves.  Only the grid
points within 2 max(tol) of the screen's maximum are evaluated exactly,
and they hold the first exact maximum, so the search returns the same
bytes as with every point evaluated.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .kernels import G_MAX, integer_arg, real_arg
from .model import SystemParams, _curve, _delta_curve, peak_load

if TYPE_CHECKING:  # annotations only: numpy loads at the first array
    import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

DELTA_GRID_POINTS = 101
LOAD_GRID_POINTS = 400
ARG_TOL = 1e-6
DEFAULT_G_MAX = 8.0
DEFAULT_K_MAX = 32
_DELTA_GRID = tuple(i / (DELTA_GRID_POINTS - 1)
                    for i in range(DELTA_GRID_POINTS))


@functools.cache
def _delta_array() -> np.ndarray:
    """``_DELTA_GRID`` as the array the screens take, built once."""
    import numpy as np
    return np.array(_DELTA_GRID)


@dataclass(frozen=True)
class OptimizationResult:
    """Optimizer output.

    ``arg_star`` is the optimal delta or g (float) or relay count (int);
    ``value_star`` is the throughput there, evaluated through the
    analytic model.  ``per_k`` carries the per-relay-count optima when
    the search was over k, so each entry can be reproduced individually.
    ``arg_tol`` is ``ARG_TOL``, the width every search refines its
    argument to.  ``evaluations`` counts every grid point plus the golden
    section's steps, the delta grid's screened points included.
    """

    arg_star: float | int
    value_star: float
    method: str  # "grid_golden" | "exhaustive_k"
    evaluations: int
    arg_tol: float = field(default=ARG_TOL, init=False)
    per_k: tuple[float, ...] | None = None


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float
) -> tuple[float, float, int]:
    """Golden-section maximization of f on [lo, hi] to width xtol."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    evals = 2
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        evals += 1
    xm = 0.5 * (a + b)
    return xm, f(xm), evals + 1


def _grid_then_golden(
    f: Callable[[float], float], grid: Sequence[float], xtol: float,
    screen: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, int]:
    """Evaluate f on a grid, then refine around the best point.

    The returned value is never below the best grid value, whatever the
    refinement does inside the bracket.  ``screen`` is ``(values, tol)``
    over the grid with |values - f| <= tol at every point: f is then
    evaluated only where values >= max(values) - 2 max(tol), the points
    that can hold f's first grid maximum, so the result is the same.
    """
    points = range(len(grid))
    if screen is not None:
        import numpy as np
        approx, tol = screen
        points = np.flatnonzero(
            approx >= approx.max() - 2.0 * tol.max()).tolist()
    vals = [f(grid[i]) for i in points]
    j = max(range(len(points)), key=vals.__getitem__)  # the first maximum
    best, v_star = points[j], vals[j]
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    evals = len(grid)
    x_star = grid[best]
    if hi - lo > xtol:
        xg, vg, used = _golden_max(f, lo, hi, xtol)
        evals += used
        if vg > v_star:
            x_star, v_star = xg, vg
    return x_star, v_star, evals


def optimize_delta(
    g: float,
    k: int,
    eps_u: float,
    eps_d: float,
) -> OptimizationResult:
    """Maximize throughput over the forwarding probability delta in [0, 1].

    One search for every relay count and load, the same grid + golden
    section as the other knobs.  For two relays at peak load it lands
    within ``ARG_TOL`` of the closed form ``delta_star_k2``.  Every value
    is ``throughput`` at the same delta, bit for bit.
    """
    curve = _delta_curve(SystemParams(g, k, eps_u, eps_d, 0.0))
    d_star, v_star, evals = _grid_then_golden(
        lambda d: curve(d).value, _DELTA_GRID, ARG_TOL,
        curve.screen(_delta_array()),
    )
    return OptimizationResult(d_star, v_star, "grid_golden", evals)


def optimize_load(
    k: int,
    eps_u: float,
    eps_d: float,
    delta: float,
    g_max: float = DEFAULT_G_MAX,
) -> OptimizationResult:
    """Maximize throughput over the channel load g in (0, g_max].

    One geometric grid from 1e-4 min(g_max, 1) to g_max: its floor lies
    below the rising part of S(g) for every g_max.  ``g_max`` must be
    in [2^-1022, G_MAX], 2^-1022 the smallest normal float (below it
    the floor would round to 0), else it is a ValueError.
    """
    import numpy as np
    g_max = real_arg("g_max", g_max, sys.float_info.min, G_MAX)
    grid = np.geomspace(1e-4 * min(g_max, 1.0), g_max,
                        LOAD_GRID_POINTS).tolist()

    p = SystemParams(g_max, k, eps_u, eps_d, delta)  # every grid load fits

    def objective(g: float) -> float:
        return _curve(g, p.k, p.eps_u, p.eps_d, False)(p.delta).value

    g_star, v_star, evals = _grid_then_golden(objective, grid, ARG_TOL)
    return OptimizationResult(g_star, v_star, "grid_golden", evals)


def optimize_k(
    eps_u: float,
    eps_d: float,
    k_max: int = DEFAULT_K_MAX,
    *,
    g: float | None = None,
) -> OptimizationResult:
    """Find the relay count whose delta-optimized throughput is largest.

    ``g=None`` applies the peak-load rule g = 1/(1-eps_u); a float fixes
    the load for every k (``g`` is keyword-only).  Ties break toward
    fewer relays.  ``k_max``, like k, must be an integer in 1..2^53.
    """
    k_max = integer_arg("k_max", k_max, 1, 2**53)
    g_eff = (peak_load(eps_u) if g is None
             else real_arg("g", g, 0.0, G_MAX, open_lo=True))
    runs = [optimize_delta(g_eff, k, eps_u, eps_d)
            for k in range(1, k_max + 1)]
    per_k = tuple(r.value_star for r in runs)
    best = per_k.index(max(per_k))  # the first maximum: fewest relays
    return OptimizationResult(
        best + 1, per_k[best], "exhaustive_k",
        sum(r.evaluations for r in runs), per_k=per_k,
    )
