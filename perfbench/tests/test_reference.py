"""The reference against exact decimal sums, its special cases, and the
conditioning filter that keeps seed-dependent faults out of the grid."""

from decimal import Decimal, getcontext

import pytest

import reference as ref
import workloads


def decimal_sums(g, k, eu, ed, d):
    """S and S~ as 60-digit decimal Poisson sums."""
    getcontext().prec = 60
    g, eu, ed, d = (Decimal(repr(v)) for v in (g, eu, ed, d))
    s = sb = Decimal(0)
    w, n = (-g).exp(), 0
    while n <= g or w > Decimal("1e-45"):
        if n >= 1:
            p = Decimal(1) if (eu == 0 and n == 1) else n * (1 - eu) * eu ** (n - 1)
            q = p * d * (1 - ed)
            s += w * k * q * (1 - q) ** (k - 1)
            sb += w * (1 - (1 - p) ** k)
        n += 1
        w = w * g / n
    return float(s), float(sb)


@pytest.mark.parametrize("point", [
    (0.5, 20, 1e-3, 0.0, 1.0), (650.0, 12, 0.999, 0.0, 1.0),
    (699.0, 3, 0.99, 0.3, 0.5), (2.0, 8, 0.3, 0.3, 0.5),
    (1.0, 2, 0.0, 0.0, 1.0), (40.0, 32, 0.95, 0.7, 0.1),
])
def test_reference_matches_decimal_sums(point):
    s, sb = decimal_sums(*point)
    assert abs(ref.throughput_ref(*point) - s) <= 1e-15
    assert abs(ref.bound_ref(*point[:3]) - sb) <= 1e-15


def test_special_cases_hold():
    assert ref.self_check() == []


def test_fault_points_are_ill_conditioned_and_the_grid_is_not():
    for kind, p in workloads.FAULTS:
        point = p if kind == "S" else p + (0.0, 1.0)
        assert workloads.ill_conditioned(*point)
    assert not any(workloads.ill_conditioned(*p) for p in workloads.FULL_GRID)


def test_grid_sample_is_seeded_and_clean():
    a = workloads.grid_sample(7, 40)
    assert a == workloads.grid_sample(7, 40)
    assert a != workloads.grid_sample(8, 40)
    assert len(a) == 40
    assert not any(workloads.ill_conditioned(*p) for p in a)
    assert all(0 <= p[0] <= 700 and 1 <= p[1] <= 32 and 0 <= p[2] <= 0.999
               for p in a)
