"""Acceptance gate: every release-blocking check, one per test, each at
its stated tolerance, printing one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The simulator oracle
sweep (criterion 9) dominates the runtime at a few minutes; everything
else finishes in seconds.
"""

import math
import time

from conftest import GRID_EPS_U, bound_grid, full_grid

from relay_aloha import (
    SimConfig,
    SystemParams,
    ancillary_h,
    ancillary_h_oracle,
    bound,
    bound_closed,
    bound_series,
    delta_star_k2,
    optimize_k,
    optimize_load,
    peak_load,
    s_star_k2,
    simulate,
    throughput,
    throughput_closed,
    throughput_series,
)
from relay_aloha.model import _delta_curve
from relay_aloha.optimize import _DELTA_GRID, _grid_then_golden

SEED = 20260808


def report(cid, ok, detail=""):
    print(f"\ncriterion {cid}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def test_c01_classical_slotted_aloha_recovery():
    params = SystemParams(1.0, 1, 0.0, 0.0, 1.0)
    analytic = throughput(params).value
    exact = math.exp(-1)
    t0 = time.perf_counter()
    st = simulate(SimConfig(params=params, n_slots=1_000_000, seed=SEED))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(analytic - exact) < 1e-15
        and abs(st.throughput_estimate - exact) <= 3 * st.ci95_halfwidth
        and elapsed < 5.0
    )
    report(
        1, ok,
        f"analytic={analytic:.10f} sim={st.throughput_estimate:.5f} "
        f"+/-{st.ci95_halfwidth:.5f} (target 1/e={exact:.5f}, "
        f"sim time {elapsed:.2f}s)",
    )


def test_c02_clean_channel_two_relay_optimum():
    ds = delta_star_k2(0.0, 0.0)
    ss = s_star_k2(0.0, 0.0)
    # the generic grid + golden search, without the k = 2 shortcut
    curve = _delta_curve(SystemParams(1.0, 2, 0.0, 0.0, 0.0))
    numeric, _, _ = _grid_then_golden(lambda d: curve(d).value, _DELTA_GRID,
                                      1e-6)
    ok = (
        ds == 0.5
        and abs(ss - 1 / (2 * math.e)) < 1e-15
        and abs(numeric - 0.5) <= 1e-6
    )
    report(
        2, ok,
        f"delta*={ds} s*={ss:.9f} numeric delta*={numeric:.8f}",
    )


def test_c03_bound_limit_at_extreme_uplink_erasure():
    eps_u = 0.98
    g = peak_load(eps_u)
    value = bound(g, 2, eps_u).value
    limit = 1.0 - (1.0 - math.exp(-1)) ** 2
    ok = abs(value - limit) < 0.01
    report(3, ok, f"bound={value:.6f} limit={limit:.6f} "
                  f"|diff|={abs(value - limit):.2e}")


def test_c04_peak_throughput_ordering_two_relays():
    t0 = time.perf_counter()
    peaks = {
        eps: optimize_load(2, eps, eps, 1.0, g_max=8.0).value_star
        for eps in (0.1, 0.3, 0.5)
    }
    low_load = {
        eps: throughput(SystemParams(0.2, 2, eps, eps, 1.0)).value
        for eps in (0.1, 0.3, 0.5)
    }
    elapsed = time.perf_counter() - t0
    ok = (
        peaks[0.3] > peaks[0.5]
        and peaks[0.3] > peaks[0.1]
        and low_load[0.1] < low_load[0.3]
        and low_load[0.1] < low_load[0.5]
        and elapsed < 1.0
    )
    report(
        4, ok,
        "peaks " + " ".join(f"eps={e}:{v:.5f}" for e, v in peaks.items())
        + f"; at g=0.2 " + " ".join(f"{e}:{v:.5f}" for e, v in low_load.items())
        + f" ({elapsed:.2f}s)",
    )


def test_c05_single_relay_crossover_threshold():
    def gap(eps):
        return s_star_k2(eps, eps) - (1.0 - eps) * math.exp(-1)

    grid = [i / 100 for i in range(1, 90)]
    signs = [gap(e) > 0 for e in grid]
    first_pos = signs.index(True)
    single_crossing = all(not s for s in signs[:first_pos]) and all(
        signs[first_pos:]
    )
    lo, hi = grid[first_pos - 1], grid[first_pos]
    for _ in range(60):
        mid = (lo + hi) / 2
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    eps_c = (lo + hi) / 2
    ok = single_crossing and 0.0 < eps_c < 1.0
    report(5, ok, f"two relays beat one above eps_c={eps_c:.6f}")


def test_c06_optimal_relay_count():
    t0 = time.perf_counter()
    results = {
        eps: optimize_k(eps, eps, k_max=10) for eps in (0.1, 0.3, 0.5)
    }
    elapsed = time.perf_counter() - t0
    expected = {0.1: 1, 0.3: 2, 0.5: 4}
    unimodal = True
    for eps, r in results.items():
        ks = r.per_k
        k_star = r.arg_star
        rising = all(
            ks[i] < ks[i + 1] for i in range(k_star - 1)
        )
        falling = all(
            ks[i] > ks[i + 1] for i in range(k_star - 1, len(ks) - 1)
        )
        unimodal = unimodal and rising and falling
    ok = (
        all(results[e].arg_star == expected[e] for e in expected)
        and unimodal
        and elapsed < 10.0
    )
    report(
        6, ok,
        " ".join(f"eps={e}:K*={results[e].arg_star}" for e in expected)
        + f" unimodal={unimodal} ({elapsed:.1f}s)",
    )


def test_c07_closed_form_equals_series_on_the_grid():
    worst = 0.0
    for (g, k, eu, ed, d) in full_grid():
        p = SystemParams(g, k, eu, ed, d)
        diff = abs(
            throughput_closed(p).value - throughput_series(p).value
        )
        worst = max(worst, diff)
    worst_bound = 0.0
    for (g, k, eu) in bound_grid():
        diff = abs(
            bound_closed(g, k, eu).value - bound_series(g, k, eu).value
        )
        worst_bound = max(worst_bound, diff)
    ok = worst < 1e-9 and worst_bound < 1e-10
    report(
        7, ok,
        f"max |closed-series|: throughput {worst:.2e} (<1e-9), "
        f"bound {worst_bound:.2e} (<1e-10) over {len(full_grid())} "
        f"and {len(bound_grid())} points",
    )


def test_c08_h_kernel_recursion_vs_direct_series():
    worst = 0.0
    for m in range(13):
        for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            rec = ancillary_h(m, x)
            ora = ancillary_h_oracle(m, x)
            worst = max(worst, abs(rec - ora) / max(1.0, abs(ora)))
    identities = all(
        abs(ancillary_h(1, x) - x * math.exp(x)) <= 1e-12 * math.exp(x)
        and abs(ancillary_h(2, x) - (x + x * x) * math.exp(x))
        <= 1e-12 * (x + x * x + 1) * math.exp(x)
        for x in (0.3, 1.0, 2.7, 6.5, 10.0)
    )
    ok = worst < 1e-10 and identities
    report(8, ok, f"max rel gap {worst:.2e} over m<=12, x<=10; "
                  f"H1/H2 identities hold={identities}")


def test_c09_simulator_against_analytic_model_on_the_grid():
    t0 = time.perf_counter()
    grid = full_grid()
    failures = []
    # diagnostics only: the pass rule below does not read them
    sim_slots, sim_s = 0, 0.0
    worst_z, worst_p = 0.0, None

    def run(cfg):
        nonlocal sim_slots, sim_s
        t = time.perf_counter()
        st = simulate(cfg)
        sim_s += time.perf_counter() - t
        sim_slots += cfg.warmup_slots + cfg.n_slots
        return st

    for i, (g, k, eu, ed, d) in enumerate(grid):
        p = SystemParams(g, k, eu, ed, d)
        st = run(
            SimConfig(params=p, n_slots=1_000_000, seed=SEED, stream_id=i)
        )
        target = throughput(p).value
        gap = abs(st.throughput_estimate - target)
        if gap > 3 * st.ci95_halfwidth:
            failures.append((i, p, st.throughput_estimate, target))
        z = gap / st.ci95_halfwidth if st.ci95_halfwidth > 0 else (
            0.0 if gap == 0 else math.inf)
        if worst_p is None or z > worst_z:
            worst_z, worst_p = z, (g, k, eu, ed, d)
    pass_rate = 1.0 - len(failures) / len(grid)
    # retry the statistical outliers once at 10x the slots
    persistent = []
    for (i, p, est, target) in failures:
        st = run(
            SimConfig(params=p, n_slots=10_000_000, seed=SEED + 1,
                      stream_id=i)
        )
        if abs(st.throughput_estimate - target) > 3 * st.ci95_halfwidth:
            persistent.append((p, st.throughput_estimate, target))
    elapsed = time.perf_counter() - t0
    ok = pass_rate >= 0.99 and not persistent and elapsed < 300.0
    report(
        9, ok,
        f"{len(grid)} points, pass rate {pass_rate:.4f} (>=0.99), "
        f"{len(failures)} outliers, {len(persistent)} persistent, "
        f"{elapsed:.0f}s (<300s); worst |z| {worst_z:.2f} half-widths at "
        f"(g, k, eps_u, eps_d, delta)={worst_p}; "
        f"{sim_slots / sim_s:.3g} simulated slots/s",
    )


def test_c10_bound_dominance_and_range():
    ok = True
    worst_violation = 0.0
    for (g, k, eu, ed, d) in full_grid():
        p = SystemParams(g, k, eu, ed, d)
        s = throughput(p).value
        sb = bound(g, k, eu).value
        ok = ok and (-1e-12 <= s <= 1.0 + 1e-12)
        ok = ok and (-1e-12 <= sb <= 1.0 + 1e-12)
        ok = ok and (s <= sb + 1e-12)
        worst_violation = max(worst_violation, s - sb)
    for eu in GRID_EPS_U:
        g = peak_load(eu)
        s_best = s_star_k2(eu, eu)
        sb = bound(g, 2, eu).value
        ok = ok and s_best <= sb + 1e-12
    report(
        10, ok,
        f"0 <= S <= S~ <= 1 on every grid point "
        f"(max S - S~ = {worst_violation:.2e})",
    )
