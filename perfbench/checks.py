"""Checks of the program's outputs.

Every function returns a list of problems, empty when the output passes,
so a workload can count a failed operation and say why.  None of them
compares against a stored copy of earlier output: values are checked
against the independent reference in ``reference.py`` or against
properties the method must have.
"""

from __future__ import annotations

import math

# Absolute slack on top of a result's own est_abs_error.  Ordinary
# closed-form results sit near 3e-14 from the reference, series results
# at g ~ 700 up to 5e-13.
SLACK = 1e-12

# Optimizer values may trail the reference's grid maximum by this much.
OPT_TOL = 2e-9


def value(label: str, got: float, est_abs_error: float, ref: float) -> list[str]:
    """A result within its own error estimate, plus SLACK, of the reference."""
    if not math.isfinite(got) or abs(got - ref) > est_abs_error + SLACK:
        return [f"{label}: {got!r} is {abs(got - ref):.3g} from the "
                f"reference {ref!r} (est_abs_error {est_abs_error:.3g})"]
    return []


def ordered(label: str, s: float, s_err: float, sb: float,
            sb_err: float) -> list[str]:
    """0 <= S <= S~ <= 1, each side allowed its errors plus SLACK."""
    tol_s, tol_sb = s_err + SLACK, sb_err + SLACK
    if not (-tol_s <= s and s <= sb + tol_s + tol_sb and sb <= 1.0 + tol_sb):
        return [f"{label}: 0 <= S <= S~ <= 1 fails with S={s!r} S~={sb!r}"]
    return []


def csv_digits(label: str, cell: str, ref: float) -> list[str]:
    """A CSV cell (10 significant digits) equal to the reference up to its
    last printed digit."""
    got = float(cell)
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 9) if ref else 0.0
    if abs(got - ref) > 0.5 * unit * 1.001 + 1e-300:
        return [f"{label}: CSV {cell} != reference {ref!r} to 10 digits"]
    return []


def optimum(label: str, got: float, ref_at_arg: float,
            ref_best: float) -> list[str]:
    """An optimizer value at least the reference's best, and equal to the
    reference at the returned argument."""
    problems = []
    if not got >= ref_best - OPT_TOL:
        problems.append(f"{label}: optimum {got!r} is below the reference "
                        f"maximum {ref_best!r}")
    if not abs(got - ref_at_arg) <= OPT_TOL:
        problems.append(f"{label}: optimum {got!r} != reference "
                        f"{ref_at_arg!r} at the returned argument")
    return problems


def argmax(label: str, got, want) -> list[str]:
    if got != want:
        return [f"{label}: argmax {got!r}, expected {want!r}"]
    return []


def counters(label: str, stats) -> list[str]:
    """Simulator counter invariants: delivered <= sink arrivals <= forwards
    <= decodes in full mode; no downlink traffic in bound mode."""
    d, a = stats.delivered_packets, stats.total_sink_arrivals
    f, c = stats.total_forwards, stats.total_decodes
    if stats.mode == "bound_uplink_only":
        ok = f == 0 and a == 0 and 0 <= d <= min(c, stats.measured_slots)
    else:
        ok = 0 <= d <= a <= f <= c
    if not ok:
        return [f"{label}: counters out of order: delivered={d} "
                f"sink_arrivals={a} forwards={f} decodes={c}"]
    return []


def simulated(label: str, stats, ref: float, width: float = 3.0) -> list[str]:
    """Estimate within ``width`` 95% half-widths of the reference."""
    gap = abs(stats.throughput_estimate - ref)
    if not gap <= width * stats.ci95_halfwidth:
        return [f"{label}: estimate {stats.throughput_estimate!r} is "
                f"{gap:.3g} from the reference {ref!r}, more than {width} "
                f"half-widths of {stats.ci95_halfwidth:.3g}"]
    return []


def oracle_scores(zs: list[float]) -> list[str]:
    """At least 99% of |z| <= 3 and mean z near 0, z in half-widths."""
    inside = sum(1 for z in zs if abs(z) <= 3.0) / len(zs)
    mean = math.fsum(z for z in zs if math.isfinite(z)) / len(zs)
    problems = []
    if inside < 0.99:
        problems.append(f"oracle: only {inside:.4f} of points within 3 "
                        f"half-widths (need 0.99)")
    if not abs(mean) <= 0.1:
        problems.append(f"oracle: mean z-score {mean:.4f} (need |z| <= 0.1)")
    return problems


def trace_records(label: str, stats, outcomes, warmup: int) -> list[str]:
    """Per-slot records of simulate_trace add up to its SimStats counters."""
    n_relays = len(stats.relay_decode_rate)
    window = outcomes[warmup:]
    sums = {
        "total_decodes": sum(sum(o.relays_decoded) for o in outcomes),
        "total_forwards": sum(sum(o.relays_forwarding) for o in outcomes),
        "total_sink_arrivals": sum(o.sink_arrivals for o in outcomes),
        "delivered_packets": sum(o.sink_decoded for o in window),
    }
    problems = [f"{label}: records sum {name}={got}, stats say "
                f"{getattr(stats, name)}"
                for name, got in sums.items() if got != getattr(stats, name)]
    if len(window) != stats.measured_slots:
        problems.append(f"{label}: {len(window)} measured records for "
                        f"{stats.measured_slots} slots")
    for i in range(n_relays):
        hits = sum(o.relays_decoded[i] for o in window)
        if hits / stats.measured_slots != stats.relay_decode_rate[i]:
            problems.append(f"{label}: relay {i} decode rate disagrees")
    for t, o in enumerate(outcomes):
        if any(dec != (arr == 1) for dec, arr in
               zip(o.relays_decoded, o.per_relay_arrivals)) or any(
                fw and not dec for fw, dec in
                zip(o.relays_forwarding, o.relays_decoded)):
            problems.append(f"{label}: slot {t} decode/forward flags "
                            f"disagree with its arrivals")
            break
    return problems


def same_bytes(label: str, first: bytes, again: bytes) -> list[str]:
    if first != again:
        return [f"{label}: CSV bytes differ between two writes"]
    return []
