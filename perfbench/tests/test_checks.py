"""Each check passes on the program's real output and fails once that
output is perturbed, so a wrong answer cannot pass unseen."""

import dataclasses
import math

import pytest

import checks
import reference as ref
import relay_aloha as ra
import relay_aloha.cli  # noqa: F401  (bound as ra.cli)
import workloads


def test_value_catches_a_wrong_s():
    p = (2.0, 8, 0.3, 0.3, 0.5)
    r = ra.throughput(ra.SystemParams(*p))
    want = ref.throughput_ref(*p)
    assert checks.value("S", r.value, r.est_abs_error, want) == []
    assert checks.value("S", r.value + 1e-9, r.est_abs_error, want)
    assert checks.value("S", math.nan, r.est_abs_error, want)


def test_ordered_catches_s_above_its_bound():
    assert checks.ordered("p", 0.2, 0.0, 0.3, 0.0) == []
    assert checks.ordered("p", 0.3 + 1e-9, 0.0, 0.3, 0.0)
    assert checks.ordered("p", 0.2, 0.0, 1.0 + 1e-9, 0.0)


def test_optimum_and_argmax_catch_a_wrong_argmax():
    g, k, eps = 1 / 0.7, 8, 0.3
    r = ra.optimize_delta(g, k, eps, eps)
    best = ref.max_over_delta(g, k, eps, eps)[1]
    at = ref.throughput_ref(g, k, eps, eps, float(r.arg_star))
    assert checks.optimum("d", r.value_star, at, best) == []
    moved = ref.throughput_ref(g, k, eps, eps, float(r.arg_star) + 0.05)
    assert checks.optimum("d", r.value_star, moved, best)
    assert checks.optimum("d", moved, moved, best)
    rk = ra.optimize_k(0.5, 0.5, k_max=10)
    assert checks.argmax("k", rk.arg_star, 4) == []
    assert checks.argmax("k", rk.arg_star + 1, 4)


def test_counters_catch_a_broken_invariant():
    cfg = ra.SimConfig(params=ra.SystemParams(2.0, 4, 0.3, 0.3, 0.5),
                       n_slots=20_000, seed=3)
    st = ra.simulate(cfg)
    assert checks.counters("sim", st) == []
    assert checks.simulated("sim", st, ref.throughput_ref(2.0, 4, 0.3, 0.3, 0.5)) == []
    bad = dataclasses.replace(st, total_forwards=st.total_sink_arrivals - 1)
    assert checks.counters("sim", bad)
    off = dataclasses.replace(
        st, throughput_estimate=st.throughput_estimate + 4 * st.ci95_halfwidth)
    assert checks.simulated("sim", off, ref.throughput_ref(2.0, 4, 0.3, 0.3, 0.5))
    bound_mode = ra.simulate(dataclasses.replace(cfg, mode=ra.MODE_BOUND))
    assert checks.counters("sim", bound_mode) == []
    assert checks.counters("sim", dataclasses.replace(bound_mode, total_forwards=1))


def test_trace_records_catch_a_changed_record():
    cfg = ra.SimConfig(params=ra.SystemParams(2.0, 3, 0.3, 0.3, 0.5),
                       n_slots=500, warmup_slots=10, seed=5)
    st, records = ra.simulate_trace(cfg)
    assert checks.trace_records("t", st, records, 10) == []
    i = next(t for t, o in enumerate(records) if o.sink_arrivals == 0)
    bad = list(records)
    bad[i] = dataclasses.replace(records[i], sink_arrivals=1)
    assert checks.trace_records("t", st, bad, 10)
    j = next(t for t, o in enumerate(records) if t >= 10 and not any(o.relays_decoded))
    flags = (True,) + records[j].relays_decoded[1:]
    bad = list(records)
    bad[j] = dataclasses.replace(records[j], relays_decoded=flags)
    assert checks.trace_records("t", st, bad, 10)


def test_oracle_scores_catch_outliers_and_bias():
    ok = [(-1) ** i * 0.5 for i in range(1000)]
    assert checks.oracle_scores(ok) == []
    assert checks.oracle_scores(ok[:-20] + [4.0] * 20)
    assert checks.oracle_scores([z + 0.2 for z in ok])


def test_figure_checks_catch_a_changed_byte(tmp_path):
    out = tmp_path / "fig2.csv"
    assert ra.cli.cli_main(["reproduce", "fig2", "--out", str(out)]) == 0
    data = out.read_bytes()
    rows = workloads._read_csv(data)
    refs = {(workloads._fmt(eps), workloads._fmt(i * 0.05)):
            (ref.throughput_ref(i * 0.05, 2, eps, eps, 1.0),
             ref.bound_ref(i * 0.05, 2, eps))
            for eps in (0.1, 0.3, 0.5) for i in range(101)}
    check = workloads.Figures._figure_check("fig2", refs)
    assert check(rows) == []
    assert ra.cli.cli_main(["reproduce", "fig2", "--out", str(out)]) == 0
    again = out.read_bytes()
    assert checks.same_bytes("fig2", data, again) == []
    # one digit of one s cell, then any single byte
    line = next(i for i, ln in enumerate(again.split(b"\n"))
                if ln.startswith(b"0.3,2,"))
    lines = again.split(b"\n")
    cells = lines[line].split(b",")
    cells[2] = cells[2][:-1] + (b"1" if cells[2][-1:] != b"1" else b"2")
    lines[line] = b",".join(cells)
    changed = b"\n".join(lines)
    assert check(workloads._read_csv(changed))
    assert checks.same_bytes("fig2", data, changed)
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 1
    assert checks.same_bytes("fig2", data, bytes(flipped))


@pytest.mark.parametrize("cell,ok", [("0.1839397206", True),
                                     ("0.1839397207", False),
                                     ("0.1839397205", False)])
def test_csv_digits_allows_only_the_last_printed_digit(cell, ok):
    assert (checks.csv_digits("c", cell, 1 / (2 * math.e)) == []) is ok
