import csv
import io
import math

import numpy as np
import pytest

from relay_aloha import (
    RNG_ALGORITHM,
    RNG_LAYOUT,
    SweepSpec,
    SystemParams,
    columns_for,
    delta_star_k2,
    figure_table,
    optimize_delta,
    run_sweep,
    s_star_k2,
)
from relay_aloha import sweep
from relay_aloha.sweep import format_cell, sweep_comments, write_csv

FIXED = SystemParams(1.0, 1, 0.0, 0.0, 1.0)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="load", values=(1.0,), fixed=FIXED)
        with pytest.raises(ValueError):
            SweepSpec(axis="g", values=(), fixed=FIXED)
        with pytest.raises(ValueError):
            SweepSpec(axis="g", values=(1.0, 1.0), fixed=FIXED)
        with pytest.raises(ValueError):
            SweepSpec(axis="g", values=(2.0, 1.0), fixed=FIXED)
        # values are real numbers: no string or bytes (whose characters
        # or byte values would be swept), no complex or None
        for values in ["12", b"12", bytearray(b"12"), ("1", "2"),
                       (1.0, None), (1.0, 2j), None, 5]:
            with pytest.raises(ValueError, match="values must be real"):
                SweepSpec(axis="g", values=values, fixed=FIXED)
        with pytest.raises(ValueError):
            SweepSpec(axis="g", values=(1.0,), fixed=FIXED, outputs=("s",))
        # a repeated output would repeat its two columns in the header
        for outputs in [("analytic", "analytic"),
                        ("bound", "analytic", "bound")]:
            with pytest.raises(ValueError, match="'.*' is repeated"):
                SweepSpec(axis="g", values=(1.0,), fixed=FIXED,
                          outputs=outputs)
        # the simulation settings and ``fixed`` are checked by SimConfig's
        # rules, whatever the outputs
        for bad, match in [
            (dict(n_slots=0), f"n_slots must be in 1..{2**63 - 1}, got 0"),
            (dict(n_slots=2**63), f"n_slots must be in 1..{2**63 - 1}, got"),
            (dict(n_slots=2.5), "n_slots must be an integer, got 2.5"),
            (dict(warmup_slots=0),
             f"warmup_slots must be in 1..{2**63 - 1}, got 0"),
            (dict(seed=-1), "seed must be in 0..18446744073709551615"),
            (dict(seed=2**64), "seed must be in 0.."),
            (dict(fixed=None), "params must be a SystemParams"),
            (dict(fixed=(1.0, 1, 0.0, 0.0, 1.0)),
             "params must be a SystemParams"),
        ]:
            for outputs in [("analytic",), ("simulated",)]:
                args = dict(axis="g", values=(1.0,), fixed=FIXED,
                            outputs=outputs) | bad
                with pytest.raises(ValueError, match=match):
                    SweepSpec(**args)

    def test_a_second_nan_is_a_repeated_value(self):
        # NaN compares false, so only a count tells two of them apart
        for values in [(math.nan, math.nan), (1.0, math.nan, 2.0, math.nan),
                       (math.nan, 1.0, float("nan"))]:
            with pytest.raises(ValueError,
                               match="values must be strictly increasing"):
                SweepSpec(axis="g", values=values, fixed=FIXED)

    def test_a_single_nan_keeps_its_own_error_row(self):
        spec = SweepSpec(axis="g", values=(1.0, math.nan), fixed=FIXED)
        first, second = run_sweep(spec)
        assert first["error"] == ""
        assert second == {"error": "g must be finite and in [0, 1e+09], "
                                   "got nan"}

    def test_values_are_stored_as_a_tuple(self):
        for values in [[1, 2.5], (x for x in (1, 2.5)),
                       np.array([1.0, 2.5])]:
            spec = SweepSpec(axis="g", values=values, fixed=FIXED)
            assert spec.values == (1, 2.5)
            assert len(run_sweep(spec)) == 2

    def test_simulation_settings_are_stored_as_ints(self):
        spec = SweepSpec(axis="g", values=(1.0,), fixed=FIXED,
                         n_slots=np.int64(500), warmup_slots=np.int32(3),
                         seed=np.uint64(7))
        assert (spec.n_slots, spec.warmup_slots, spec.seed) == (500, 3, 7)
        assert all(type(v) is int
                   for v in (spec.n_slots, spec.warmup_slots, spec.seed))

    def test_columns_are_a_pure_function_of_the_spec(self):
        spec = SweepSpec(axis="g", values=(0.5, 1.0), fixed=FIXED,
                         outputs=("analytic", "bound"))
        assert columns_for(spec) == columns_for(spec)
        assert columns_for(spec) == [
            "g", "k", "eps_u", "eps_d", "delta",
            "analytic", "analytic_err", "bound", "bound_err", "error",
        ]
        sim_spec = SweepSpec(axis="g", values=(0.5,), fixed=FIXED,
                             outputs=("simulated",))
        assert "seed" in columns_for(sim_spec)
        assert "n_slots" in columns_for(sim_spec)


class TestRunSweep:
    def test_delta_axis_monotone_for_single_relay(self):
        spec = SweepSpec(axis="delta", values=(0.0, 0.5, 1.0), fixed=FIXED)
        rows = run_sweep(spec)
        vals = [r["analytic"] for r in rows]
        assert vals == sorted(vals)
        assert vals[0] == 0.0

    def test_eps_axis_sets_both_erasure_rates(self):
        spec = SweepSpec(axis="eps", values=(0.1, 0.4), fixed=FIXED)
        rows = run_sweep(spec)
        for row, eps in zip(rows, (0.1, 0.4)):
            assert row["eps_u"] == eps
            assert row["eps_d"] == eps

    def test_k_axis(self):
        spec = SweepSpec(
            axis="k", values=(1, 2, 4),
            fixed=SystemParams(1.4, 1, 0.3, 0.3, 1.0),
        )
        rows = run_sweep(spec)
        assert [r["k"] for r in rows] == [1, 2, 4]

    def test_non_integer_k_fills_the_error_cell(self):
        spec = SweepSpec(
            axis="k", values=(2, 2.5), fixed=FIXED, outputs=("analytic",)
        )
        rows = run_sweep(spec)
        assert rows[0]["k"] == 2 and rows[0]["error"] == ""
        assert "k" not in rows[1]
        assert rows[1]["error"] == "k must be an integer, got 2.5"

    def test_failing_output_fills_the_error_cell(self, monkeypatch):
        # no output fails on a valid row, so make one: analytic at k = 3
        def throughput(pt):
            if pt.k == 3:
                raise ValueError("no value at k = 3")
            return real(pt)

        real = sweep.throughput
        monkeypatch.setattr(sweep, "throughput", throughput)
        spec = SweepSpec(axis="k", values=(2, 3, 4), fixed=FIXED,
                         outputs=("analytic", "bound"))
        rows = run_sweep(spec)
        assert rows[1]["analytic"] == rows[1]["analytic_err"] == ""
        assert rows[1]["error"] == "analytic: no value at k = 3"
        assert 0.0 <= rows[1]["bound"] <= 1.0
        for row in rows[::2]:
            assert row["error"] == ""
            assert 0.0 <= row["analytic"] <= row["bound"] <= 1.0
            assert row["analytic"] == real(
                SystemParams(1.0, row["k"], 0.0, 0.0, 1.0)).value

    def test_every_present_numeric_cell_is_finite(self):
        spec = SweepSpec(
            axis="g", values=(0.0, 1.0, 4.0),
            fixed=SystemParams(1.0, 2, 0.3, 0.3, 0.7),
            outputs=("analytic", "bound", "delta_star", "s_star"),
        )
        for row in run_sweep(spec):
            assert row["error"] == ""
            for key, v in row.items():
                if isinstance(v, float):
                    assert math.isfinite(v)

    def test_star_columns_optimize_at_the_row_parameters(self):
        spec = SweepSpec(
            axis="eps", values=(0.2, 0.5),
            fixed=SystemParams(1.0, 2, 0.0, 0.0, 1.0),
            outputs=("delta_star", "s_star"),
        )
        rows = run_sweep(spec)
        for row, eps in zip(rows, (0.2, 0.5)):
            ref = optimize_delta(1.0, 2, eps, eps)
            assert row["delta_star"] == ref.arg_star
            assert row["s_star"] == ref.value_star

    def test_k_axis_star_column_peaks_at_four_relays(self):
        eps = 0.5
        spec = SweepSpec(
            axis="k", values=tuple(range(1, 11)),
            fixed=SystemParams(2.0, 1, eps, eps, 1.0),
            outputs=("s_star",),
        )
        rows = run_sweep(spec)
        best = max(rows, key=lambda r: r["s_star"])
        assert best["k"] == 4

    def test_star_columns_at_peak_load_match_the_closed_forms(self):
        eps = 0.3
        spec = SweepSpec(
            axis="eps", values=(eps,),
            fixed=SystemParams(1 / (1 - eps), 2, 0.0, 0.0, 1.0),
            outputs=("delta_star", "s_star"),
        )
        (row,) = run_sweep(spec)
        assert row["delta_star"] == delta_star_k2(eps, eps)
        assert row["s_star"] == pytest.approx(s_star_k2(eps, eps), abs=1e-12)

    def test_simulated_output_is_deterministic_and_annotated(self):
        spec = SweepSpec(
            axis="g", values=(0.5, 1.0),
            fixed=SystemParams(1.0, 2, 0.2, 0.2, 1.0),
            outputs=("analytic", "simulated"),
            n_slots=20_000, seed=5,
        )
        rows_a = run_sweep(spec)
        rows_b = run_sweep(spec)
        assert rows_a == rows_b
        for row in rows_a:
            assert row["seed"] == 5
            assert row["n_slots"] == 20_000
            assert abs(row["simulated"] - row["analytic"]) <= 5 * row["simulated_err"]

    def test_star_columns_share_one_optimization_per_row(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return optimize_delta(*args)

        monkeypatch.setattr(sweep, "optimize_delta", counted)
        spec = SweepSpec(
            axis="eps", values=(0.2, 0.5),
            fixed=SystemParams(1.0, 2, 0.0, 0.0, 1.0),
            outputs=("delta_star", "analytic", "s_star"),
        )
        rows = run_sweep(spec)
        assert calls == [(1.0, 2, 0.2, 0.2), (1.0, 2, 0.5, 0.5)]
        for row, args in zip(rows, calls):
            ref = optimize_delta(*args)
            assert (row["delta_star"], row["s_star"]) == (ref.arg_star,
                                                          ref.value_star)

    def test_rows_track_values_in_order(self):
        spec = SweepSpec(axis="g", values=(0.25, 0.5, 2.0), fixed=FIXED)
        rows = run_sweep(spec)
        assert [r["g"] for r in rows] == [0.25, 0.5, 2.0]


class TestCsvWriting:
    def test_ten_significant_digits(self):
        assert format_cell(math.exp(-1)) == "0.3678794412"
        assert format_cell(0.15000000000000002) == "0.15"
        assert format_cell(3) == "3"
        assert format_cell("") == ""

    def test_cells_with_a_separator_or_quote_are_quoted(self):
        assert format_cell("k must be an integer, got 2.5") == (
            '"k must be an integer, got 2.5"')
        assert format_cell('say "hi"') == '"say ""hi"""'
        assert format_cell("two\nlines") == '"two\nlines"'
        assert format_cell("closed_form") == "closed_form"
        buf = io.StringIO()
        cells = ["a, b", 'q"q', "x\ny", "plain", 1.5]
        write_csv(buf, ["c1", "c2", "c3", "c4", "c5"], [dict(
            zip(["c1", "c2", "c3", "c4", "c5"], cells))])
        (row,) = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert list(row.values()) == ["a, b", 'q"q', "x\ny", "plain", "1.5"]

    def test_byte_identical_output(self):
        spec = SweepSpec(
            axis="eps", values=(0.1, 0.3, 0.5),
            fixed=SystemParams(1.0, 2, 0.0, 0.0, 1.0),
            outputs=("analytic", "bound"),
        )
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(buf, columns_for(spec), run_sweep(spec),
                      sweep_comments(spec))
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        lines = outs[0].split("\n")
        assert lines[0].startswith("# relay-aloha")
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",")[0] == "g"
        assert "\r" not in outs[0]

    def test_simulated_sweep_comment_names_the_rng_layout(self):
        spec = SweepSpec(axis="g", values=(1.0,), fixed=FIXED,
                         outputs=("simulated",))
        assert any(c.endswith(f"rng={RNG_ALGORITHM} layout={RNG_LAYOUT}")
                   for c in sweep_comments(spec))


class TestFigureTables:
    def test_fig2_shape_and_interior_peak(self):
        _, cols, rows = figure_table("fig2")
        assert cols == ["eps", "g", "s", "s_bound"]
        assert len(rows) == 3 * 101
        curve = [r["s"] for r in rows if r["eps"] == 0.3]
        peak = max(curve)
        assert peak > curve[0] and peak > curve[-1]
        assert all(r["s"] <= r["s_bound"] + 1e-12 for r in rows)

    def test_fig3_clean_channel_row(self):
        _, _, rows = figure_table("fig3")
        assert len(rows) == 99
        first = rows[0]
        assert first["eps"] == 0.0
        assert first["delta_star"] == 0.5
        assert first["s_star"] == pytest.approx(1 / (2 * math.e), rel=1e-14)
        assert first["s_single_relay"] == pytest.approx(
            math.exp(-1), rel=1e-14
        )

    def test_fig3_single_relay_column_is_exact(self):
        _, _, rows = figure_table("fig3")
        for r in rows:
            assert r["s_single_relay"] == (1.0 - r["eps"]) * math.exp(-1.0)

    def test_fig3_optimum_rises_then_falls(self):
        _, _, rows = figure_table("fig3")
        vals = [r["s_star"] for r in rows]
        peak = max(range(len(vals)), key=lambda i: vals[i])
        assert 0 < peak < len(vals) - 1
        assert all(a <= b + 1e-15 for a, b in zip(vals[:peak], vals[1:peak + 1]))
        assert all(a >= b - 1e-15 for a, b in zip(vals[peak:], vals[peak + 1:]))

    def test_fig4_monotone_in_each_erasure_rate(self):
        _, _, rows = figure_table("fig4")
        assert len(rows) == 400
        table = {(r["eps_u"], r["eps_d"]): r["s_star"] for r in rows}
        eus = sorted({u for u, _ in table})
        eds = sorted({d for _, d in table})
        for d in eds:
            col = [table[(u, d)] for u in eus]
            assert all(b >= a - 1e-12 for a, b in zip(col, col[1:]))
        for u in eus:
            row = [table[(u, d)] for d in eds]
            assert all(b <= a + 1e-12 for a, b in zip(row, row[1:]))

    def test_fig5_argmax_relay_counts(self):
        _, _, rows = figure_table("fig5")
        for eps, expected in ((0.1, 1), (0.3, 2), (0.5, 4)):
            curve = [(r["k"], r["s_star"]) for r in rows if r["eps"] == eps]
            best_k = max(curve, key=lambda kv: kv[1])[0]
            assert best_k == expected

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_table("fig9")
