import csv
import io
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from relay_aloha import (
    RNG_ALGORITHM, RNG_LAYOUT, SweepSpec, SystemParams, __version__, bound,
    run_sweep, throughput,
)
from relay_aloha.cli import build_parser, cli_main
from relay_aloha.sweep import columns_for, sweep_comments, write_csv

SRC = Path(__file__).resolve().parents[1] / "src"

def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    data = "\n".join(
        line for line in text.splitlines() if not line.startswith("#")
    )
    return list(csv.DictReader(io.StringIO(data)))


class TestEval:
    def test_classical_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--g", "1", "--k", "1",
            "--eps-u", "0", "--eps-d", "0", "--delta", "1",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["s"] == "0.3678794412"

    @pytest.mark.parametrize("k,method", [("3", "closed_form"),
                                          ("33", "series")])
    def test_eval_and_bound_report_the_dispatched_path(
            self, capsys, k, method):
        point = ["--g", "2", "--k", k, "--eps-u", "0.4"]
        code_e, out_e, _ = run_cli(capsys, "eval", *point,
                                   "--eps-d", "0.2", "--delta", "0.7")
        code_b, out_b, _ = run_cli(capsys, "bound", *point)
        assert code_e == code_b == 0
        (row_e,), (row_b,) = parse_csv(out_e), parse_csv(out_b)
        for row, want in (
                (row_e, throughput(SystemParams(2.0, int(k), 0.4, 0.2, 0.7))),
                (row_b, bound(2.0, int(k), 0.4))):
            assert row["method"] == want.method == method
            assert row["terms"] == str(want.terms_used)

    def test_method_is_not_an_option(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--g", "2", "--k", "3", "--eps-u", "0.4",
            "--eps-d", "0.2", "--delta", "0.7", "--method", "closed",
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage: relay-aloha")

    def test_out_writes_what_stdout_gets(self, capsys, tmp_path):
        argv = ["eval", "--g", "2", "--k", "3", "--eps-u", "0.4",
                "--eps-d", "0.2", "--delta", "0.7"]
        code, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "eval.csv"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert code == 0 and path.read_text() == out

    def test_out_of_range_flag_is_a_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--g", "1", "--k", "1",
            "--eps-u", "1.5", "--eps-d", "0", "--delta", "1",
        )
        assert code == 1
        assert "eps_u" in err

    @pytest.mark.parametrize("command,flags", [
        ("eval", ["--eps-d", "0.3", "--delta", "1"]),
        ("bound", []),
    ])
    def test_relay_count_past_two_to_the_53(self, capsys, command, flags):
        # k enters every formula as a float; a 400-digit k used to raise
        # OverflowError in the series' rounding estimate
        k = "9" * 400
        code, out, err = run_cli(capsys, command, "--g", "1", "--k", k,
                                 "--eps-u", "0.3", *flags)
        assert (code, out) == (1, "")
        assert err == (f"relay-aloha: error: k must be in 1..{2**53}, "
                       f"got {k}\n")

    @pytest.mark.parametrize("g", ["1e300", "1000000000.0000001"])
    def test_load_above_the_table_limit(self, capsys, g):
        code, out, err = run_cli(
            capsys, "eval", "--g", g, "--k", "25", "--eps-u", "0.3",
            "--eps-d", "0.3", "--delta", "0.5",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("relay-aloha: error: g must be finite")


class TestUsageErrors:
    def test_module_entry_point_prints_the_version(self):
        # a fresh interpreter runs ``python -m relay_aloha``
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-m", "relay_aloha",
                              "--version"], capture_output=True, text=True,
                             env=env, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (
            0, f"{__version__}\n", "")

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "eval", "--g", "1")[0] == 2

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize(
        "cmd",
        ["eval", "bound", "optimize-delta", "optimize-k", "optimize-load",
         "simulate", "sweep", "reproduce"],
    )
    def test_help_exits_cleanly(self, capsys, cmd):
        assert run_cli(capsys, cmd, "--help")[0] == 0

    @pytest.mark.parametrize("argv", [
        # --g is no optimize-load flag and must not be read as --g-max
        ["optimize-load", "--k", "2", "--eps-u", "0.3", "--eps-d", "0.3",
         "--delta", "1", "--g", "2"],
        # --k is no optimize-k flag and must not be read as --k-max
        ["optimize-k", "--eps-u", "0.3", "--eps-d", "0.3", "--k", "4"],
        ["eval", "--g", "1", "--k", "1", "--eps-u", "0", "--eps-d", "0",
         "--delt", "1"],
        ["--vers"],
    ])
    def test_abbreviated_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: relay-aloha")

    def test_repeated_parses_exit_as_before(self, capsys):
        sweep = ["sweep", "--axis", "g", "--values", "1"]
        for _ in range(3):
            assert run_cli(capsys, "--version") == (0, f"{__version__}\n", "")
            code, out, _ = run_cli(capsys, "eval", "--help")
            assert code == 0 and out.startswith("usage: relay-aloha eval")
            code, out, err = run_cli(capsys, "eval", "--g", "1")
            assert code == 2 and out == "" and "required" in err
            assert run_cli(capsys, "frobnicate")[0] == 2
            assert run_cli(capsys, "bound", "--g", "1", "--k", "2",
                           "--eps-u", "0.3")[0] == 0
            # a flag given in one parse does not become the next default
            assert build_parser().parse_args(sweep + ["--seed", "5"]).seed == 5
            assert build_parser().parse_args(sweep).seed == 0
        assert build_parser() is build_parser()


class TestBound:
    def test_value_and_dispatch(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--g", "1.2", "--k", "4", "--eps-u", "0.4"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["s_bound"]) == pytest.approx(
            0.6322016355266069, abs=1e-9
        )


    @pytest.mark.parametrize(
        "flags", [["--g", "inf"], ["--g", "nan"], ["--k", "0"]]
    )
    def test_bad_point_is_a_domain_error(self, capsys, flags):
        args = {"--g": "2", "--k": "2", "--eps-u": "0.3"}
        args.update(zip(flags[::2], flags[1::2]))
        code, out, err = run_cli(
            capsys, "bound", *[x for kv in args.items() for x in kv]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("relay-aloha: error:")
        assert "Traceback" not in err


class TestOptimizers:
    def test_optimize_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-delta", "--g", "1", "--k", "2",
            "--eps-u", "0", "--eps-d", "0",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["delta_star"]) == pytest.approx(0.5, abs=1e-6)
        assert float(row["s_star"]) == pytest.approx(1 / (2 * math.e), abs=1e-8)

    def test_optimize_k_peak_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-k", "--eps-u", "0.5", "--eps-d", "0.5",
            "--k-max", "8",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["k_star"] == "4"
        assert row["g_rule"] == "peak_load"

    @pytest.mark.parametrize("cmd,flags", [
        ("optimize-delta", ["--g", "1", "--k", "2", "--eps-u", "0",
                            "--eps-d", "0"]),
        ("optimize-load", ["--k", "2", "--eps-u", "0.3", "--eps-d", "0.3",
                           "--delta", "1"]),
        ("optimize-k", ["--eps-u", "0.3", "--eps-d", "0.3"]),
    ])
    def test_arg_tol_is_not_an_option(self, capsys, cmd, flags):
        code, out, err = run_cli(capsys, cmd, *flags, "--arg-tol", "1e-3")
        assert code == 2
        assert out == ""
        assert "--arg-tol" in err

    def test_optimize_load(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-load", "--k", "1", "--eps-u", "0.5",
            "--eps-d", "0", "--delta", "1", "--g-max", "5",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["g_star"]) == pytest.approx(2.0, abs=1e-4)

    def test_subnormal_g_max_is_a_domain_error(self, capsys):
        # its grid floor 1e-4 g_max would round to 0
        code, out, err = run_cli(
            capsys, "optimize-load", "--k", "2", "--eps-u", "0.3",
            "--eps-d", "0.3", "--delta", "1", "--g-max", "1e-320",
        )
        assert (code, out) == (1, "")
        assert err == ("relay-aloha: error: g_max must be finite and in "
                       "[2.22507e-308, 1e+09], got 1e-320\n")


class TestSimulateCommand:
    def test_consistent_with_eval(self, capsys):
        args = ["--g", "1.4286", "--k", "2", "--eps-u", "0.3",
                "--eps-d", "0.3", "--delta", "1"]
        code, out, _ = run_cli(
            capsys, "simulate", *args, "--slots", "100000", "--seed", "7"
        )
        assert code == 0
        (sim_row,) = parse_csv(out)
        code, out, _ = run_cli(capsys, "eval", *args)
        assert code == 0
        (eval_row,) = parse_csv(out)
        est, ci = float(sim_row["estimate"]), float(sim_row["ci95"])
        assert abs(est - float(eval_row["s"])) <= 3 * ci

    def test_rng_comment_names_the_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--g", "1", "--k", "2", "--eps-u", "0.3",
            "--eps-d", "0.3", "--delta", "1", "--slots", "1000",
        )
        assert code == 0
        assert f"# rng={RNG_ALGORITHM} layout={RNG_LAYOUT}\n" in out

    def test_bound_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--g", "1.5", "--k", "3", "--eps-u", "0.4",
            "--eps-d", "0.9", "--delta", "0.1", "--slots", "50000",
            "--mode", "bound", "--seed", "2",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["estimate"]) == pytest.approx(0.6312, abs=0.02)

    def test_bad_slots_is_domain_error(self, capsys):
        # past 2^63 - 1 too: the batch ends are int64
        for slots in ("0", str(2**63), "1" + "0" * 30):
            code, out, err = run_cli(
                capsys, "simulate", "--g", "1", "--k", "1", "--eps-u", "0",
                "--eps-d", "0", "--delta", "1", "--slots", slots,
            )
            assert (code, out) == (1, "")
            assert err == ("relay-aloha: error: n_slots must be in "
                           f"1..{2**63 - 1}, got {slots}\n")

    def test_huge_warmup_is_domain_error(self, capsys):
        # it used to be accepted, then played warmup slots without end
        code, out, err = run_cli(
            capsys, "simulate", "--g", "1", "--k", "2", "--eps-u", "0.3",
            "--eps-d", "0.3", "--delta", "1", "--slots", "10",
            "--warmup", "1" + "0" * 30,
        )
        assert (code, out) == (1, "")
        assert err == ("relay-aloha: error: warmup_slots must be in "
                       f"1..{2**63 - 1}, got 1{'0' * 30}\n")

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 745. GiB"),
         "Unable to allocate 745. GiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_domain_error(self, capsys, monkeypatch, exc,
                                          message):
        # numpy's per-relay arrays at a huge k raise MemoryError
        def out_of_memory(config):
            raise exc

        monkeypatch.setattr("relay_aloha.cli.simulate", out_of_memory)
        code, out, err = run_cli(
            capsys, "simulate", "--g", "1", "--k", "100000000000",
            "--eps-u", "0.3", "--eps-d", "0.3", "--delta", "1",
            "--slots", "10",
        )
        assert (code, out) == (1, "")
        assert err == f"relay-aloha: error: {message}\n"


class TestSweepCommand:
    def test_basic_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "delta", "--values", "0,0.5,1",
            "--k", "1", "--g", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        vals = [float(r["analytic"]) for r in rows]
        assert vals == sorted(vals)

    def test_bad_values_list(self, capsys):
        for axis in ("g", "k"):
            code, out, err = run_cli(
                capsys, "sweep", "--axis", axis, "--values", "1,oops"
            )
            assert (code, out) == (1, "")
            assert err == ("relay-aloha: error: could not parse --values "
                           "'1,oops'\n")

    def test_rows_are_the_librarys_rows(self, capsys):
        # one parse rule on every axis: 2.5 reaches the library, whose
        # per-point rule fills that row's error cell
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "k", "--values", "2,2.5", "--k", "2"
        )
        spec = SweepSpec(axis="k", values=(2, 2.5),
                         fixed=SystemParams(1.0, 2, 0.0, 0.0, 1.0))
        want = io.StringIO()
        write_csv(want, columns_for(spec), run_sweep(spec),
                  sweep_comments(spec))
        assert (code, out) == (0, want.getvalue())
        assert out.endswith(',"k must be an integer, got 2.5"\n')
        # the quoted error cell keeps the columns: DictReader would file a
        # ninth field under None, a missing one as None
        rows = parse_csv(out)
        for row in rows:
            assert len(row) == 8 and None not in row
            assert None not in row.values()
        assert [r["error"] for r in rows] == [
            "", "k must be an integer, got 2.5"]

    def test_repeated_output_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "g", "--values", "1,2", "--k", "2",
            "--outputs", "analytic,analytic",
        )
        assert code == 1
        assert out == ""
        assert "repeated" in err

    @pytest.mark.parametrize("flags,message", [
        (["--slots", "0"], f"n_slots must be in 1..{2**63 - 1}, got 0"),
        (["--warmup", "0"],
         f"warmup_slots must be in 1..{2**63 - 1}, got 0"),
        (["--seed", "-1"],
         "seed must be in 0..18446744073709551615, got -1"),
        (["--slots", "1" + "0" * 30],
         f"n_slots must be in 1..{2**63 - 1}, got 1{'0' * 30}"),
        (["--warmup", "1" + "0" * 30],
         f"warmup_slots must be in 1..{2**63 - 1}, got 1{'0' * 30}"),
    ])
    @pytest.mark.parametrize("outputs", ["simulated", "analytic"])
    def test_bad_simulation_settings_are_domain_errors(
            self, capsys, tmp_path, flags, message, outputs):
        argv = ["sweep", "--axis", "g", "--values", "1,2", "--k", "2",
                "--outputs", outputs, *flags]
        path = tmp_path / "sweep.csv"
        for out_flag in ([], ["--out", str(path)]):
            code, out, err = run_cli(capsys, *argv, *out_flag)
            assert (code, out) == (1, "")
            assert err == f"relay-aloha: error: {message}\n"
        assert not path.exists()

    def test_relay_count_past_two_to_the_53_fills_its_error_cell(
            self, capsys):
        k = "9" * 400
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "k", "--values", f"2,{k}",
            "--eps-u", "0.3", "--eps-d", "0.3",
        )
        assert (code, err) == (0, "")
        ok, bad = parse_csv(out)
        assert ok["error"] == "" and ok["analytic"] != ""
        assert bad["analytic"] == ""
        assert bad["error"] == f"k must be in 1..{2**53}, got {k}"

    def test_unknown_output(self, capsys):
        # no output forces an evaluation path past the dispatch rule
        for name in ("nope", "closed", "series"):
            code, out, err = run_cli(
                capsys, "sweep", "--axis", "g", "--values", "1,2",
                "--outputs", f"analytic,{name}",
            )
            assert (code, out) == (1, "")
            assert err.startswith(
                f"relay-aloha: error: unknown output {name!r}; choices: ")


class TestReproduceCommand:
    def test_writes_deterministic_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "reproduce", "fig3", "--out", str(a))[0] == 0
        assert run_cli(capsys, "reproduce", "fig3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text(encoding="utf-8")
        assert text.startswith("# relay-aloha")
        assert "\r" not in text
        rows = parse_csv(text)
        assert len(rows) == 99
        assert rows[0]["delta_star"] == "0.5"

    def test_unknown_figure_is_usage_error(self, capsys):
        assert run_cli(capsys, "reproduce", "fig9")[0] == 2

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "reproduce", "fig3",
            "--out", str(tmp_path / "no_such_dir" / "x.csv"),
        )
        assert code == 1


def readme_commands():
    """The argv of each command in README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_lists_every_subcommand():
    assert {argv[1] for argv in readme_commands()} == {
        "eval", "bound", "optimize-delta", "optimize-k", "optimize-load",
        "simulate", "sweep", "reproduce"}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: a[1])
def test_readme_command_runs(capsys, tmp_path, monkeypatch, argv):
    # the documented commands run as written, and --out gets stdout's bytes
    assert argv[0] == "relay-aloha"
    monkeypatch.chdir(tmp_path)
    argv = argv[1:]
    if "--out" in argv:
        i = argv.index("--out")
        path, stdout_argv = Path(argv[i + 1]), argv[:i] + argv[i + 2:]
        file_argv = argv
    else:
        path, stdout_argv = Path("out.csv"), argv
        file_argv = argv + ["--out", "out.csv"]
    code, out, err = run_cli(capsys, *stdout_argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *file_argv) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")
