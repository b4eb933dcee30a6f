import json
import os
import stat

import numpy as np
import pytest

from stablevar import cli
from stablevar.cli import CSVParseError, main, read_series, write_series


def run(argv):
    return main(argv)


class TestSeriesIO:
    def test_round_trip_levels(self, tmp_path):
        path = str(tmp_path / "s.csv")
        values = np.array([0.0, 1.5, -2.25])
        write_series(path, values, {"mode": "levels", "n": 3})
        back, header = read_series(path)
        np.testing.assert_array_equal(back, values)
        assert header == {"mode": "levels", "n": 3}

    def test_round_trip_increments_bitwise(self, tmp_path):
        path = str(tmp_path / "s.csv")
        values = np.random.default_rng(0).normal(size=50)
        write_series(path, values, {"mode": "increments"})
        back, _ = read_series(path)
        np.testing.assert_array_equal(back, values)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n\n# note\n2.0\n")
        back, header = read_series(str(path))
        np.testing.assert_array_equal(back, [1.0, 2.0])
        assert header == {}

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(f"1.0\n2.0\n{text}\n")
        with pytest.raises(CSVParseError) as exc:
            read_series(str(path))
        assert exc.value.line_no == 3

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(CSVParseError) as exc:
            read_series(str(path))
        assert exc.value.line_no == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(CSVParseError):
            read_series(str(path))


class TestSimulate:
    def test_deterministic_output_bytes(self, tmp_path):
        args = [
            "simulate", "--alpha", "1.5", "--scale", "1.0", "--n", "50",
            "--m", "3", "--seed", "7", "--fine-multiplier", "2",
        ]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_header_records_config(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run([
            "simulate", "--n", "20", "--m", "2", "--seed", "3",
            "--fine-multiplier", "2", "--output", out,
        ]) == 0
        header_line = open(out).readline()
        assert header_line.startswith("# stablevar v1 ")
        cfg = json.loads(header_line[len("# stablevar v1 "):])
        assert cfg["n"] == 20 and cfg["m"] == 2 and cfg["seed"] == 3
        assert cfg["mode"] == "increments"

    def test_unwritable_output_exits_2(self, tmp_path):
        assert run([
            "simulate", "--n", "10", "--m", "2", "--fine-multiplier", "1",
            "--output", str(tmp_path / "missing-dir" / "s.csv"),
        ]) == 2

    @pytest.mark.parametrize("bad", [
        ["--m", "0"], ["--m", "-3"], ["--n", "0"], ["--fine-multiplier", "0"],
        ["--T", "0"], ["--T", "0.01"], ["--T", "-1"], ["--T", "nan"], ["--T", "inf"],
        ["--alpha", "2.5"], ["--scale", "0"], ["--beta", "1.5"],
    ], ids=" ".join)
    def test_infeasible_arguments_exit_4(self, tmp_path, capsys, bad):
        # n*T = 20 * 0.01 < 1 leaves no whole increment to write
        out = tmp_path / "s.csv"
        assert run(["simulate", "--n", "20", "--m", "2", "--fine-multiplier", "2",
                    *bad, "--output", str(out)]) == 4
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("infeasible simulation:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("T, per_block", [("2", 40), ("1.5", 30), ("0.05", 1)])
    def test_reports_increments_written_per_block(self, tmp_path, capsys, T, per_block):
        out = str(tmp_path / "s.csv")
        assert run(["simulate", "--n", "20", "--m", "3", "--fine-multiplier", "2",
                    "--T", T, "--output", out]) == 0
        assert capsys.readouterr().out == f"wrote 3 blocks x {per_block} increments to {out}\n"
        values, _ = read_series(out)
        assert len(values) == 3 * per_block


class TestEstimate:
    def simulate_input(self, tmp_path, m=60, n=100):
        out = str(tmp_path / "sim.csv")
        assert run([
            "simulate", "--alpha", "0.75", "--scale", "6.35", "--n", str(n),
            "--m", str(m), "--seed", "1", "--fine-multiplier", "4",
            "--output", out,
        ]) == 0
        return out

    def test_round_trip_recovers_parameters(self, tmp_path, capsys):
        inp = self.simulate_input(tmp_path)
        base = str(tmp_path / "est")
        assert run([
            "estimate", "--input", inp, "--output", base,
            "--p-min", "1.0", "--p-max", "2.4", "--p-step", "0.1",
            "--c-min", "3.0", "--c-max", "10.0", "--c-step", "0.25",
        ]) == 0
        out = capsys.readouterr().out
        alpha = float([ln for ln in out.splitlines() if ln.startswith("alpha*")][0].split("=")[1])
        assert 0.55 < alpha < 0.95
        for suffix in (".surface.csv", ".slice.csv", ".result.txt"):
            assert os.path.exists(base + suffix)
        surface = open(base + ".surface.csv").read().splitlines()
        assert surface[0] == "C,p,D"
        assert len(surface) == 1 + 29 * 15

    def test_fixed_c_and_gnuplot_outputs(self, tmp_path):
        inp = self.simulate_input(tmp_path, m=40)
        base = str(tmp_path / "est")
        assert run([
            "estimate", "--input", inp, "--output", base, "--no-refine",
            "--p-min", "1.2", "--p-max", "1.8", "--p-step", "0.2",
            "--c-min", "4.0", "--c-max", "9.0", "--c-step", "1.0",
            "--fixed-c", "6.35", "--gnuplot",
        ]) == 0
        fixed = open(base + ".fixedc.csv").read().splitlines()
        assert fixed[0] == "p,alpha,D"
        assert len(fixed) == 1 + 4
        assert "plot" in open(base + ".gp").read()

    def test_missing_input_exits_3(self, tmp_path):
        assert run([
            "estimate", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "e"),
        ]) == 3

    def test_garbage_input_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("hello,world,zzz\n")
        assert run([
            "estimate", "--input", str(bad), "--output", str(tmp_path / "e"),
        ]) == 3

    def test_infeasible_grid_exits_4(self, tmp_path):
        inp = self.simulate_input(tmp_path, m=40)
        assert run([
            "estimate", "--input", inp, "--output", str(tmp_path / "e"),
            "--p-min", "2.0", "--p-max", "1.0",
        ]) == 4

    def test_p_window_reaching_four_exits_4(self, tmp_path, capsys):
        inp = self.simulate_input(tmp_path, m=40)
        assert run([
            "estimate", "--input", inp, "--output", str(tmp_path / "e"), "--p-max", "4.0",
        ]) == 4
        assert "p window" in capsys.readouterr().err

    @pytest.mark.parametrize("c_fixed", ["0", "-1"])
    def test_non_positive_fixed_c_exits_4(self, tmp_path, capsys, c_fixed):
        inp = self.simulate_input(tmp_path, m=40)
        base = str(tmp_path / "e")
        assert run([
            "estimate", "--input", inp, "--output", base, "--no-refine",
            "--p-min", "1.2", "--p-max", "1.6", "--p-step", "0.2",
            "--c-min", "4.0", "--c-max", "9.0", "--c-step", "1.0",
            "--fixed-c", c_fixed,
        ]) == 4
        assert "positive" in capsys.readouterr().err
        for suffix in (".surface.csv", ".slice.csv", ".result.txt", ".fixedc.csv"):
            assert not os.path.exists(base + suffix)

    def test_non_finite_value_exits_3(self, tmp_path, capsys):
        inp = tmp_path / "nan.csv"
        inp.write_text("".join(f"{v}\n" for v in [0.5] * 40 + ["nan"] + [1.5] * 4000))
        assert run(["estimate", "--input", str(inp), "--output", str(tmp_path / "e"),
                    "--n", "100"]) == 3
        assert "line 41" in capsys.readouterr().err

    def test_constant_series_exits_4(self, tmp_path, capsys):
        inp = tmp_path / "const.csv"
        inp.write_text("2.5\n" * 4000)
        assert run(["estimate", "--input", str(inp), "--output", str(tmp_path / "e"),
                    "--n", "100"]) == 4
        assert "zero" in capsys.readouterr().err

    def test_too_few_blocks_exits_4(self, tmp_path):
        inp = self.simulate_input(tmp_path, m=5)
        assert run([
            "estimate", "--input", inp, "--output", str(tmp_path / "e"),
        ]) == 4

    def test_unwritable_output_exits_2(self, tmp_path):
        inp = self.simulate_input(tmp_path, m=40)
        assert run([
            "estimate", "--input", inp,
            "--output", str(tmp_path / "missing-dir" / "e"),
            "--p-min", "1.2", "--p-max", "1.6", "--p-step", "0.2",
            "--c-min", "4.0", "--c-max", "9.0", "--c-step", "1.0",
            "--no-refine",
        ]) == 2


class TestVerify:
    def test_unknown_scenario_exits_5(self):
        assert run(["verify", "--scenario", "no-such-thing"]) == 5

    @pytest.mark.parametrize("size", [["--m", "0"], ["--m", "4"], ["--n", "0"]])
    def test_degenerate_size_exits_4(self, capsys, size):
        # m < 5 gives a KS threshold above 1 that no statistic reaches; m = 0
        # and n = 0 leave nothing to sample
        assert run(["verify", "--scenario", "thm1-sub", "--n", "50", *size]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("too few blocks:") and err.count("\n") == 1

    def test_unknown_scenario_before_sizes(self):
        assert run(["verify", "--scenario", "no-such-thing", "--m", "0"]) == 5

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_error_inside_scenario_propagates(self, monkeypatch, error):
        # only the name and the sizes map to exit codes; an error raised
        # while sampling is a failure, not "too few blocks"
        def broken(*args, **kwargs):
            raise error("raised while sampling")

        monkeypatch.setattr(cli, "run_scenario", broken)
        with pytest.raises(error, match="raised while sampling"):
            run(["verify", "--scenario", "thm1-sub", "--m", "5", "--n", "1"])

    def test_small_scenario_passes(self, capsys):
        code = run([
            "verify", "--scenario", "thm1-sub", "--seed", "1",
            "--m", "300", "--n", "500",
        ])
        out = capsys.readouterr().out
        assert "PASS" in out
        assert code == 0


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
