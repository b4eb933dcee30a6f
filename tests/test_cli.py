import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stablevar import cli, path_sim
from stablevar.cli import CSVParseError, main, read_series, write_series
from stablevar.estimator import block_split


def run(argv):
    return main(argv)


class TestSeriesIO:
    def test_reads_levels(self, tmp_path):
        # levels are differenced, the first increment being zero by convention
        path = tmp_path / "s.csv"
        path.write_text('# stablevar v1 {"mode": "levels", "n": 3}\n0.0\n1.5\n-2.25\n')
        back, n = read_series(str(path))
        np.testing.assert_array_equal(back, [0.0, 1.5, -3.75])
        assert n == 3

    def test_partition_reconstruction(self, tmp_path):
        s = np.random.default_rng(0).normal(size=600).cumsum()
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in s))
        b = block_split(read_series(str(path))[0], 100)
        rebuilt = s[0] + np.cumsum(b.ravel())
        np.testing.assert_allclose(rebuilt, s, rtol=1e-12, atol=1e-12)

    # deterministic: derandomized examples, so no false-failure rate; each
    # example rewrites the one file
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-10**6, 10**6).map(float), min_size=2 * n, max_size=5 * n),
    )))
    def test_levels_blocks_partition_the_series(self, tmp_path, case):
        # integer-valued floats keep diff and cumsum exact, so the identity is
        # bitwise: the blocked increments rebuild series[:m*n] - series[0]
        n, values = case
        path = tmp_path / "s.csv"
        path.write_text(f'# stablevar v1 {{"n": {n}}}\n' + "".join(f"{v!r}\n" for v in values))
        increments, header_n = read_series(str(path))
        b = block_split(increments, header_n)
        series = np.array(values)
        np.testing.assert_array_equal(np.cumsum(b.ravel()), series[: b.size] - series[0])

    def test_round_trip_increments_bitwise(self, tmp_path):
        path = str(tmp_path / "s.csv")
        values = np.random.default_rng(0).normal(size=50)
        # the header records the mode the file is written in
        write_series(path, values, {})
        back, n = read_series(path)
        np.testing.assert_array_equal(back, values)
        assert n is None
        assert open(path).readline() == '# stablevar v1 {"mode": "increments"}\n'

    def test_write_holds_no_index_column(self, tmp_path):
        # the writer holds one WRITE_ROWS chunk of text, 5.8 bytes a value
        # here; an int64 index column as long as the series made it 14.4
        values = np.random.default_rng(2).standard_cauchy(100_000)
        tracemalloc.start()
        try:
            write_series(str(tmp_path / "s.csv"), values, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes

    @pytest.mark.parametrize("rows", [1, 3, 10, 11])
    def test_rows_formatted_in_chunks_give_the_same_bytes(self, tmp_path, monkeypatch, rows):
        # one 'index,value' line per value, however many rows a chunk holds
        path = tmp_path / "s.csv"
        values = np.random.default_rng(1).standard_cauchy(10)
        monkeypatch.setattr(cli, "WRITE_ROWS", rows)
        write_series(str(path), values, {"n": 5})
        assert path.read_text() == ('# stablevar v1 {"mode": "increments", "n": 5}\n'
                                    + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(values)))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        # a file with no header holds levels
        path.write_text("1.0\n\n# note\n2.5\n")
        back, n = read_series(str(path))
        np.testing.assert_array_equal(back, [0.0, 1.5])
        assert n is None

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(f"1.0\n2.0\n{text}\n")
        with pytest.raises(CSVParseError) as exc:
            read_series(str(path))
        assert exc.value.line_no == 3

    def test_overflowing_level_difference_rejected(self, tmp_path):
        # finite levels whose difference overflows to +-inf: the first such
        # difference is on line 3, the second level after the header
        path = tmp_path / "s.csv"
        path.write_text('# stablevar v1 {"mode": "levels"}\n1e308\n-1e308\n1e308\n')
        with pytest.raises(CSVParseError, match="previous level is not finite") as exc:
            read_series(str(path))
        assert exc.value.line_no == 3

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(CSVParseError) as exc:
            read_series(str(path))
        assert exc.value.line_no == 2

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# stablevar v1 [1, 2]\n1.0\n")
        with pytest.raises(CSVParseError, match="not an object") as exc:
            read_series(str(path))
        assert exc.value.line_no == 1

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"1.0\n2.0\n\xff3.0\n")
        with pytest.raises(CSVParseError, match="UTF-8") as exc:
            read_series(str(path))
        assert exc.value.line_no == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(CSVParseError):
            read_series(str(path))


# junk for an increments file: a line inserted among the valid rows, a
# transform of the whole file, or a byte put inside one row; np.loadtxt
# strips each of these bytes around a field, where the line reader takes it
# as a line break or as a byte that is not UTF-8
INSERTED_LINES = (b"1.0,2", b"1_000,2", b"0,2_0.5", b"0,1.5 # c", b" 4 , 2.5 ", b"0,nan",
                  b"0,1e400", b"99999999999999999999999,1", b"# note", b"")
FILE_TRANSFORMS = ("crlf", "bom")
INSIDE_BYTES = (b"\x0c", b"\x0b", b"\x1c", b"\r", b"\x85", b"\xa0", b"\xc2\x85")


def read_both(path):
    """What read_series and the line reader each give for the file: the
    values' bytes and n, or the CSVParseError text."""
    out = []
    with open(path, "rb") as fh:
        data = fh.read()
    for reader, source in ((read_series, path), (cli._read_lines, data)):
        try:
            values, n = reader(source)
            out.append((values.tobytes(), values.dtype, values.flags.c_contiguous, n))
        except CSVParseError as exc:
            out.append(str(exc))
    return out


class TestVectorizedRead:
    # deterministic: derandomized examples, so no false-failure rate; each
    # example rewrites the one file
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.none() | st.integers(1, 5),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=8),
        junk=st.none()
        | st.tuples(st.just("insert"), st.integers(0, 8), st.sampled_from(INSERTED_LINES))
        | st.tuples(st.sampled_from(FILE_TRANSFORMS), st.just(0), st.just(b""))
        | st.tuples(st.just("inside"), st.integers(0, 200), st.sampled_from(INSIDE_BYTES)),
    )
    @example(n=None, values=[1.5, 2.5], junk=("inside", 1, b"\x0c"))
    @example(n=3, values=[1.5, 2.5], junk=("inside", 3, b"\x85"))
    def test_equals_the_line_reader(self, tmp_path, n, values, junk):
        # the same bits and n from both readers, or the same parse error
        config = {} if n is None else {"n": n}
        path = tmp_path / "s.csv"
        write_series(str(path), np.array(values, dtype=float), config)
        data = path.read_bytes()
        if junk is not None:
            kind, at, text = junk
            header, _, body = data.partition(b"\n")
            rows = body.split(b"\n")[:-1]
            if kind == "insert":
                rows.insert(min(at, len(rows)), text)
            elif kind == "inside" and rows:
                row = rows[at % len(rows)]
                cut = at % (len(row) + 1)
                rows[at % len(rows)] = row[:cut] + text + row[cut:]
            data = header + b"\n" + b"".join(row + b"\n" for row in rows)
            if kind == "crlf":
                data = data.replace(b"\n", b"\r\n")
            elif kind == "bom":
                data = b"\xef\xbb\xbf" + data
        path.write_bytes(data)
        fast, lines = read_both(str(path))
        assert fast == lines

    def test_simulate_output_takes_the_vectorized_path(self, tmp_path, monkeypatch):
        # a file simulate writes is read by np.loadtxt alone, to the bits the
        # line reader gives
        out = str(tmp_path / "s.csv")
        assert run(["simulate", "--m", "20", "--n", "50", "--output", out]) == 0
        with open(out, "rb") as fh:
            expected, expected_n = cli._read_lines(fh.read())
        monkeypatch.setattr(cli, "_read_lines", lambda data: pytest.fail("line reader ran"))
        values, n = read_series(out)
        np.testing.assert_array_equal(values, expected)
        assert n == expected_n == 50
        assert len(values) == 20 * 50


    @pytest.mark.parametrize("index", [b"1.0", b"1e3"])
    def test_a_float_index_that_loadtxt_only_warns_on_is_refused(self, tmp_path, monkeypatch,
                                                                 index):
        # numpy from 1.23 until the deprecation ends reads an int64 field
        # such as 1.0 through float and only warns; read_series must still
        # refuse it as int() does
        loadtxt = np.loadtxt
        calls = []

        def warning_loadtxt(fname, **kwargs):
            calls.append(kwargs["dtype"])
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt(fname, **{**kwargs, "dtype": [("i", "f8"), ("v", "f8")]})

        path = tmp_path / "s.csv"
        write_series(str(path), np.array([1.5, 2.5]), {})
        path.write_bytes(path.read_bytes() + index + b",2\n")
        _, lines = read_both(str(path))
        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        with pytest.raises(CSVParseError) as exc:
            read_series(str(path))
        assert calls and str(exc.value) == lines == "line 4: invalid literal for int() " \
            f"with base 10: '{index.decode()}'"


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
        ["--x0", "nan"], ["--x0", "inf"], ["--x0=-inf"],
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

    @pytest.mark.parametrize("bad, problem", [
        # C n^(-1/alpha) underflows to 0, so the grid law cannot be formed
        (["--scale", "1e-320"], "underflows to 0"),
        (["--alpha", "1e-9"], "underflows to 0"),
        # an infinite scale is no stable law, rejected before anything is drawn
        (["--scale", "inf"], "scale_C must be finite and positive, got inf"),
        # heavy-tailed draws overflow in the Euler loop
        (["--scale", "1e308", "--alpha", "0.3"], "simulated increments are not finite"),
    ], ids=["scale-underflow", "alpha-underflow", "scale-inf", "euler-overflow"])
    def test_unrepresentable_paths_exit_4(self, tmp_path, capsys, bad, problem):
        # no traceback, no numpy warning and no file that estimate would refuse
        out = tmp_path / "s.csv"
        assert run(["simulate", "--m", "20", "--n", "50", *bad, "--output", str(out)]) == 4
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("infeasible simulation:") and err.count("\n") == 1
        assert problem in err
        assert not out.exists()

    @pytest.mark.parametrize("big, problem", [
        (["--fine-multiplier", "100000000"], "MAX_FINE_VALUES"),
        (["--T", "1e12"], "MAX_FINE_VALUES"),
        (["--m", "1", "--n", "1000000000"], "MAX_FINE_VALUES"),
        (["--m", "2147483648"], "MAX_FINE_VALUES"),
        # n*T cannot be formed as a float
        (["--n", "1" + "0" * 400], "--n times --T finite"),
        (["--fine-multiplier", "1" + "0" * 400], "--fine-multiplier times --n a float"),
    ], ids=["fine-multiplier", "T", "n", "m", "n-beyond-float", "fine-multiplier-beyond-float"])
    def test_oversized_fine_grid_exits_4_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                        big, problem):
        # refused from the flags alone: no stream token is made, nothing drawn
        monkeypatch.setattr(path_sim, "RandomStream", lambda *a: pytest.fail("stream made"))
        monkeypatch.setattr(cli, "sde_increments", lambda *a, **k: pytest.fail("drawn"))
        out = tmp_path / "s.csv"
        assert run(["simulate", *big, "--output", str(out)]) == 4
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("infeasible simulation:") and err.count("\n") == 1
        assert problem in err
        assert not out.exists()

    @pytest.mark.parametrize("T, code", [("1", 0), ("1.04", 0), ("1.05", 4)])
    def test_fine_grid_bound_is_inclusive(self, tmp_path, monkeypatch, T, code):
        # m floor(fine n T) = 5 floor(20 T): 100, 100 and 105 against a bound of 100
        monkeypatch.setattr(cli, "MAX_FINE_VALUES", 100)
        assert run(["simulate", "--m", "5", "--n", "10", "--fine-multiplier", "2", "--T", T,
                    "--output", str(tmp_path / "s.csv")]) == code

    def test_negative_exponent_value_in_equals_form(self, tmp_path):
        # before Python 3.13, argparse reads "-1e-05" after a flag as another
        # option and exits 2; written --flag=value it is a value (and
        # --x0=-inf is one of the infeasible arguments above)
        out = tmp_path / "s.csv"
        assert run(["simulate", "--n", "20", "--m", "2", "--fine-multiplier", "2",
                    "--beta=-1e-05", "--output", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0][len(cli.MAGIC):])["beta"] == -1e-05

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

    def test_refine_onto_window_edge_warns(self, tmp_path, capsys):
        # Gaussian noise on 20 small blocks: the grid argmin is the interior
        # cell p = 3.55, and the refine ends within REFINE_XATOL of p_max = 3.6
        inp, base = str(tmp_path / "g.csv"), str(tmp_path / "gfit")
        assert run(["simulate", "--alpha", "2", "--drift", "zero", "--m", "20", "--n", "50",
                    "--fine-multiplier", "2", "--output", inp]) == 0
        assert run(["estimate", "--input", inp, "--output", base]) == 0
        assert "warning: minimum on the search-grid boundary" in capsys.readouterr().out
        result = dict(ln.split(" ", 1) for ln in open(base + ".result.txt").read().splitlines())
        assert result["boundary"] == "True"
        assert 3.6 - float(result["p_star"]) <= 1e-4

    def test_gnuplot_quotes_the_output_base(self, tmp_path):
        # gnuplot reads '' inside a single-quoted string as one '
        inp = self.simulate_input(tmp_path, m=40)
        (tmp_path / "it's").mkdir()
        base = str(tmp_path / "it's" / "o'est")
        assert run([
            "estimate", "--input", inp, "--output", base, "--no-refine", "--gnuplot",
        ]) == 0
        (plot,) = [ln for ln in open(base + ".gp").read().splitlines() if ln.startswith("plot ")]
        quoted = plot[len("plot "):].split(" using ")[0]
        assert quoted == "'" + (base + ".slice.csv").replace("'", "''") + "'"
        # the string ends at the first ' that is not doubled
        assert "'" not in quoted[1:-1].replace("''", "")

    def test_missing_input_exits_3(self, tmp_path):
        assert run([
            "estimate", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "e"),
        ]) == 3

    @pytest.mark.parametrize("content, problem", [
        ("# stablevar v1 [1]\n1.0\n", "header JSON is not an object"),
        (b"1.0\n\xff\n", "not UTF-8 text"),
        (None, "Is a directory"),
        ('# stablevar v1 {"n": [50]}\n1.0\n', "line 1: header n [50] is not"),
        ('# stablevar v1 {"n": 1.5}\n1.0\n', "line 1: header n 1.5 is not"),
        ('# stablevar v1 {"n": 0}\n1.0\n', "line 1: header n 0 is not"),
        ('# stablevar v1 {"n": true}\n1.0\n', "line 1: header n true is not"),
        ('# stablevar v1 {"n": "50"}\n1.0\n', 'line 1: header n "50" is not'),
        ('# stablevar v1 {"mode": "windows"}\n1.0\n', 'line 1: header mode "windows" is not'),
        ("1.0\n" + "1e308\n-1e308\n" * 2500, "line 3: difference from the previous level"),
    ], ids=["non-object-header", "non-utf8", "directory", "n-list", "n-fraction", "n-zero",
            "n-bool", "n-string", "unknown-mode", "level-overflow"])
    def test_unreadable_input_exits_3(self, tmp_path, capsys, content, problem):
        inp = tmp_path / "in.csv"
        if content is None:
            inp.mkdir()
        elif isinstance(content, bytes):
            inp.write_bytes(content)
        else:
            inp.write_text(content)
        assert run(["estimate", "--input", str(inp), "--output", str(tmp_path / "e")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert problem in err and err.count("\n") == 1

    def test_levels_input_matches_increments(self, tmp_path):
        # a levels file, written by hand, fits exactly as the increments file
        # of np.diff(levels, prepend=levels[0]), the differencing read_series
        # applies to levels
        levels = np.cumsum(np.random.default_rng(3).standard_cauchy(size=24 * 50))
        lv = tmp_path / "levels.csv"
        lv.write_text('# stablevar v1 {"mode": "levels", "n": 50}\n'
                      + "".join(f"{float(v)!r}\n" for v in levels))
        inc = str(tmp_path / "inc.csv")
        write_series(inc, np.diff(levels, prepend=levels[0]), {"n": 50})
        for name in ("levels", "inc"):
            assert run(["estimate", "--input", str(tmp_path / f"{name}.csv"),
                        "--output", str(tmp_path / name)]) == 0
        for suffix in (".surface.csv", ".slice.csv", ".result.txt"):
            assert (tmp_path / f"levels{suffix}").read_bytes() == (tmp_path / f"inc{suffix}").read_bytes()

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

    @pytest.mark.parametrize("p_min", ["5e-324", "1e-323", "1.1125369292536e-308"])
    def test_p_min_whose_coupled_alpha_underflows_exits_4(self, small_series, tmp_path, capsys,
                                                           p_min):
        # alpha = p/2 is 0, or so small that Gamma(alpha) overflows in k(p):
        # the message names the p window, not the coupled alpha
        base = str(tmp_path / "e")
        assert run(["estimate", "--input", small_series, "--output", base,
                    "--p-min", p_min]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("estimation aborted: p window [") and err.count("\n") == 1
        assert not any(tmp_path.glob("e.*"))

    def test_smallest_p_min_accepted(self, small_series, tmp_path):
        # 2/DBL_MAX: alpha = 1/DBL_MAX, where Gamma(alpha) is the largest float
        assert run(["estimate", "--input", small_series, "--output", str(tmp_path / "e"),
                    "--p-min", "1.112536929253602e-308"]) == 0

    @pytest.mark.parametrize("c_fixed", ["0", "-1", "inf", "nan", "1e300"])
    def test_non_positive_fixed_c_exits_4(self, tmp_path, capsys, c_fixed):
        inp = self.simulate_input(tmp_path, m=40)
        base = str(tmp_path / "e")
        assert run([
            "estimate", "--input", inp, "--output", base, "--no-refine",
            "--p-min", "1.2", "--p-max", "1.6", "--p-step", "0.2",
            "--c-min", "4.0", "--c-max", "9.0", "--c-step", "1.0",
            "--fixed-c", c_fixed,
        ]) == 4
        err = capsys.readouterr().err
        assert "positive" in err and err.count("\n") == 1
        for suffix in (".surface.csv", ".slice.csv", ".result.txt", ".fixedc.csv"):
            assert not os.path.exists(base + suffix)

    def test_overflowing_c_window_exits_4(self, tmp_path, capsys):
        # C^p overflows on the grid: a one-line refusal, not an OverflowError
        inp = self.simulate_input(tmp_path, m=40)
        base = str(tmp_path / "e")
        assert run([
            "estimate", "--input", inp, "--output", base,
            "--c-min", "1e200", "--c-max", "3e200", "--c-step", "1e200",
        ]) == 4
        err = capsys.readouterr().err
        assert "C^p k(p) = inf at C=1e+200" in err and err.count("\n") == 1
        assert not any(tmp_path.glob("e.*"))

    @pytest.mark.parametrize("window", [
        ["--c-max", "1e308", "--c-step", "1e300"], ["--c-max", "inf"], ["--c-step", "1e-300"],
        ["--c-step", "1e-7"],
    ], ids=["huge-window", "infinite-c-max", "tiny-step", "fine-step"])
    def test_oversized_grid_exits_4(self, tmp_path, capsys, monkeypatch, window):
        # refused from the window alone, before a grid is built
        inp = self.simulate_input(tmp_path, m=40)
        monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("grid built"))
        assert run(["estimate", "--input", inp, "--output", str(tmp_path / "e"), *window]) == 4
        err = capsys.readouterr().err
        assert "MAX_GRID_CELLS" in err and err.count("\n") == 1
        assert not any(tmp_path.glob("e.*"))

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

    @pytest.mark.parametrize("where", ["flag", "header"])
    def test_block_size_beyond_numpy_exits_4(self, tmp_path, capsys, where):
        # no (0, n) array exists for n >= 2^63, so the refusal names the
        # block size and the series length instead of numpy's dimension limit
        n, inp = 2**63, tmp_path / "s.csv"
        header = {"mode": "increments", **({"n": n} if where == "header" else {})}
        write_series(str(inp), np.linspace(-1.0, 1.0, 150), header)
        flag = ["--n", str(n)] if where == "flag" else []
        assert run(["estimate", "--input", str(inp), "--output", str(tmp_path / "e"), *flag]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == (f"estimation aborted: block size n={n} is longer than the series "
                       "(150 increments)\n")

    def test_unwritable_output_exits_2(self, tmp_path):
        inp = self.simulate_input(tmp_path, m=40)
        assert run([
            "estimate", "--input", inp,
            "--output", str(tmp_path / "missing-dir" / "e"),
            "--p-min", "1.2", "--p-max", "1.6", "--p-step", "0.2",
            "--c-min", "4.0", "--c-max", "9.0", "--c-step", "1.0",
            "--no-refine",
        ]) == 2


class TestSimulateThenEstimate:
    # deterministic: derandomized examples, so no false-failure rate; each
    # example rewrites the same files
    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        alpha=st.floats(0.3, 2.0),
        scale=st.floats(1e-3, 1e3),
        beta=st.floats(-1.0, 1.0),
        drift=st.sampled_from(sorted(cli.DRIFTS)),
        x0=st.floats(-10.0, 10.0),
        m=st.integers(20, 30),
        n=st.integers(10, 40),
        fine=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    # the drawn alphas need not include the Gaussian boundary itself
    @example(alpha=2.0, scale=1e3, beta=-1.0, drift="zero", x0=-10.0, m=20, n=10, fine=1, seed=0)
    @example(alpha=2.0, scale=1e-3, beta=0.7, drift="cos", x0=10.0, m=30, n=40, fine=2, seed=1)
    def test_estimate_reads_what_simulate_writes(self, tmp_path, capsys, alpha, scale, beta,
                                                 drift, x0, m, n, fine, seed):
        # simulate writes a file or refuses with exit 4 and one line; a file
        # it writes, estimate fits with exit 0. Every value is passed as
        # --flag=value, the form that also takes negative exponents
        data = tmp_path / "s.csv"
        data.unlink(missing_ok=True)
        code = run(["simulate", f"--alpha={alpha!r}", f"--scale={scale!r}", f"--beta={beta!r}",
                    f"--drift={drift}", f"--x0={x0!r}", f"--m={m}", f"--n={n}",
                    f"--fine-multiplier={fine}", "--T=1", f"--seed={seed}",
                    f"--output={data}"])
        out, err = capsys.readouterr()
        if code == 4:
            assert out == ""
            assert err.startswith("infeasible simulation:") and err.count("\n") == 1
            assert not data.exists()
            return
        assert code == 0, err
        assert run(["estimate", f"--input={data}", f"--output={tmp_path / 'fit'}"]) == 0, \
            capsys.readouterr().err


ESTIMATE_NUMBERS = ("--p-min", "--p-max", "--p-step", "--c-min", "--c-max", "--c-step",
                    "--fixed-c")
EXTREMES = (0.0, 5e-324, 1e-300, -1.0, 1e300, 1e308, math.inf, -math.inf, math.nan)


@pytest.fixture(scope="module")
def small_series(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("series") / "s.csv")
    assert main(["simulate", "--m", "30", "--n", "50", "--fine-multiplier", "2", "--seed", "1",
                 "--output", path]) == 0
    return path


class TestEstimateExtremeFlags:
    # deterministic: derandomized, and hypothesis tries each of the 63
    # (flag, value) pairs, so no false-failure rate; each example takes
    # under 0.1 s
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flag=st.sampled_from(ESTIMATE_NUMBERS), value=st.sampled_from(EXTREMES))
    def test_exits_0_or_4_with_one_line(self, small_series, tmp_path, capsys, flag, value):
        # one numeric flag at an extreme, the others at their defaults
        for old in tmp_path.glob("fit.*"):
            old.unlink()
        code = run(["estimate", f"--input={small_series}", f"--output={tmp_path / 'fit'}",
                    f"{flag}={value!r}"])
        out, err = capsys.readouterr()
        if code == 4:
            assert out == ""
            assert err.startswith("estimation aborted: ") and err.count("\n") == 1
            assert not any(tmp_path.glob("fit.*"))
        else:
            assert code == 0 and err == ""
            assert out.startswith("alpha* = ")


SERIES_HEADERS = (None, '# stablevar v1 {"n": 5}', '# stablevar v1 {"mode": "increments"}',
                  '# stablevar v1 {"mode": "levels", "n": 3}', "# stablevar v1 {")
JUNK_LINES = (b"", b"# note", b"1,2,3", b"x", b"nan", b"-inf", b"1e400", b"0,", b",1",
              b"\xef\xbb\xbf1", b"\xff")


class TestEstimateSeriesFiles:
    # deterministic: derandomized examples, so no false-failure rate; each
    # file is rewritten, and each example takes under 0.1 s. A numpy warning
    # would be a second stderr line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.sampled_from(SERIES_HEADERS),
           values=st.lists(st.floats(-1e3, 1e3) | st.sampled_from(EXTREMES[:6]), min_size=15,
                           max_size=40),
           junk=st.none() | st.tuples(st.integers(0, 40), st.sampled_from(JUNK_LINES)))
    def test_exits_0_3_or_4_with_one_line(self, tmp_path, capsys, header, values, junk):
        # finite values, down to 5e-324 and up to 1e308, in the header's
        # mode, with at most one junk line, read with n = 1: a fit needs
        # M_MIN = 20 increments
        for old in tmp_path.glob("fit.*"):
            old.unlink()
        if header is not None and "increments" in header:
            lines = [f"{i},{v!r}".encode() for i, v in enumerate(values)]
        else:
            lines = [repr(v).encode() for v in values]
        if junk is not None:
            lines.insert(*junk)
        if header is not None:
            lines.insert(0, header.encode())
        data = tmp_path / "s.csv"
        data.write_bytes(b"".join(ln + b"\n" for ln in lines))
        code = run(["estimate", f"--input={data}", f"--output={tmp_path / 'fit'}", "--n=1",
                    "--no-refine"])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and out.startswith("alpha* = ")
        else:
            assert code in (3, 4)
            assert out == "" and err.count("\n") == 1
            assert not any(tmp_path.glob("fit.*"))


SIMULATE_INTS = ("--n", "--m", "--seed", "--fine-multiplier")
SIMULATE_FLOATS = ("--alpha", "--scale", "--beta", "--T", "--x0")
INT_EXTREMES = (-1, 0, 1, 2, 2**31, 10**12)
FLOAT_EXTREMES = EXTREMES + (1e12,)


class TestSimulateExtremeFlags:
    # deterministic: derandomized, and hypothesis tries each of the 74
    # (flag, value) pairs, so no false-failure rate; each example takes
    # under 0.1 s. A numpy warning would be a second stderr line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.one_of(
        st.tuples(st.sampled_from(SIMULATE_INTS), st.sampled_from(INT_EXTREMES)),
        st.tuples(st.sampled_from(SIMULATE_FLOATS), st.sampled_from(FLOAT_EXTREMES)),
    ))
    def test_exits_0_or_4_with_one_line(self, tmp_path, capsys, case):
        # one numeric flag at an extreme, the others small
        flag, value = case
        data = tmp_path / "s.csv"
        data.unlink(missing_ok=True)
        start = time.perf_counter()
        code = run(["simulate", "--m=5", "--n=10", "--fine-multiplier=2", f"{flag}={value!r}",
                    f"--output={data}"])
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        if code == 4:
            assert out == ""
            assert err.startswith("infeasible simulation: ") and err.count("\n") == 1
            assert not data.exists()
        else:
            assert code == 0 and err == ""
            assert out.startswith("wrote ") and data.exists()


class TestVerifyExtremeFlags:
    # deterministic: derandomized, and hypothesis tries each of the 72
    # (scenario, flag, value) triples, so no false-failure rate; each example
    # takes under 0.1 s. A numpy warning would be a second stderr line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=st.sampled_from(cli.SCENARIOS), flag=st.sampled_from(("--seed", "--m", "--n")),
           value=st.sampled_from(INT_EXTREMES))
    def test_exits_0_1_or_4_with_one_line(self, capsys, scenario, flag, value):
        # one numeric flag at an extreme, the others small
        start = time.perf_counter()
        code = run(["verify", f"--scenario={scenario}", "--m=20", "--n=10", f"{flag}={value!r}"])
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        if code == 4:
            assert out == ""
            assert err.startswith("infeasible scenario size: ") and err.count("\n") == 1
        else:
            assert code in (0, 1) and err == ""
            assert out.startswith(f"{scenario}: KS statistic ")


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
        assert err.startswith("infeasible scenario size:") and err.count("\n") == 1

    @pytest.mark.parametrize("scenario, size", [
        ("thm1-sub", ["--m", "1000000000000", "--n", "10"]),
        ("cor-sde", ["--m", "1000000000000", "--n", "10"]),
        ("thm1-sub", ["--m", "5", "--n", "100000000000000"]),
    ], ids=["theorem-m", "cor-sde-m", "n"])
    def test_oversized_size_exits_4_before_running(self, capsys, monkeypatch, scenario, size):
        # refused from the sizes alone: the scenario never runs
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("scenario ran"))
        assert run(["verify", "--scenario", scenario, *size]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("infeasible scenario size:") and err.count("\n") == 1
        assert "MAX_PATHS" in err

    def test_unknown_scenario_before_sizes(self):
        assert run(["verify", "--scenario", "no-such-thing", "--m", "0"]) == 5

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_error_inside_scenario_propagates(self, monkeypatch, error):
        # only the name and the sizes map to exit codes; an error raised
        # while sampling is a failure, not an infeasible size
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


class TestImport:
    def test_cli_does_not_import_scipy(self):
        # scipy is a test dependency only; a fresh interpreter shows what the
        # package itself imports
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, stablevar.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


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

    def test_mode_flag_rejected(self, tmp_path, capsys):
        # the file's header alone says whether it holds levels or increments
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--input", str(tmp_path / "s.csv"), "--output",
                 str(tmp_path / "e"), "--mode", "levels"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode levels" in capsys.readouterr().err
