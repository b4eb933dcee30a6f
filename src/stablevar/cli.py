"""Command-line interface: simulate blocks of SDE data, estimate (alpha, C)
from a series, and run the convergence-test scenarios.

CSV format: UTF-8 text, a header line '# stablevar v1 <json-object>', then one
level per line or 'index,value' increment lines, as the header's "mode" says;
read_series alone reads the format and returns increments.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings

import numpy as np

from stablevar.estimator import EstimationError, GridConfig, block_split, estimate, ks_surface
from stablevar.path_sim import sde_increments
from stablevar.pvariation import log_abs
from stablevar.stable_law import StableParams
from stablevar.scenarios import SCENARIOS, check_sizes, run_scenario

MAGIC = "# stablevar v1 "

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_GRID = 4
EXIT_SCENARIO = 5


class CSVParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


WRITE_ROWS = 4096
"""Rows that _write_rows formats at once. Their text, about 240 bytes a row
as Python objects, bounds the writer's memory: 1 MB traced for a 40,000-row
series, against 5.3 MB when the whole file was formatted at once."""


def _write_rows(path, header, columns):
    """Write a CSV of the header line, then one line per row of the equal
    length columns, 1-D arrays or ranges, each value as its shortest repr,
    formatted WRITE_ROWS rows at a time."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), WRITE_ROWS):
            rows = [col[lo:lo + WRITE_ROWS] for col in columns]
            text = [map(repr, r if isinstance(r, range) else r.tolist()) for r in rows]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def write_series(path: str, values: np.ndarray, config: dict) -> None:
    """Write values as an increments file: 'index,value' lines under a header
    holding config with its "mode" set to "increments"."""
    values = np.asarray(values, dtype=float)
    header = MAGIC + json.dumps({**config, "mode": "increments"}, sort_keys=True)
    _write_rows(path, header, [range(len(values)), values])


INCREMENT_BYTES = b"0123456789+-.e,\n"
"""The bytes of the increment lines write_series writes: read_series hands a
file body of these bytes alone to np.loadtxt. Over this alphabet loadtxt
takes a row exactly when the line reader does, to the same values; outside
it the two part ways, as loadtxt strips \\x0b, \\x0c, \\x1c-\\x1e, \\x85 and
\\xa0 around a field, which the line reader takes as line breaks or bytes
that are not UTF-8."""


def _header(line: str) -> tuple[str, int | None]:
    """(mode, n) of a file whose first line is line: its header's, or
    ("levels", None) when line is no header. Raises CSVParseError on line 1
    for a header that is not a JSON object, or whose mode or n is invalid."""
    config: dict = {}
    if line.startswith(MAGIC):
        try:
            config = json.loads(line[len(MAGIC):])
        except json.JSONDecodeError as exc:
            raise CSVParseError(1, f"bad header JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise CSVParseError(1, "header JSON is not an object")
    mode = config.get("mode", "levels")
    if mode not in ("levels", "increments"):
        raise CSVParseError(1, f'header mode {json.dumps(mode)} is not "levels" or "increments"')
    n = config.get("n")
    if "n" in config and (type(n) is not int or n < 1):
        raise CSVParseError(1, f"header n {json.dumps(n)} is not an integer >= 1")
    return mode, n


def read_series(path: str) -> tuple[np.ndarray, int | None]:
    """Return the file's increments and its header's block size n (or None).
    Levels (header mode "levels", or no mode) are differenced here as
    np.diff(values, prepend=values[0]), so the first increment is zero; a
    level whose difference from the one before overflows is a parse error
    on its line.

    An increments file whose body holds only INCREMENT_BYTES is read by one
    np.loadtxt call; a file that call refuses, or that holds a value that is
    not finite, and every other file, go through _read_lines, which names
    the bad line."""
    with open(path, "rb") as fh:
        first, body = fh.readline(), fh.read()
    try:
        # the header must be the line reader's whole first line
        (line,) = first.decode("utf-8").splitlines()
        mode, n = _header(line)
    except (ValueError, CSVParseError):  # UnicodeDecodeError is a ValueError
        mode = None
    # a body of blank lines holds no row, and loadtxt would warn
    if (mode == "increments" and body.count(b"\n") < len(body)
            and not body.translate(None, INCREMENT_BYTES)):
        try:
            # numpy from 1.23 until the deprecation ends parses an index such
            # as 1.0 or 1e3 through float with a warning; int() refuses it
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None,
                                  dtype=[("i", "i8"), ("v", "f8")], ndmin=1)
        except (ValueError, DeprecationWarning):
            pass
        else:
            if np.all(np.isfinite(rows["v"])):
                return np.ascontiguousarray(rows["v"]), n
    return _read_lines(first + body)


def _read_lines(data: bytes) -> tuple[np.ndarray, int | None]:
    """read_series of a file's bytes, one line at a time: the source of every
    CSVParseError."""
    values = []
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CSVParseError(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc}") from exc
    mode, n = _header(raw[0] if raw else "")
    start = 1 if raw and raw[0].startswith(MAGIC) else 0
    for k, line in enumerate(raw[start:], start=start + 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            if mode == "increments":
                if len(fields) != 2:
                    raise ValueError("expected 'index,value'")
                int(fields[0])
                value = float(fields[1])
            else:
                if len(fields) != 1:
                    raise ValueError("expected a single value")
                value = float(fields[0])
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r}")
            # finite levels near the float64 limit can differ by more than it
            if mode == "levels" and values and not math.isfinite(value - values[-1]):
                raise ValueError("difference from the previous level is not finite")
        except ValueError as exc:
            raise CSVParseError(k, str(exc)) from exc
        values.append(value)
    if not values:
        raise CSVParseError(len(raw) + 1, "no data lines found")
    values = np.asarray(values)
    if mode == "levels":
        values = np.diff(values, prepend=values[0])
    return values, n


DRIFTS = {"zero": lambda x: 0.0, "cos": np.cos}
"""The drift f(x) of each --drift name. The zero drift returns the float 0.0,
so each Euler step x + 0.0 h + dL adds dL exactly, as the Levy path does."""


MAX_FINE_VALUES = 50_000_000
"""Most fine-grid increments simulate draws, m floor(fine multiplier n T).
A run holds the m floor(n T) observed increments, this many at fine
multiplier 1, a chunk buffer (8 MB) and one block's generators (1.6 MB);
writing adds one WRITE_ROWS chunk of text. Per observed increment the traced
peak was 9.2-9.7 bytes and max RSS grew by 11.4-14.2, at fine multipliers 1
and 16 (m = 100-200, n = 2 x 10^4), so a run peaks under 1 GB."""


def cmd_simulate(args) -> int:
    try:
        params = StableParams(args.alpha, args.scale, args.beta)
        sizes = (f"m={args.m}, n={args.n}, fine multiplier={args.fine_multiplier}, "
                 f"T={args.T!r}")
        # n <= fine multiplier n, so n * T, int times float, cannot overflow
        if (min(args.m, args.n, args.fine_multiplier) < 1
                or args.fine_multiplier * args.n > sys.float_info.max
                or not 1.0 <= args.n * args.T < math.inf):
            raise ValueError("--m, --n and --fine-multiplier must be >= 1, --fine-multiplier "
                             f"times --n a float and --n times --T finite and >= 1, got {sizes}")
        # m floor(x) <= MAX exactly when x < MAX // m + 1; an x that overflows
        # to inf fails too, and nothing is drawn before this
        if not args.fine_multiplier * args.n * args.T < MAX_FINE_VALUES // args.m + 1:
            raise ValueError("--m, --n, --fine-multiplier and --T ask for m*floor(fine "
                             f"multiplier*n*T) fine-grid increments, more than "
                             f"MAX_FINE_VALUES = {MAX_FINE_VALUES}, got {sizes}")
        if not math.isfinite(args.x0):
            raise ValueError(f"--x0 must be finite, got {args.x0!r}")
        # a path that overflows is reported below, not warned about
        with np.errstate(all="ignore"):
            increments = sde_increments(params, DRIFTS[args.drift], args.n, args.m, args.seed,
                                        fine=args.fine_multiplier, T=args.T, x0=args.x0)
        bad = np.count_nonzero(~np.isfinite(increments))
        if bad:
            raise ValueError(f"{bad} of {increments.size} simulated increments are not finite")
    except ValueError as exc:
        print(f"infeasible simulation: {exc}", file=sys.stderr)
        return EXIT_GRID
    config = {
        "alpha": args.alpha, "scale": args.scale, "beta": args.beta,
        "n": args.n, "m": args.m, "T": args.T, "seed": args.seed,
        "drift": args.drift, "fine_multiplier": args.fine_multiplier,
        "x0": args.x0,
    }
    try:
        write_series(args.output, increments.reshape(-1), config)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.m} blocks x {increments.shape[1]} increments to {args.output}")
    return EXIT_OK


GRID_WINDOW = ("p_min", "p_max", "p_step", "c_min", "c_max", "c_step")
"""The GridConfig fields set by the --p-min ... --c-step options."""


def cmd_estimate(args) -> int:
    try:
        increments, header_n = read_series(args.input)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CSVParseError as exc:
        print(f"parse failure in {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    n = args.n or header_n
    if not n:
        print("block size n is required (flag --n or file header)", file=sys.stderr)
        return EXIT_GRID

    try:
        cfg = GridConfig(
            **{name: getattr(args, name) for name in GRID_WINDOW}, refine=not args.no_refine
        )
        blocks = block_split(increments, n, demean=args.demean)
        # one log|blocks| serves the surface, the refine and --fixed-c
        log_blocks = log_abs(blocks)
        result = estimate(blocks, cfg, log_blocks)
        fixed = None
        if args.fixed_c is not None:
            fixed = ks_surface(log_blocks, [args.fixed_c], result.surface.p_grid)
    except (EstimationError, ValueError) as exc:
        print(f"estimation aborted: {exc}", file=sys.stderr)
        return EXIT_GRID

    base = args.output
    try:
        _write_surface(base + ".surface.csv", result)
        _write_slice(base + ".slice.csv", result)
        _write_result(base + ".result.txt", result, blocks.shape)
        if fixed is not None:
            _write_fixed_c(base + ".fixedc.csv", fixed)
        if args.gnuplot:
            _write_gnuplot(base + ".gp", base)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"alpha* = {result.alpha_star:.6g}")
    print(f"C*     = {result.c_star:.6g}")
    print(f"D_min  = {result.d_min:.6g}")
    if result.boundary:
        print("warning: minimum on the search-grid boundary")
    if result.tie_count > 1:
        print(f"warning: {result.tie_count} grid cells tie at the minimum")
    return EXIT_OK


def _write_surface(path, result):
    surf = result.surface
    c = np.repeat(surf.c_grid, len(surf.p_grid))
    p = np.tile(surf.p_grid, len(surf.c_grid))
    _write_rows(path, "C,p,D", [c, p, surf.d_values.ravel()])


def _write_slice(path, result):
    p, c, d = result.slice_best_c.T
    _write_rows(path, "p,alpha,best_C,D", [p, p / 2.0, c, d])


def _write_result(path, result, shape):
    m, n = shape
    lines = [
        f"alpha_star {result.alpha_star!r}",
        f"c_star {result.c_star!r}",
        f"p_star {result.p_star!r}",
        f"d_min {result.d_min!r}",
        f"m {m}",
        f"n {n}",
        f"boundary {result.boundary}",
        f"tie_count {result.tie_count}",
    ]
    for k, (c, p, d) in enumerate(result.local_minima[:8]):
        lines.append(f"local_min_{k} C={c!r} p={p!r} D={d!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_fixed_c(path, fixed):
    _write_rows(path, "p,alpha,D", [fixed.p_grid, fixed.p_grid / 2.0, fixed.d_values[0]])


def _write_gnuplot(path, base):
    # gnuplot writes a ' inside a single-quoted string as ''
    quoted = base.replace("'", "''")
    script = (
        "set datafile separator ','\n"
        "set xlabel 'alpha = p/2'\n"
        "set ylabel 'D'\n"
        f"plot '{quoted}.slice.csv' using 2:4 skip 1 with lines title 'D_n(C*, p/2)'\n"
    )
    with open(path, "w") as fh:
        fh.write(script)


def cmd_verify(args) -> int:
    if args.scenario not in SCENARIOS:
        print(
            f"unknown scenario {args.scenario!r}; choose from {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return EXIT_SCENARIO
    try:
        check_sizes(args.m, args.n)
    except ValueError as exc:
        print(f"infeasible scenario size: {exc}", file=sys.stderr)
        return EXIT_GRID
    report = run_scenario(args.scenario, seed=args.seed, m=args.m, n=args.n)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{report.name}: KS statistic {report.statistic:.5f} "
        f"threshold {report.threshold:.5f} -> {verdict}"
    )
    return EXIT_OK if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablevar",
        description="Stable Levy noise simulation and stability-index estimation "
        "from p-variation statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate m SDE blocks and write a CSV")
    sim.add_argument("--alpha", type=float, default=0.75)
    sim.add_argument("--scale", type=float, default=6.35)
    sim.add_argument("--beta", type=float, default=0.0)
    sim.add_argument("--n", type=int, default=200, help="points per block")
    sim.add_argument("--m", type=int, default=200, help="number of blocks")
    sim.add_argument("--T", type=float, default=1.0, help="horizon per block")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--drift", choices=list(DRIFTS), default="cos")
    sim.add_argument("--fine-multiplier", type=int, default=16)
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate (alpha, C) from a series CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--output", required=True, help="output base path")
    est.add_argument("--n", type=int, default=0, help="points per block (or from header)")
    est.add_argument("--demean", action="store_true", help="remove per-block mean increment")
    for name in GRID_WINDOW:
        est.add_argument("--" + name.replace("_", "-"), type=float,
                         default=getattr(GridConfig, name))
    est.add_argument("--no-refine", action="store_true")
    est.add_argument("--fixed-c", type=float, default=None,
                     help="also emit the D(p) slice at this fixed C > 0")
    est.add_argument("--gnuplot", action="store_true")
    est.set_defaults(func=cmd_estimate)

    ver = sub.add_parser("verify", help="run a named convergence scenario")
    ver.add_argument("--scenario", required=True)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--m", type=int, default=2000)
    ver.add_argument("--n", type=int, default=10000)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
