"""Command-line interface: simulate blocks of SDE data, estimate (alpha, C)
from a series, and run the convergence-test scenarios.

CSV format: UTF-8 text, a header line '# stablevar v1 <json-object>', then one
level per line or 'index,value' increment lines, as the header's "mode" says;
read_series alone reads the format and returns increments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from stablevar.estimator import EstimationError, GridConfig, block_split, estimate, ks_surface
from stablevar.path_sim import simulate_sde_batch
from stablevar.stable_law import RandomStream, StableParams
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


def write_series(path: str, values: np.ndarray, config: dict) -> None:
    """Write values as an increments file: 'index,value' lines under a header
    holding config with its "mode" set to "increments"."""
    lines = [MAGIC + json.dumps({**config, "mode": "increments"}, sort_keys=True)]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path: str) -> tuple[np.ndarray, int | None]:
    """Return the file's increments and its header's block size n (or None).
    Levels (header mode "levels", or no mode) are differenced here as
    np.diff(values, prepend=values[0]), so the first increment is zero; a
    level whose difference from the one before overflows is a parse error
    on its line."""
    config: dict = {}
    values = []
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CSVParseError(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc}") from exc
    start = 0
    if raw and raw[0].startswith(MAGIC):
        try:
            config = json.loads(raw[0][len(MAGIC):])
        except json.JSONDecodeError as exc:
            raise CSVParseError(1, f"bad header JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise CSVParseError(1, "header JSON is not an object")
        start = 1
    mode = config.get("mode", "levels")
    if mode not in ("levels", "increments"):
        raise CSVParseError(1, f'header mode {json.dumps(mode)} is not "levels" or "increments"')
    n = config.get("n")
    if "n" in config and (type(n) is not int or n < 1):
        raise CSVParseError(1, f"header n {json.dumps(n)} is not an integer >= 1")
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


def cmd_simulate(args) -> int:
    try:
        params = StableParams(args.alpha, args.scale, args.beta)
        if min(args.m, args.n, args.fine_multiplier) < 1 or not 1.0 <= args.n * args.T < math.inf:
            raise ValueError(
                "--m, --n and --fine-multiplier must be >= 1 and n*T finite and >= 1, got m="
                f"{args.m}, n={args.n}, fine multiplier={args.fine_multiplier}, T={args.T!r}")
        if not math.isfinite(args.x0):
            raise ValueError(f"--x0 must be finite, got {args.x0!r}")
        streams = [RandomStream(args.seed, i) for i in range(args.m)]
        # a path that overflows is reported below, not warned about
        with np.errstate(all="ignore"):
            increments = simulate_sde_batch(
                args.x0, DRIFTS[args.drift], params,
                n_fine=args.fine_multiplier * args.n, n_obs=args.n, T=args.T,
                streams=streams,
            )
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
        result = estimate(blocks, cfg)
        fixed = None
        if args.fixed_c is not None:
            fixed = ks_surface(blocks, [args.fixed_c], result.surface.p_grid)
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


def _write_rows(path, header, columns):
    """Write a CSV of the header line, then one line per row of the equal
    length 1-D float arrays in columns, each value as its shortest repr."""
    text = [map(repr, col.tolist()) for col in columns]
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*text))]) + "\n")


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
        print(f"too few blocks: {exc}", file=sys.stderr)
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
