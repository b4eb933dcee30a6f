"""Command-line interface: simulate blocks of SDE data, estimate (alpha, C)
from a series, and run the convergence-test scenarios.

CSV format: a header line '# stablevar v1 <json-config>', then one value per
line in levels mode or 'index,value' lines in increments mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from stablevar.estimator import EstimationError, GridConfig, block_split, estimate, ks_surface
from stablevar.path_sim import DriftSpec, simulate_sde_batch
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
    mode = config.get("mode", "levels")
    lines = [MAGIC + json.dumps(config, sort_keys=True)]
    if mode == "increments":
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
    else:
        lines.extend(f"{float(v)!r}" for v in values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path: str) -> tuple[np.ndarray, dict]:
    config: dict = {}
    values = []
    with open(path) as fh:
        raw = fh.read().splitlines()
    start = 0
    if raw and raw[0].startswith(MAGIC):
        try:
            config = json.loads(raw[0][len(MAGIC):])
        except json.JSONDecodeError as exc:
            raise CSVParseError(1, f"bad header JSON: {exc}") from exc
        start = 1
    mode = config.get("mode", "levels")
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
        except ValueError as exc:
            raise CSVParseError(k, str(exc)) from exc
        values.append(value)
    if not values:
        raise CSVParseError(len(raw) + 1, "no data lines found")
    return np.asarray(values), config


def cmd_simulate(args) -> int:
    try:
        params = StableParams(args.alpha, args.scale, args.beta)
        if min(args.m, args.n, args.fine_multiplier) < 1 or not 1.0 <= args.n * args.T < math.inf:
            raise ValueError(
                "--m, --n and --fine-multiplier must be >= 1 and n*T finite and >= 1, got m="
                f"{args.m}, n={args.n}, fine multiplier={args.fine_multiplier}, T={args.T!r}")
    except ValueError as exc:
        print(f"infeasible simulation: {exc}", file=sys.stderr)
        return EXIT_GRID
    drift = DriftSpec("cosine" if args.drift == "cos" else "zero")
    streams = [RandomStream(args.seed, i) for i in range(args.m)]
    increments = simulate_sde_batch(
        args.x0, drift, params,
        n_fine=args.fine_multiplier * args.n, n_obs=args.n, T=args.T,
        streams=streams,
    )
    config = {
        "mode": "increments",
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
        series, header = read_series(args.input)
    except FileNotFoundError:
        print(f"no such input file: {args.input}", file=sys.stderr)
        return EXIT_PARSE
    except CSVParseError as exc:
        print(f"parse failure in {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    mode = args.mode or header.get("mode", "levels")
    n = args.n or header.get("n")
    if not n:
        print("block size n is required (flag --n or file header)", file=sys.stderr)
        return EXIT_GRID

    try:
        cfg = GridConfig(
            **{name: getattr(args, name) for name in GRID_WINDOW}, refine=not args.no_refine
        )
        blocked = block_split(series, int(n), mode=mode, demean=args.demean)
        result = estimate(blocked, cfg)
        fixed = None
        if args.fixed_c is not None:
            fixed = ks_surface(blocked, [args.fixed_c], result.surface.p_grid)
    except (EstimationError, ValueError) as exc:
        print(f"estimation aborted: {exc}", file=sys.stderr)
        return EXIT_GRID

    base = args.output
    try:
        _write_surface(base + ".surface.csv", result)
        _write_slice(base + ".slice.csv", result)
        _write_result(base + ".result.txt", result, blocked)
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
    if result.surface.boundary:
        print("warning: minimum on the search-grid boundary")
    if result.surface.tie_count > 1:
        print(f"warning: {result.surface.tie_count} grid cells tie at the minimum")
    return EXIT_OK


def _write_surface(path, result):
    surf = result.surface
    with open(path, "w") as fh:
        fh.write("C,p,D\n")
        for i, c in enumerate(surf.c_grid):
            for j, p in enumerate(surf.p_grid):
                fh.write(f"{float(c)!r},{float(p)!r},{float(surf.d_values[i, j])!r}\n")


def _write_slice(path, result):
    with open(path, "w") as fh:
        fh.write("p,alpha,best_C,D\n")
        for p, c, d in result.slice_best_c:
            fh.write(f"{float(p)!r},{float(p) / 2.0!r},{float(c)!r},{float(d)!r}\n")


def _write_result(path, result, blocked):
    lines = [
        f"alpha_star {result.alpha_star!r}",
        f"c_star {result.c_star!r}",
        f"p_star {result.p_star!r}",
        f"d_min {result.d_min!r}",
        f"m {blocked.m}",
        f"n {blocked.n}",
        f"boundary {result.surface.boundary}",
        f"tie_count {result.surface.tie_count}",
    ]
    for k, (c, p, d) in enumerate(result.surface.local_minima[:8]):
        lines.append(f"local_min_{k} C={c!r} p={p!r} D={d!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_fixed_c(path, fixed):
    with open(path, "w") as fh:
        fh.write("p,alpha,D\n")
        for p, d in zip(fixed.p_grid, fixed.d_values[0]):
            fh.write(f"{float(p)!r},{float(p) / 2.0!r},{float(d)!r}\n")


def _write_gnuplot(path, base):
    script = (
        "set datafile separator ','\n"
        "set xlabel 'alpha = p/2'\n"
        "set ylabel 'D'\n"
        f"plot '{base}.slice.csv' using 2:4 skip 1 with lines title 'D_n(C*, p/2)'\n"
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
    sim.add_argument("--drift", choices=["zero", "cos"], default="cos")
    sim.add_argument("--fine-multiplier", type=int, default=16)
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate (alpha, C) from a series CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--output", required=True, help="output base path")
    est.add_argument("--n", type=int, default=0, help="points per block (or from header)")
    est.add_argument("--mode", choices=["levels", "increments"], default=None)
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
