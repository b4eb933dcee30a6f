"""The benchmark's workloads: inputs made from a seed, one timed op, and the
check of each op's output.

Every workload is a closed loop with one client: op i+1 starts only after op
i has finished and been checked. The program receives only the inputs built
here; the seed never reaches it directly.

Warm-up ops use inputs that no timed op uses (an odd simulate seed for fit, a
seed outside the scenario pool and smaller sizes for verify, a block length
outside SIZES for compensate), so a cache added to the program later cannot
be filled before timing starts.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# AC-1 setup: the defaults of `stablevar simulate`, spelled out so that a
# change of defaults does not silently change the workload.
FIT_SIMULATE = [
    "--alpha", "0.75", "--scale", "6.35", "--beta", "0",
    "--m", "200", "--n", "200", "--fine-multiplier", "16", "--drift", "cos",
]
FIT_VALUES = 200 * 200
FIT_SURFACE_CELLS = 57 * 79  # default p grid 0.8..3.6 by 0.05, C grid 0.5..20 by 0.25
# "in range" is the AC-1 acceptance window around alpha=0.75, C=6.35
FIT_ALPHA_RANGE = (0.65, 0.85)
FIT_C_RANGE = (5.4, 7.3)
FIT_D_MAX = 0.15

VERIFY_SCENARIOS = ("thm1-sub", "thm1-comp", "thm3-lipschitz", "cor-sde")
VERIFY_M, VERIFY_N = 2000, 10000

# (alpha, scale, beta, p): regimes of compensated_terminal that no scenario
# reaches. p = alpha goes through sin_moment (symmetric and skewed); the
# skewed alpha/2 < p < alpha case goes through abs_moment and tail_prob.
COMPENSATE_REGIMES = (
    (1.5, 1.0, 0.0, 1.5),
    (1.2, 2.0, 0.5, 1.2),
    (0.75, 1.0, -0.3, 0.5),
)
COMPENSATE_SIZES = (64, 128, 256, 512)
COMPENSATE_WARM_UP = (1.5, 1.0, 0.0, 1.5, 32)

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def compensate_key(alpha, scale, beta, p, n) -> str:
    return f"alpha={alpha!r},scale={scale!r},beta={beta!r},p={p!r},n={n}"


def compensate_keys():
    """Every (params, p, n) the compensate workload evaluates, warm-up first."""
    keys = [COMPENSATE_WARM_UP]
    keys += [(*r, n) for r in COMPENSATE_REGIMES for n in COMPENSATE_SIZES]
    return keys


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


class FitWorkload:
    """AC-1 pipeline: `simulate` then `estimate` through cli.main, in process."""

    name = "fit"

    def __init__(self, sv, seed: int, refs: dict, workdir: str):
        self.cli = sv.cli
        self.seed = seed
        self.csv = os.path.join(workdir, "fit.csv")
        self.base = os.path.join(workdir, "fit")
        self.fits = []

    def op_seed(self, i: int) -> int:
        # timed ops use even simulate seeds, the warm-up an odd one
        return 2 * (100_000 * self.seed + i)

    def key(self, i: int):
        return self.op_seed(i)

    def _run(self, seed: int, simulate_args):
        rc_sim = self.cli.main(["simulate", *simulate_args, "--seed", str(seed), "--output", self.csv])
        if rc_sim != 0:
            return rc_sim, None
        return rc_sim, self.cli.main(["estimate", "--input", self.csv, "--output", self.base])

    def warm_up(self) -> None:
        small = ["--m", "40", "--n", "50", "--fine-multiplier", "2"]
        rc = self._run(2 * (100_000 * self.seed) + 1, small)
        if rc != (0, 0):
            raise RuntimeError(f"fit warm-up exit codes {rc}")

    def op(self, i: int):
        return self._run(self.op_seed(i), FIT_SIMULATE)

    def check(self, i: int, result) -> list[str]:
        if result != (0, 0):
            return [f"exit codes (simulate, estimate) = {result}"]
        problems = check_series_csv(self.csv, FIT_VALUES)
        fit, more = check_estimate_outputs(self.base, FIT_SURFACE_CELLS)
        problems += more
        if not problems:
            self.fits.append(fit)
        return problems

    def summary(self) -> dict:
        inside = [
            FIT_ALPHA_RANGE[0] <= f["alpha_star"] <= FIT_ALPHA_RANGE[1]
            and FIT_C_RANGE[0] <= f["c_star"] <= FIT_C_RANGE[1]
            and f["d_min"] < FIT_D_MAX
            for f in self.fits
        ]
        return {"in_range_frac": sum(inside) / len(inside) if inside else 0.0}


def check_series_csv(path: str, expected_values: int) -> list[str]:
    """The simulate output: a '# stablevar v1 {json}' header, then one
    'index,value' line per increment, every value finite."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    magic = "# stablevar v1 "
    if not lines or not lines[0].startswith(magic):
        return [f"{path}: missing '{magic.strip()}' header"]
    try:
        json.loads(lines[0][len(magic):])
        values = [float(line.split(",")[1]) for line in lines[1:]]
    except (ValueError, IndexError) as exc:
        return [f"{path}: does not parse: {exc}"]
    if len(values) != expected_values:
        return [f"{path}: {len(values)} values, expected {expected_values}"]
    if not all(math.isfinite(v) for v in values):
        return [f"{path}: non-finite value"]
    return []


def check_estimate_outputs(base: str, expected_cells: int):
    """The estimate outputs: result.txt with finite alpha*, C*, p*, D_min and
    alpha* = p*/2; a surface of expected_cells distances in [0, 1] whose
    minimum is not below D_min; and a slice file that parses."""
    fit = {}
    try:
        with open(base + ".result.txt") as fh:
            for line in fh:
                key, _, value = line.partition(" ")
                if key in ("alpha_star", "c_star", "p_star", "d_min"):
                    fit[key] = float(value)
        with open(base + ".surface.csv") as fh:
            rows = fh.read().splitlines()
        d_values = [float(r.split(",")[2]) for r in rows[1:]]
        with open(base + ".slice.csv") as fh:
            slice_rows = [[float(x) for x in r.split(",")] for r in fh.read().splitlines()[1:]]
    except (OSError, ValueError, IndexError) as exc:
        return fit, [f"{base}.*: does not parse: {exc}"]
    if len(fit) != 4 or not all(math.isfinite(v) for v in fit.values()):
        return fit, [f"{base}.result.txt: missing or non-finite estimates {fit}"]
    problems = []
    if abs(fit["alpha_star"] - fit["p_star"] / 2.0) > 1e-12 * fit["p_star"]:
        problems.append(f"alpha* {fit['alpha_star']} != p*/2 {fit['p_star'] / 2}")
    if len(d_values) != expected_cells:
        problems.append(f"surface has {len(d_values)} cells, expected {expected_cells}")
    elif not all(0.0 <= d <= 1.0 for d in d_values):
        problems.append("surface distance outside [0, 1]")
    elif fit["d_min"] > min(d_values) + 1e-12:
        problems.append(f"D_min {fit['d_min']} above the surface minimum {min(d_values)}")
    if not slice_rows or any(len(r) != 4 for r in slice_rows):
        problems.append("slice file malformed")
    return fit, problems


class VerifyWorkload:
    """One round of the paper's convergence checks: the four scenarios at
    m=2000, n=10000, then compensate's op i (one compensated terminal
    statistic in a regime no scenario reaches). The compensator share is
    small (about 0.5 s of 11-13 s), so the round stays dominated by CMS
    draws and the |x|^p kernel while the quadrature layer is still measured
    on a workload whose timings are steady."""

    name = "verify"

    def __init__(self, sv, seed: int, refs: dict, workdir: str):
        self.scenarios = sv.scenarios
        self.pool = refs["verify"]["pool"]
        self.seed = seed
        self.compensate = CompensateWorkload(sv, seed, refs, workdir)

    def scenario_seed(self, i: int) -> int:
        return self.pool[(self.seed + i) % len(self.pool)]

    def key(self, i: int):
        return self.scenario_seed(i), self.compensate.key(i)

    def warm_up(self) -> None:
        seed = max(self.pool) + 1 + self.seed
        for name in VERIFY_SCENARIOS:
            self.scenarios.run_scenario(name, seed=seed, m=200, n=1000)
        self.compensate.warm_up()

    def op(self, i: int):
        seed = self.scenario_seed(i)
        reports = [self.scenarios.run_scenario(name, seed=seed, m=VERIFY_M, n=VERIFY_N)
                   for name in VERIFY_SCENARIOS]
        return reports, self.compensate.op(i)

    def check(self, i: int, result) -> list[str]:
        reports, compensated = result
        return check_scenario_reports(reports, self.scenario_seed(i)) + self.compensate.check(i, compensated)

    def summary(self) -> dict:
        return {}


def check_scenario_reports(reports, seed) -> list[str]:
    problems = []
    for name, r in zip(VERIFY_SCENARIOS, reports):
        if not (math.isfinite(r.statistic) and r.passed and r.statistic < r.threshold):
            problems.append(f"{name} seed {seed}: KS {r.statistic} vs threshold {r.threshold} -> FAIL")
    if len(reports) != len(VERIFY_SCENARIOS):
        problems.append(f"{len(reports)} reports for {len(VERIFY_SCENARIOS)} scenarios")
    return problems


class CompensateWorkload:
    """compensated_terminal on short simulate_levy paths. Op i takes regime
    i mod 3 (so every run holds the regimes in equal shares), a block length
    drawn from COMPENSATE_SIZES by (seed, i), and its own path stream."""

    name = "compensate"

    def __init__(self, sv, seed: int, refs: dict, workdir: str):
        self.sv = sv
        self.seed = seed
        self.refs = refs["compensate"]

    def key(self, i: int):
        regime = COMPENSATE_REGIMES[i % len(COMPENSATE_REGIMES)]
        n = COMPENSATE_SIZES[int(np.random.default_rng([self.seed, i]).integers(len(COMPENSATE_SIZES)))]
        return (*regime, n)

    def _run(self, key, stream_seed: int):
        alpha, scale, beta, p, n = key
        params = self.sv.stable_law.StableParams(alpha, scale, beta)
        stream = self.sv.stable_law.RandomStream(stream_seed, 0)
        path = self.sv.path_sim.simulate_levy(params, n, 1.0, stream)
        return key, path, self.sv.pvariation.compensated_terminal(path, p, params)

    def warm_up(self) -> None:
        problems = check_compensated(self._run(COMPENSATE_WARM_UP, 2 * self.seed + 1), self.refs)
        if problems:
            raise RuntimeError(f"compensate warm-up: {problems}")

    def op(self, i: int):
        return self._run(self.key(i), 2 * (100_000 * self.seed + i))

    def check(self, i: int, result) -> list[str]:
        return check_compensated(result, self.refs)

    def summary(self) -> dict:
        return {}


def check_compensated(result, refs: dict) -> list[str]:
    """Recover the compensator B from V - n B and compare it with the
    reference value for (params, p, n) within its documented accuracy."""
    key, path, value = result
    *_, p, n = key
    ref = refs.get(compensate_key(*key))
    if ref is None:
        return [f"no reference value for {compensate_key(*key)}"]
    increments = np.diff(np.asarray(path.values, dtype=float))
    if len(increments) != n:
        return [f"path has {len(increments)} increments, expected {n}"]
    v = float(np.sum(np.abs(increments) ** p))
    b = (v - float(value)) / n
    tolerance = ref["tolerance"] + 1e-12 * v / n
    if not abs(b - ref["compensator"]) <= tolerance:
        return [f"{compensate_key(*key)}: compensator {b!r} differs from reference "
                f"{ref['compensator']!r} by more than {tolerance:.3g}"]
    return []


WORKLOADS = {w.name: w for w in (FitWorkload, VerifyWorkload, CompensateWorkload)}
