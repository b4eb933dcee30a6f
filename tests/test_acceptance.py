"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts; the asserts make pytest enforce them either way.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from stablevar.cli import main
from stablevar.estimator import GridConfig, block_split, estimate, ks_distance
from stablevar.limit_law import limit_scale, ref_cdf_half_stable
from stablevar.path_sim import PathSample, simulate_levy
from stablevar.pvariation import terminal_pvariation
from stablevar.scenarios import ks_threshold, run_scenario
from stablevar.stable_law import RandomStream, StableParams, abs_moment, sample_stable, sin_moment


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def read_result(base: str) -> dict:
    out = {}
    for line in open(base + ".result.txt"):
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


class TestAcceptance:
    def test_ac1_simulated_experiment(self, tmp_path):
        # m=200 blocks of n=200 points, cosine drift, alpha=0.75, C=6.35;
        # the estimates must land in the calibrated ranges in >= 8 of 10 seeds
        hits = 0
        results = []
        for seed in range(10):
            sim = str(tmp_path / f"sim{seed}.csv")
            base = str(tmp_path / f"est{seed}")
            assert main([
                "simulate", "--alpha", "0.75", "--scale", "6.35",
                "--n", "200", "--m", "200", "--seed", str(seed),
                "--drift", "cos", "--fine-multiplier", "16", "--output", sim,
            ]) == 0
            assert main(["estimate", "--input", sim, "--output", base]) == 0
            res = read_result(base)
            a, c, d = (float(res[k]) for k in ("alpha_star", "c_star", "d_min"))
            ok = 0.65 <= a <= 0.85 and 5.4 <= c <= 7.3 and d < 0.15
            hits += ok
            results.append((seed, a, c, d, ok))
        detail = f"{hits}/10 seeds in range; last alpha*={results[-1][1]:.3f}"
        report("AC-1", hits >= 8, detail)
        assert hits >= 8, results

    def test_ac2_uncompensated_above_alpha(self):
        rep = run_scenario("thm1-sub", seed=1, m=2000, n=10_000)
        report("AC-2", rep.passed, f"KS {rep.statistic:.4f} < {rep.threshold:.4f}")
        assert rep.passed

    def test_ac3_compensated_between(self):
        rep = run_scenario("thm1-comp", seed=1, m=2000, n=10_000)
        report("AC-3", rep.passed, f"KS {rep.statistic:.4f} < {rep.threshold:.4f}")
        assert rep.passed

    def test_ac4_lipschitz_perturbation(self):
        rep = run_scenario("thm3-lipschitz", seed=1, m=2000, n=10_000)
        report("AC-4", rep.passed, f"KS {rep.statistic:.4f} < {rep.threshold:.4f}")
        assert rep.passed

    def test_ac5_sde_vs_levy(self):
        rep = run_scenario("cor-sde", seed=1, m=2000, n=10_000)
        report("AC-5", rep.passed, f"KS {rep.statistic:.4f} < {rep.threshold:.4f}")
        assert rep.passed

    def test_ac6_formula_units(self):
        checks = []

        # scale transfer is the identity at alpha = p = 1, exactly, and at
        # alpha = p elsewhere lies between its one-sided limits
        checks.append(limit_scale(StableParams(1.0, 4.2), 1.0).scale_C == 4.2)
        sided = [limit_scale(StableParams(1.3, 4.2), 1.3 * (1.0 + e)).scale_C for e in (-1e-9, 1e-9)]
        checks.append(min(sided) <= limit_scale(StableParams(1.3, 4.2), 1.3).scale_C <= max(sided))

        # reference CDF against direct density quadrature on a 100-point log grid
        c = 1.9
        dens = lambda y: math.sqrt(c / (2.0 * math.pi)) * math.exp(-c / (2.0 * y)) * y**-1.5
        tail = lambda t: math.sqrt(c / (2.0 * math.pi)) * math.exp(-c * t / 2.0) / math.sqrt(t)
        max_err = 0.0
        for x in np.logspace(-2, 4, 100) * c:
            if x <= 10.0 * c:
                ref, _ = integrate.quad(dens, 0.0, x, limit=400, epsabs=1e-13, epsrel=1e-13)
            else:
                v, _ = integrate.quad(tail, 0.0, 1.0 / x, limit=400, epsabs=1e-13, epsrel=1e-13)
                ref = 1.0 - v
            max_err = max(max_err, abs(ref_cdf_half_stable(c, x) - ref))
        checks.append(max_err <= 1e-10)

        # absolute moments: closed form to 1e-4 relative and 1e7-draw MC to 3 SE
        closed = lambda a, cc, p: (
            cc**p * 2**p * gamma_fn((1 + p) / 2) * gamma_fn(1 - p / a)
            / (gamma_fn(1 - p / 2) * math.sqrt(math.pi))
        )
        mc_ok = True
        for i, (a, p) in enumerate([(1.5, 0.7), (1.9, 0.9), (0.75, 0.3)]):
            params = StableParams(a, 2.0)
            v = abs_moment(params, p)
            checks.append(abs(v - closed(a, 2.0, p)) <= 1e-4 * closed(a, 2.0, p))
            w = np.abs(sample_stable(params, RandomStream(100 + i), size=10_000_000)) ** p
            se = w.std() / math.sqrt(len(w))
            mc_ok = mc_ok and abs(v - w.mean()) < 3.0 * se
        checks.append(mc_ok)

        # sin moment against Monte Carlo to 3 SE
        params = StableParams(1.2, 1.5)
        v = sin_moment(params, 100)
        x = np.sin(np.abs(sample_stable(params, RandomStream(103), size=2_000_000)) ** 1.2 / 100)
        se = x.std() / math.sqrt(len(x))
        checks.append(abs(v - x.mean()) < 3.0 * se)

        ok = all(checks)
        report("AC-6", ok, f"{sum(checks)}/{len(checks)} unit checks, cdf err {max_err:.1e}")
        assert ok, checks

    def test_ac7_invariants(self):
        checks = []

        path = simulate_levy(StableParams(1.2, 1.0), 500, 1.0, RandomStream(200))
        p = 1.4

        # scaling: V_p(c X) = c^p V_p(X) up to float rounding
        c = 3.7
        scaled = PathSample(path.n, path.horizon_T, c * path.values)
        checks.append(np.allclose(
            terminal_pvariation(scaled.increments(), p),
            c**p * terminal_pvariation(path.increments(), p), rtol=1e-11,
        ))

        # translation invariance
        shifted = PathSample(path.n, path.horizon_T, path.values + 17.5)
        checks.append(np.allclose(
            terminal_pvariation(path.increments(), p),
            terminal_pvariation(shifted.increments(), p), rtol=1e-9, atol=1e-12,
        ))

        # ks_distance against a brute-force sup over a dense grid plus jumps
        values = np.random.default_rng(201).gamma(2.0, 2.0, size=200)
        cp = 1.7
        xs = np.sort(values)
        grid = np.concatenate([np.linspace(1e-4, xs[-1] * 3, 200_001), xs, xs - 1e-12])
        g = np.searchsorted(xs, grid, side="right") / len(values)
        brute = np.max(np.abs(g - ref_cdf_half_stable(cp, grid)))
        checks.append(abs(ks_distance(values, cp) - brute) <= 1e-6)

        # estimator scale equivariance at lambda = 2
        lam = 2.0
        inc = np.concatenate([
            simulate_levy(StableParams(0.9, 1.5), 200, 1.0, RandomStream(202, i)).increments()
            for i in range(80)
        ])
        blocks = block_split(inc, 200)
        cfg = GridConfig(c_min=0.5, c_max=8.0, c_step=0.05, p_min=1.2, p_max=2.4,
                         p_step=0.05, refine=False)
        cfg2 = GridConfig(c_min=lam * 0.5, c_max=lam * 8.0, c_step=lam * 0.05,
                          p_min=1.2, p_max=2.4, p_step=0.05, refine=False)
        r1, r2 = estimate(blocks, cfg), estimate(lam * blocks, cfg2)
        checks.append(
            abs(r2.p_star - r1.p_star) < 1e-9
            and abs(r2.c_star - lam * r1.c_star) < 1e-6 * r1.c_star
            and abs(r2.d_min - r1.d_min) < 1e-9
        )

        ok = all(checks)
        report("AC-7", ok, f"{sum(checks)}/{len(checks)} invariant checks")
        assert ok, checks
