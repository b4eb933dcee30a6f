"""Generate perfbench/refs.json, the reference data the benchmark checks
ops against. Run from the repository root:

    python3 perfbench/make_refs.py

compensate: the compensator B_n(alpha, p) for every (params, p, n) the
workload evaluates, computed by the program at the commit that generated the
file. The tolerance is the accuracy each function documents: 1e-6 absolute
for sin_moment (p = alpha); abs_moment documents none, so its QUADPACK
request, 1e-6 relative, is used. The skewed abs_moment values are also
compared with the closed form of Samorodnitsky and Taqqu (1994, Property
1.2.17), which the program does not use.

verify: every scenario round for seeds 0..VERIFY_SEEDS-1 at m=2000,
n=10000, with each KS statistic. Each scenario is a two-sample KS test that fails on some seeds
at any commit; the benchmark draws its seeds from the ones on which all four
scenarios pass at the generating commit, and the file keeps the failing
seeds and their statistics.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import gamma  # noqa: E402

from stablevar.pvariation import compensator  # noqa: E402
from stablevar.scenarios import run_scenario  # noqa: E402
from stablevar.stable_law import StableParams  # noqa: E402

import workloads  # noqa: E402

VERIFY_SEEDS = 32


def closed_form_abs_moment(alpha, scale, beta, p):
    """E|X|^p of S_alpha(C, beta, 0) for -1 < p < alpha, p != 1."""
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    return (
        scale**p * gamma(1.0 - p / alpha) / (gamma(1.0 - p) * math.cos(math.pi * p / 2.0))
        * (1.0 + zeta * zeta) ** (p / (2.0 * alpha)) * math.cos(p / alpha * math.atan(zeta))
    )


def compensate_refs() -> dict:
    refs = {}
    for key in workloads.compensate_keys():
        alpha, scale, beta, p, n = key
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = compensator(StableParams(alpha, scale, beta), p, n)
        entry = {"compensator": b}
        if p == alpha:
            entry["function"] = "sin_moment"
            entry["tolerance"] = 1e-6
        else:
            entry["function"] = "abs_moment"
            entry["tolerance"] = 1e-6 * abs(b)
            entry["closed_form"] = n ** (-p / alpha) * closed_form_abs_moment(alpha, scale, beta, p)
            if abs(entry["closed_form"] - b) > entry["tolerance"]:
                raise SystemExit(f"{key}: program {b!r} vs closed form {entry['closed_form']!r}")
        refs[workloads.compensate_key(*key)] = entry
        print(workloads.compensate_key(*key), entry, flush=True)
    return refs


def verify_refs(n_seeds: int) -> dict:
    surveyed = []
    for seed in range(n_seeds):
        stats = {}
        passed = True
        for name in workloads.VERIFY_SCENARIOS:
            r = run_scenario(name, seed=seed, m=workloads.VERIFY_M, n=workloads.VERIFY_N)
            stats[name] = r.statistic
            passed = passed and r.passed
        surveyed.append({"seed": seed, "passed": passed, "statistics": stats})
        print(surveyed[-1], flush=True)
    return {
        "m": workloads.VERIFY_M,
        "n": workloads.VERIFY_N,
        "threshold": 1.52 * math.sqrt(2.0 / workloads.VERIFY_M),
        "pool": [s["seed"] for s in surveyed if s["passed"]],
        "surveyed": surveyed,
    }


def main() -> None:
    refs = {
        "generated_with": {"numpy": np.__version__, "scipy": scipy.__version__,
                           "python": sys.version.split()[0]},
        "compensate": compensate_refs(),
        "verify": verify_refs(VERIFY_SEEDS),
    }
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
