"""Golden hashes: sha256 digests of outputs that refactors must keep bit for bit.

The digests cover `stablevar simulate` CSV bytes, `estimate` output files, the
scenario statistic samples and `simulate_levy` paths. Float results depend on
the host's libm and SIMD code paths, so each digest is only checked on the
numpy version and machine it was recorded on; elsewhere the test skips and
says why.

A change that is meant to alter output bits must update the digests and say
so. Print the current digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from stablevar import scenarios
from stablevar.cli import main, write_series
from stablevar.path_sim import simulate_levy
from stablevar.pvariation import compensator
from stablevar.scenarios import levy_statistic_sample, sde_statistic_pairs
from stablevar.stable_law import RandomStream, StableParams

RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64"}

GOLDEN = {
    "simulate.csv":
        "c5a84ef94da02933f4dea427ae499b9b7a95e587bb3ee8716257a5ab83c26220",
    "estimate.surface.csv":
        "856918d53340dddbaa1b074fa8a746d72005aad3451360cc02e986c2854e3eab",
    "estimate.slice.csv":
        "645a790c5aeb4477c3b2d514f29e5da16f63c25e0fb6843a560a24bc20644a77",
    "estimate.result.txt":
        "bd70c996d63215de3319d2aa14c2a38410866e4a0c2d3ea24991f3251b0c4837",
    "estimate.fixedc.csv":
        "048a9db1d70226df0bf1c083ae32b2eccd7fd229c3ce76a7ca1046b6fac75a57",
    "levy.thm1-sub":
        "e8da3540d551d7d9cb79f9a1d419f09126521d043c12cd42b6e157012d70a358",
    "levy.thm1-sub.two-blocks":
        "4141683ec9e157b08c4cb2b41a4d6d443e3f1f3fb6f0465c471deb3ea415b422",
    "levy.thm1-comp":
        "8779da12e02ee8aa107f50f2553b5c1c16f909cfc50dad5b89e9c30f1ae87d27",
    "levy.thm3-lipschitz":
        "122c77c4a61d95e17aba34cba356fa30be3569de17ba6fd6669608c9ed19e407",
    "theorem-sample.thm3-lipschitz":
        "26a3101436457f145df5521ae7b4713950f6dfa8c0cd35e20ee5673fd8b90b77",
    "sde.cor-sde.sde":
        "20796d9cc7dd9d8b87c926f8d8b12220e0df14085568673f08c3845448476b82",
    "sde.cor-sde.levy":
        "24a71462c92879cc16c1c388457e69d33a336e1f99d7576e74b660f7cd31d2d5",
    # n = 10^4 spans 10 chunks of path_sim.CHUNK_STEPS, whose sums are added
    # chunk by chunk; the n = 300 digests above span one chunk
    "sde.cor-sde.two-blocks.sde":
        "8d143c5132bd8f1b33591d0c002ac48e87f87b05d704ddd2908780ad3b8b8f39",
    "sde.cor-sde.two-blocks.levy":
        "7f186d421429bf30bd39c67b400626dbd558ccb588e24a1ad2d08827e35b1d38",
    "simulate_levy.a075":
        "8d93f544e3640e4ffb147c3c14264f5ac20267f49d402b0ce0a8c42f43ecc109",
    "simulate_levy.a15.T2":
        "82cf3e92dd1e764ea88adb129ca9e4a30536b9079c475a693a9841217f1b7509",
    "simulate_levy.a1.skewed":
        "bc34de5917fb64172a112bdf037b7bbb8bfa596677a9e81b272dbbd33e6a9c0d",
}


def _digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def _cli_digests(workdir: str) -> dict:
    out = {}
    sim = os.path.join(workdir, "sim.csv")
    assert main([
        "simulate", "--alpha", "0.75", "--scale", "6.35", "--beta", "0",
        "--n", "50", "--m", "6", "--seed", "3", "--drift", "cos",
        "--fine-multiplier", "4", "--output", sim,
    ]) == 0
    with open(sim, "rb") as fh:
        out["simulate.csv"] = _digest(fh.read())

    series = os.path.join(workdir, "series.csv")
    inc = np.concatenate([
        simulate_levy(StableParams(0.9, 1.5), 100, 1.0, RandomStream(21, i)).increments()
        for i in range(40)
    ])
    write_series(series, inc, {"mode": "increments", "n": 100})
    base = os.path.join(workdir, "fit")
    assert main(["estimate", "--input", series, "--output", base, "--fixed-c", "1.5"]) == 0
    for suffix in ("surface.csv", "slice.csv", "result.txt", "fixedc.csv"):
        with open(f"{base}.{suffix}", "rb") as fh:
            out[f"estimate.{suffix}"] = _digest(fh.read())
    return out


def _statistic_digests() -> dict:
    sub = StableParams(1.5, 1.0, 0.0)
    sde = StableParams(0.75, 6.35, 0.0)
    out = {
        "levy.thm1-sub": levy_statistic_sample(sub, 300, 7, 5, (2.0,)),
        "levy.thm1-sub.two-blocks": levy_statistic_sample(sub, 10_000, 203, 6, (2.0,)),
        "levy.thm1-comp":
            levy_statistic_sample(sub, 300, 7, 5, (1.0,)) - 300 * compensator(sub, 1.0, 300),
        "levy.thm3-lipschitz": levy_statistic_sample(sub, 300, 7, 5, (), (1.0,), math.sin)
            - 300 * compensator(sub, 1.0, 300),
        # compensated by sin_moment, at p = alpha
        "theorem-sample.thm3-lipschitz":
            scenarios._theorem_sample(5, 7, 300)["thm3-lipschitz"],
    }
    for key, kwargs in (
        ("sde.cor-sde", dict(n=300, m=7, seed=5)),
        ("sde.cor-sde.two-blocks", dict(n=10_000, m=203, seed=9)),
    ):
        v_sde, v_levy = sde_statistic_pairs(sde, np.cos, 1.5, **kwargs)
        out[f"{key}.sde"], out[f"{key}.levy"] = v_sde, v_levy
    out["simulate_levy.a075"] = simulate_levy(sde, 200, 1.0, RandomStream(11, 2)).values
    out["simulate_levy.a15.T2"] = simulate_levy(sub, 150, 2.0, RandomStream(12)).values
    out["simulate_levy.a1.skewed"] = simulate_levy(
        StableParams(1.0, 2.0, 0.8), 100, 1.0, RandomStream(4)).values
    return {k: _digest(v) for k, v in out.items()}


def current_digests() -> dict:
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(io.StringIO()):
        return {**_cli_digests(workdir), **_statistic_digests()}


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def test_golden_hashes():
    if environment() != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, this host is {environment()}")
    got = current_digests()
    changed = sorted(k for k in GOLDEN if got[k] != GOLDEN[k])
    assert not changed, f"output bits changed for {changed}"


if __name__ == "__main__":
    json.dump({"environment": environment(), "digests": current_digests()}, sys.stdout, indent=2)
    print()
