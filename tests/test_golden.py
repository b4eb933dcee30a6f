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

from stablevar.cli import main, write_series
from stablevar.path_sim import DriftSpec, simulate_levy
from stablevar.scenarios import levy_statistic_sample, sde_statistic_pairs
from stablevar.stable_law import RandomStream, StableParams

RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64"}

GOLDEN = {
    "simulate.csv":
        "c5a84ef94da02933f4dea427ae499b9b7a95e587bb3ee8716257a5ab83c26220",
    "estimate.surface.csv":
        "00450e227b4e9780276c0394c94fb47dc57e42acd0aa97208a99b7f67e5ebe0c",
    "estimate.slice.csv":
        "96eb816fd3e8ff8e7d37d5070a2de64a9be123df659501b5e8e73336c04f9034",
    "estimate.result.txt":
        "e239c4b20bb5726cf791f53bafdcb81f06f1cbcb67553b288488c3d415e6f300",
    "estimate.fixedc.csv":
        "b460f42fd0f42d0fa229040d7522c7bb79af8f06494a0b3a1506cd70b45f4ffa",
    "levy.thm1-sub":
        "e8da3540d551d7d9cb79f9a1d419f09126521d043c12cd42b6e157012d70a358",
    "levy.thm1-sub.two-blocks":
        "4141683ec9e157b08c4cb2b41a4d6d443e3f1f3fb6f0465c471deb3ea415b422",
    "levy.thm1-comp":
        "024e4d3c3ca94ca55e7fc7304fb97c5af81eb153760350a072d1044b52908ac4",
    "levy.thm3-lipschitz":
        "b48af3fe286f8ed76b751c45c24c6f196aced1c96402cf20845fe82355ef8067",
    "levy.thm3-lipschitz.offset":
        "1d19118f8aaac84b91f7595a65ee42d93029bf3be20ace8ed540f6ffaa63da8a",
    "sde.cor-sde.sde":
        "20796d9cc7dd9d8b87c926f8d8b12220e0df14085568673f08c3845448476b82",
    "sde.cor-sde.levy":
        "24a71462c92879cc16c1c388457e69d33a336e1f99d7576e74b660f7cd31d2d5",
    "sde.cor-sde.two-blocks.sde":
        "e790af76777a296b890508f6ba97b637d44a6a44d02f74a2914b3d33200a7e21",
    "sde.cor-sde.two-blocks.levy":
        "ecfd6f710828353dd0d95915adcc72e0c16541f3d168d25c8b158361bcd125c0",
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
    cos = DriftSpec("cosine")
    out = {
        "levy.thm1-sub": levy_statistic_sample(sub, 2.0, 300, 7, seed=5),
        "levy.thm1-sub.two-blocks": levy_statistic_sample(sub, 2.0, 10_000, 203, seed=6),
        "levy.thm1-comp": levy_statistic_sample(sub, 1.0, 300, 7, seed=5, compensate=True),
        "levy.thm3-lipschitz": levy_statistic_sample(
            sub, 1.0, 300, 7, seed=5, compensate=True, perturbation=math.sin),
        "levy.thm3-lipschitz.offset": levy_statistic_sample(
            sub, 1.0, 300, 7, seed=5, compensate=True, stream_offset=7),
    }
    for key, kwargs in (
        ("sde.cor-sde", dict(n=300, m=7, seed=5)),
        ("sde.cor-sde.two-blocks", dict(n=10_000, m=203, seed=9)),
    ):
        v_sde, v_levy = sde_statistic_pairs(sde, cos, 1.5, **kwargs)
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
