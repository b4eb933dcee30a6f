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
        "219df4c5774f22246eafee44a9d18349009b23314b4fd44cab17461de57dc8bd",
    "estimate.surface.csv":
        "03b7fd1d87a7e1a0e6446bbc2383e951a207316bfcddd051145c4b0bf7c1ed7e",
    "estimate.slice.csv":
        "56bfc0db10b2d6bbce1337606d600c094be2f62012bf0b15d845125fdc223e8d",
    "estimate.result.txt":
        "ec6a3aff66946b520c44e46e13855957a43d20cfcc91a05c796701b5c66e4bcb",
    "estimate.fixedc.csv":
        "9fe3c56dde422b1e42cc5b7018c5ff427e6e1dd213c932cb569dcdf6884c863d",
    "levy.thm1-sub":
        "e8da3540d551d7d9cb79f9a1d419f09126521d043c12cd42b6e157012d70a358",
    "levy.thm1-sub.two-blocks":
        "4141683ec9e157b08c4cb2b41a4d6d443e3f1f3fb6f0465c471deb3ea415b422",
    "levy.thm1-comp":
        "6d86dc25b2c3db542441a44a441112e0f7af8a4788aff0bb76d139b93d710ecd",
    "levy.thm3-lipschitz":
        "b4378db3616318a183346f0154f6c9aee43c87a9ae9068142bd9bde8c9f1132e",
    "levy.thm3-lipschitz.offset":
        "9c37313ba5fd678eadddd0b6ca24ed8f9ba4fc69242a409684a6d7375fc63d2a",
    "sde.cor-sde.sde":
        "06be4e2a91e2f4739987760dec2848a06d2903e1263e72e4aed41b8d2d546833",
    "sde.cor-sde.levy":
        "bf30088f9b5e618df958c9afa2182797bb473c2de95282861d65413e4174f0c4",
    "sde.cor-sde.fine4.sde":
        "5175b04e9f303be597e31172f146f751c55a82c93a3c5beba6c9bc107ba4c609",
    "sde.cor-sde.fine4.levy":
        "4681dffad81124f4e84e247fce5a8d6fc6436697fc2b64f6fe97c78a06be20e3",
    "sde.cor-sde.two-blocks.sde":
        "23310e461391ffb0dc81ef4ed8d37cb6a8fcae915d07adced05be814958b54ad",
    "sde.cor-sde.two-blocks.levy":
        "df2f583d014885a64e9217256614d86520c8cf0d80ef8a0d8d761dbb2782f747",
    "simulate_levy.a075":
        "7b479b714a545314374d9c36ffa621a24dcd511c3c560099ad62e39b1979cd45",
    "simulate_levy.a15.T2":
        "82cf3e92dd1e764ea88adb129ca9e4a30536b9079c475a693a9841217f1b7509",
    "simulate_levy.a1.skewed":
        "7164453ca074a312bd7648cfd5b6a08939e19d23e6db8b83914ec6fbba84d4fd",
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
        ("sde.cor-sde.fine4", dict(n=100, m=5, seed=8, x0=0.25, fine_multiplier=4)),
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
