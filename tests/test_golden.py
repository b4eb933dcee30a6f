"""Golden hashes: sha256 digests of outputs that refactors must keep bit for bit.

The digests cover `stablevar simulate` CSV bytes, `estimate` output files, the
scenario statistic samples and `simulate_levy` paths. Float results depend on
the host's libm and SIMD code paths, so each digest is only checked on the
numpy version, machine and SIMD dispatch it was recorded on; elsewhere the
test skips and says why. On x86_64 numpy 2.4.6 runs its AVX-512 tan, power,
exp and log loops only where it dispatches AVX512_SKX, and the CMS draws take
all four.

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

RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64", "AVX512_SKX": True}

GOLDEN = {
    "simulate.csv":
        "8cedc33b16d23839f1cc83701ec05e212b3c463dae31f8aec12e266209ea3678",
    "estimate.surface.csv":
        "a8626b19f70674390002b78ed40d3bb3d111a7eefeb3b95fcf57244dbcde579a",
    "estimate.slice.csv":
        "922cd5ec0149807fc408dc8a74bbf91ded697f15eba718a22e0cca88f1da0eac",
    "estimate.result.txt":
        "aa1b2b513f14e263305fa0b1909884a4e03025bf2ccc4536db7bb8dece15d6dd",
    "estimate.fixedc.csv":
        "8ee39ed5b308049df5dc3beba9dd1dce292e28abbc4be9fb5bd1036b3e0e3dbc",
    "levy.thm1-sub":
        "7362f0bf0d211307addaa21c09f13d2bb6b845ef8c2324c71c9c9d0a5741e9d1",
    "levy.thm1-sub.two-blocks":
        "4209e9c1804b7ba65ef4aa9904d1f6e8d4c73986c15ca562f113fa4655d5d56c",
    "levy.thm1-comp":
        "06521945e6d596ade9a12e9b399fea1aa2da3844948d3f6b16a2cbdae7dfb063",
    "levy.thm3-lipschitz":
        "85c04c6f099ca2157224140ad8e1aa83d817b433fbe177e93f0d3eef7438c7eb",
    "theorem-sample.thm3-lipschitz":
        "09254f3024efaa34108b82c2990b9b7175314346532f4de1567c9003d28602a2",
    "sde.cor-sde.sde":
        "64c99f2606e610eb36351c58796b2452758cb9464334a0339cd5d12cab30ee37",
    "sde.cor-sde.levy":
        "a3c7ccbfc1c66dc236956d1b2e538ed3c0a3d21f539bb38eb7b1d2c626d8d57d",
    # n = 10^4 spans 10 chunks of path_sim.CHUNK_STEPS, whose sums are added
    # chunk by chunk; the n = 300 digests above span one chunk
    "sde.cor-sde.two-blocks.sde":
        "36703830ad0c23f6d80738079c77fb08f6b79e4c742ca4b283be7671350c7d56",
    "sde.cor-sde.two-blocks.levy":
        "500309bf2ccc0bbd46606ca4ddf142f4e01449d0f79539f62a266a1575254c60",
    "simulate_levy.a075":
        "310ce7e16029895c229848528bc4ecfc684cfe4f9dc06cc0de21b74b22b98a7f",
    "simulate_levy.a15.T2":
        "444a959e39f12f01aac1bd756a6c2aa91af3d477b76cf9158835ff0abb875e29",
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
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    # numpy's table names every architecture's flags, so the key is there on
    # any host; a rename in a later numpy fails here instead of skipping
    return {"numpy": np.__version__, "machine": platform.machine(),
            "AVX512_SKX": __cpu_features__["AVX512_SKX"]}


def test_golden_hashes():
    if environment() != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, this host is {environment()}")
    got = current_digests()
    changed = sorted(k for k in GOLDEN if got[k] != GOLDEN[k])
    assert not changed, f"output bits changed for {changed}"


if __name__ == "__main__":
    json.dump({"environment": environment(), "digests": current_digests()}, sys.stdout, indent=2)
    print()
