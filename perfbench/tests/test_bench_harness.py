"""Tests of the benchmark harness itself: the tail-percentile rule, self-time
arithmetic, the tracer's wrapping, and the per-op correctness checks.

Run from the repository root with `python3 -m pytest perfbench/tests`."""

import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import spans
import workloads
from worker import tail_latency

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestTailLatency:
    def test_eleventh_largest_has_ten_beyond(self):
        lat = [float(x) for x in range(1, 31)]
        value, pct = tail_latency(lat[::-1])
        assert value == 20.0
        assert sum(x > value for x in lat) == 10
        assert pct == pytest.approx(100.0 * 20 / 30)

    def test_eleven_samples_gives_minimum(self):
        value, pct = tail_latency([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        assert value == 1.0
        assert pct == pytest.approx(100.0 / 11)

    def test_ten_or_fewer_reports_maximum(self):
        assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
        assert tail_latency([1.0] * 10) == (1.0, 100.0)


class TestSelfTimes:
    def test_children_subtracted_once(self):
        # op [0,10] has children A [1,5] and C [6,9]; A has child B [2,3]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 6.0])
        end = np.array([10.0, 5.0, 3.0, 9.0])
        selfs = spans.self_times(parent, start, end)
        assert selfs.tolist() == [3.0, 3.0, 1.0, 3.0]
        assert selfs.sum() == pytest.approx(end[0] - start[0])

    def test_aggregate_by_name(self):
        names = np.array(["bench.op", "x.f", "x.g"])
        agg = spans.aggregate(names, np.array([0, 1, 2, 1]), np.array([-1, 0, 1, 0]),
                              np.array([0.0, 1.0, 2.0, 6.0]), np.array([10.0, 5.0, 3.0, 9.0]))
        assert agg["x.f"] == {"calls": 2, "incl_s": 7.0, "self_s": 6.0}
        assert agg["x.g"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}
        assert agg["bench.op"]["self_s"] == 3.0


@pytest.fixture
def fake_package():
    """A two-module stand-in for stablevar: pvariation calls sample_stable
    through its own imported name, as the real modules do."""
    pkg = types.ModuleType("fakesv")
    law = types.ModuleType("fakesv.stable_law")
    var = types.ModuleType("fakesv.pvariation")

    def sample_stable(size):
        return np.zeros(size)

    def terminal_pvariation(size):
        return float(np.sum(var.sample_stable(size)))

    law.sample_stable = sample_stable
    var.sample_stable = sample_stable
    var.terminal_pvariation = terminal_pvariation
    mods = {"fakesv": pkg, "fakesv.stable_law": law, "fakesv.pvariation": var}
    sys.modules.update(mods)
    yield law, var
    for name in mods:
        del sys.modules[name]


class TestTracer:
    def test_wraps_every_binding_and_reports_missing_names(self, fake_package):
        law, var = fake_package
        original = law.sample_stable
        tracer = spans.Tracer()
        tracer.install("fakesv", {"stable_law": ("sample_stable", "renamed_away"),
                                  "pvariation": ("terminal_pvariation",),
                                  "gone_module": ("f",)})
        assert tracer.unmeasured == ["stable_law.renamed_away", "gone_module.f"]
        assert var.sample_stable is law.sample_stable is not original
        with tracer.span(spans.OP_SPAN):
            var.terminal_pvariation(7)
            law.sample_stable(3)
        tracer.uninstall()
        assert law.sample_stable is original and var.sample_stable is original

        arr = tracer.arrays()
        names = [str(arr["names"][i]) for i in arr["name"]]
        assert names == ["bench.op", "pvariation.terminal_pvariation",
                         "stable_law.sample_stable", "stable_law.sample_stable"]
        assert arr["parent"].tolist() == [-1, 0, 1, 0]
        assert tracer.counts["draws"] == 10

    def test_counter_that_fails_is_reported_not_raised(self):
        tracer = spans.Tracer()
        wrapped = tracer.wrap("estimator.ks_surface", lambda: "no d_values here")
        assert wrapped() == "no d_values here"
        wrapped()
        assert tracer.unmeasured == ["estimator.ks_surface (count)"]

    def test_layer_self_times_add_up_to_op_wall_time(self, fake_package):
        law, var = fake_package
        tracer = spans.Tracer()
        tracer.install("fakesv")
        for i in range(3):
            tracer.op_id = i
            with tracer.span(spans.OP_SPAN):
                var.terminal_pvariation(1000)
        tracer.uninstall()
        metrics, acc = spans.layer_metrics(tracer, ops=3, quad_warnings=0)
        assert acc["gap_s"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["stable_law.draws"][0] == 1000
        layers = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
        assert layers + metrics["bench.remainder_s"][0] == pytest.approx(metrics["bench.op_wall_s"][0])
        assert metrics["estimator.surface_s"][0] == 0.0


class FakePath:
    def __init__(self, values):
        self.values = np.asarray(values)


class TestCompensateCheck:
    key = (1.5, 1.0, 0.0, 1.5, 4)
    refs = {workloads.compensate_key(*key): {"compensator": 0.25, "tolerance": 1e-6}}
    path = FakePath([0.0, 1.0, -1.0, 0.0, 2.0])  # |increments|^1.5 sum = 1 + 2^1.5 + 1 + 2^1.5

    def value(self, b):
        v = float(np.sum(np.abs(np.diff(self.path.values)) ** 1.5))
        return v - 4 * b

    def test_accepts_within_tolerance(self):
        assert workloads.check_compensated((self.key, self.path, self.value(0.25 + 5e-7)), self.refs) == []

    def test_rejects_outside_tolerance(self):
        problems = workloads.check_compensated((self.key, self.path, self.value(0.25 + 5e-6)), self.refs)
        assert len(problems) == 1 and "differs from reference" in problems[0]

    def test_rejects_nan_and_unknown_key(self):
        assert workloads.check_compensated((self.key, self.path, math.nan), self.refs)
        other = (1.5, 1.0, 0.0, 1.5, 8)
        assert workloads.check_compensated((other, self.path, 0.0), self.refs)

    def test_reference_file_covers_every_key(self):
        refs = workloads.load_refs()
        for key in workloads.compensate_keys():
            entry = refs["compensate"][workloads.compensate_key(*key)]
            assert entry["tolerance"] > 0 and math.isfinite(entry["compensator"])
        assert len(refs["verify"]["pool"]) >= 8


class TestScenarioCheck:
    def report(self, statistic, threshold=0.048):
        return types.SimpleNamespace(statistic=statistic, threshold=threshold,
                                     passed=statistic < threshold)

    def test_all_pass(self):
        reports = [self.report(0.02) for _ in workloads.VERIFY_SCENARIOS]
        assert workloads.check_scenario_reports(reports, 1) == []

    def test_fail_and_missing_reports(self):
        reports = [self.report(0.02), self.report(0.06), self.report(math.nan)]
        problems = workloads.check_scenario_reports(reports, 1)
        assert len(problems) == 3


class TestFitChecks:
    def write(self, path, text):
        with open(path, "w") as fh:
            fh.write(text)

    def test_series_csv(self, tmp_path):
        good = tmp_path / "good.csv"
        self.write(good, '# stablevar v1 {"mode": "increments"}\n0,1.5\n1,-2.0\n')
        assert workloads.check_series_csv(str(good), 2) == []
        assert workloads.check_series_csv(str(good), 3)
        bad = tmp_path / "bad.csv"
        self.write(bad, '# stablevar v1 {"mode": "increments"}\n0,1.5\n1,abc\n')
        assert workloads.check_series_csv(str(bad), 2)
        self.write(bad, "0,1.5\n")
        assert workloads.check_series_csv(str(bad), 1)

    def test_estimate_outputs(self, tmp_path):
        base = str(tmp_path / "fit")
        self.write(base + ".result.txt", "alpha_star 0.75\nc_star 6.3\np_star 1.5\nd_min 0.05\nm 200\n")
        self.write(base + ".surface.csv", "C,p,D\n6.0,1.5,0.07\n6.5,1.5,0.06\n")
        self.write(base + ".slice.csv", "p,alpha,best_C,D\n1.5,0.75,6.5,0.06\n")
        fit, problems = workloads.check_estimate_outputs(base, 2)
        assert problems == [] and fit["alpha_star"] == 0.75
        assert workloads.check_estimate_outputs(base, 3)[1]
        self.write(base + ".result.txt", "alpha_star 0.8\nc_star 6.3\np_star 1.5\nd_min 0.05\n")
        assert workloads.check_estimate_outputs(base, 2)[1]
        self.write(base + ".result.txt", "alpha_star 0.75\nc_star 6.3\np_star 1.5\nd_min 0.09\n")
        assert workloads.check_estimate_outputs(base, 2)[1]


def test_short_traced_run_end_to_end():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compensate", "--seed", "3",
         "--seconds", "0.5", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["pvariation.compensator_calls"]["value"] == 1.0
