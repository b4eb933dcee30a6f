"""One benchmark run in a fresh interpreter: import the program from the
checkout's src/, warm up, print READY, run the closed loop for the given
seconds, then print one JSON line with the run's results.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import types
import warnings

import spans
import workloads
from run import PINNED_THREAD_VARS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

MODULES = ("stable_law", "path_sim", "pvariation", "limit_law", "estimator", "scenarios", "cli")


def import_program():
    """Import stablevar from <checkout>/src and nowhere else."""
    sys.path.insert(0, SRC)
    import importlib
    sv = types.SimpleNamespace()
    for name in MODULES:
        setattr(sv, name, importlib.import_module(f"stablevar.{name}"))
    origin = os.path.realpath(sv.cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"stablevar imported from {origin}, not from {SRC}")
    return sv


def tail_latency(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest latency, at percentile 100 (N - 10) / N. With ten samples or
    fewer no such percentile exists, and the maximum is reported at 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def calibrate(reps: int = 5) -> float:
    """Median seconds of a fixed numpy loop; compared at the start and end of
    a run, it shows host speed drifting during the run."""
    import numpy as np
    x = np.random.default_rng(12345).random(200_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(12):
            np.sort(x)
            np.exp(x).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of a .git directory in the checkout, read as files; "unavailable"
    in a source export without one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": {v: os.environ.get(v) for v in PINNED_THREAD_VARS},
        "STABLEVAR_THREADS": os.environ.get("STABLEVAR_THREADS", "unset"),
    }


def checked(workload, i: int, result) -> list[str]:
    """The op's problems; an output the check cannot read is one too."""
    try:
        return workload.check(i, result)
    except Exception as exc:
        return [f"op {i}: output not checkable: {type(exc).__name__}: {exc}"]


def run_loop(workload, seconds: float, tracer=None) -> dict:
    from scipy.integrate import IntegrationWarning
    latencies, failures, problems = [], 0, []
    quad_warnings, repeats, seen = 0, 0, set()
    sink = io.StringIO()
    i = 0
    t_begin = time.perf_counter()
    while i == 0 or time.perf_counter() - t_begin < seconds:
        key = workload.key(i)
        repeats += key in seen
        seen.add(key)
        error = None
        if tracer is not None:
            tracer.op_id = i
        op_span = tracer.span(spans.OP_SPAN) if tracer is not None else contextlib.nullcontext()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), op_span:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = workload.op(i)
            except Exception as exc:  # an op that raises is a failed op
                error = f"op {i}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        sink.seek(0)
        sink.truncate()
        quad_warnings += sum(issubclass(w.category, IntegrationWarning) for w in caught)
        latencies.append(t1 - t0)
        found = [error] if error else checked(workload, i, result)
        if found:
            failures += 1
            problems.extend(found[:3])
        i += 1
    return {
        "latencies": latencies,
        "attempted": i,
        "failed": failures,
        "problems": problems[:20],
        "quad_warnings": quad_warnings,
        "repeat_frac": repeats / i,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sv = import_program()

    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        workload = workloads.WORKLOADS[args.workload](sv, args.seed, workloads.load_refs(), workdir)
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        calib_start = calibrate()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            span_cost = spans.per_span_cost()
            tracer.install()
        try:
            loop = run_loop(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        calib_end = calibrate()

    latencies = loop["latencies"]
    ok = loop["attempted"] - loop["failed"]
    busy = sum(latencies)
    tail, tail_pct = tail_latency(latencies)
    report = {
        "environment": environment(),
        "calibration_s": {"start": calib_start, "end": calib_end, "end_over_start": calib_end / calib_start},
        "ops": loop["attempted"],
        "fail_frac": loop["failed"] / loop["attempted"],
        "problems": loop["problems"],
        "tail_percentile": tail_pct,
        "repeat_frac": loop["repeat_frac"],
        "quad_warnings_per_op": loop["quad_warnings"] / loop["attempted"],
        "latencies_s": latencies,
        **workload.summary(),
    }
    correct = loop["failed"] == 0
    if tracer is None:
        # ops_per_s and op_p50_s go to the report, not the gated metrics:
        # their run-to-run spread follows the host's speed swings (README)
        report["ops_per_s"] = ok / busy
        report["op_p50_s"] = statistics.median(latencies)
        metrics = {
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics, accounting = spans.layer_metrics(tracer, loop["attempted"], loop["quad_warnings"])
        metrics["trace.ops_per_s"] = (ok / busy, "1/s")
        metrics["trace.spans_per_op"] = (accounting["spans"] / loop["attempted"], "count/op")
        metrics["trace.overhead_frac_est"] = (span_cost * accounting["spans"] / busy, "ratio")
        metrics["trace.unmeasured"] = (float(len(tracer.unmeasured)), "count")
        metrics["bench.repeat_frac"] = (loop["repeat_frac"], "ratio")
        report["unmeasured"] = tracer.unmeasured
        report["span_cost_s"] = span_cost
        report["accounting"] = {k: v for k, v in accounting.items() if k != "by_name"}
        report["by_name"] = accounting["by_name"]
        if abs(accounting["gap_s"]) > 1e-9 * max(1.0, accounting["op_wall_s"]):
            correct = False
            report["problems"].append(f"layer self times do not add up to op wall time: {accounting}")
        tracer.save(os.path.join(args.out, f"spans-{args.workload}.npz"))
    print(json.dumps({
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
