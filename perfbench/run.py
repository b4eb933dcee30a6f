"""stablevar benchmark. Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py): fit, verify, compensate. Each is a closed loop
with one client in one process and one thread; the loop runs for --seconds.

With --trace 0 the run prints the end-to-end metrics: setup_s, ops_per_s,
op_p50_s, op_tail_s, peak_rss_mb, fail_frac and, for fit, in_range_frac.
The JSON line carries the ones BENCHMARK.json gates. setup_s is the median
over SETUPS fresh interpreters of the time from starting the interpreter
until the first timed op can begin (imports and warm-up). With --trace 1 the program's modules are wrapped and
the run prints per-layer metrics instead (see spans.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full report, and for traced runs the span
table, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("fit", "verify", "compensate")
SETUPS = 3
DEADLINE_S = 170.0
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in PINNED_THREAD_VARS:
        env[var] = "1"
    env.pop("STABLEVAR_THREADS", None)
    return env


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker, time it from spawn to READY, and return that set-up
    time with the rest of its output. The worker is killed at the deadline
    and always waited for."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode} (setup_only={setup_only})")
    return setup_s, rest


def print_report(args, result: dict, setups: list[float]) -> None:
    rep = result["report"]
    print(f"stablevar benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: {json.dumps(rep['environment'], sort_keys=True)}")
    cal = rep["calibration_s"]
    print(f"calibration: start {cal['start']:.6f} s, end {cal['end']:.6f} s (end/start {cal['end_over_start']:.3f})")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed, "
          f"fail_frac {rep['fail_frac']:.4g}, repeat_frac {rep['repeat_frac']:.4g}, "
          f"quad_warnings_per_op {rep['quad_warnings_per_op']:.4g}")
    for problem in rep["problems"]:
        print(f"  problem: {problem}")
    if not args.trace:
        print(f"setup_s: median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups))
        print(f"ops_per_s: {rep['ops_per_s']:.6g} 1/s (successful ops / time inside ops)")
        print(f"op_p50_s: {rep['op_p50_s']:.6g} s (median of {rep['ops']} ops)")
        print(f"op_tail_s is percentile {rep['tail_percentile']:.2f} of {rep['ops']} ops"
              + (" (ten ops or fewer: the maximum)" if rep["ops"] <= 10 else ""))
    if "in_range_frac" in rep:
        print(f"in_range_frac: {rep['in_range_frac']:.4g}")
    if args.trace:
        acc = rep["accounting"]
        print(f"trace: {acc['spans']} spans; layer self times + remainder = "
              f"{acc['layer_self_plus_remainder_s']:.6f} s/op vs op wall {acc['op_wall_s']:.6f} s/op; "
              f"span cost {rep['span_cost_s'] * 1e6:.2f} us; unmeasured: {rep['unmeasured'] or 'none'}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stablevar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stablevar", "__init__.py")):
        print("run from the repository root: src/stablevar not found", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        # set-up probes first, then the measured run, one process at a time
        setups = [] if args.trace else [run_worker(args, deadline, True)[0] for _ in range(SETUPS - 1)]
        setup_s, out = run_worker(args, deadline, False)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    result["report"]["setups_s"] = setups
    with open(os.path.join(OUT, f"report-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), **result}, fh, indent=1)
    print_report(args, result, setups)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
