"""Tracing for the benchmark's traced run.

The tracer wraps the public functions of each stablevar module, wherever
another module (or the benchmark) calls them, without changing the program's
source: every module attribute bound to the original function is rebound to
the wrapper. Each call becomes a span with a name, start, end, parent span
and op id, kept in flat arrays in memory and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Every span lies inside an op span, so the self times of all layers plus the
op spans' own self time (the remainder: harness code and work in no wrapped
function) add up to the ops' wall time.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

OP_SPAN = "bench.op"

# module -> functions wrapped in it; the module name is the span's layer
WRAPPED = {
    "stable_law": ("sample_stable", "tail_prob", "abs_moment", "sin_moment"),
    "path_sim": ("simulate_levy", "simulate_sde", "simulate_sde_batch", "add_perturbation"),
    "pvariation": ("abs_powers", "pvariation", "terminal_pvariation", "compensator",
                   "compensated_terminal"),
    "limit_law": ("limit_scale", "ref_cdf_half_stable", "sample_limit"),
    "estimator": ("block_split", "block_statistics", "ks_distance", "ks_surface", "estimate"),
    "scenarios": ("levy_statistic_sample", "sde_statistic_pairs", "two_sample_ks", "run_scenario"),
    "cli": ("main", "cmd_simulate", "cmd_estimate", "cmd_verify", "write_series", "read_series",
            "_write_surface", "_write_slice", "_write_result"),
}
LAYERS = tuple(WRAPPED)

# spans whose self time is an Euler time-stepping loop; scenarios keeps its
# own copy of the loop in sde_statistic_pairs
EULER_SPANS = ("path_sim.simulate_sde_batch", "path_sim.simulate_sde", "scenarios.sde_statistic_pairs")
WRITE_SPANS = ("cli.write_series", "cli._write_surface", "cli._write_slice", "cli._write_result")


def _euler_steps(bound) -> int:
    """Fine time steps times paths, from the call's arguments."""
    a = bound.arguments
    if "streams" in a:  # simulate_sde_batch
        return len(a["streams"]) * int(math.floor(a["n_fine"] * a["T"]))
    if "stream" in a:  # simulate_sde
        return int(math.floor(a["n_fine"] * a["T"]))
    return a["m"] * a["n"] * a.get("fine_multiplier", 1)  # sde_statistic_pairs


def _file_size(args) -> int:
    return os.path.getsize(args[0]) if args and isinstance(args[0], str) and os.path.exists(args[0]) else 0


# span name -> (counter, function of (args, kwargs, result, bind) -> amount)
COUNTERS = {
    "stable_law.sample_stable": ("draws", lambda a, k, r, b: np.size(r)),
    "pvariation.abs_powers": ("abs_powers_values", lambda a, k, r, b: np.size(r)),
    "limit_law.ref_cdf_half_stable": ("ref_cdf_values", lambda a, k, r, b: np.size(r)),
    "estimator.ks_surface": ("surface_cells", lambda a, k, r, b: np.size(r.d_values)),
    "cli.read_series": ("bytes_read", lambda a, k, r, b: _file_size(a)),
    **{name: ("euler_steps", lambda a, k, r, b: _euler_steps(b(*a, **k))) for name in EULER_SPANS},
    **{name: ("bytes_written", lambda a, k, r, b: _file_size(a)) for name in WRITE_SPANS},
}


class Tracer:
    """Span store and function wrapper. op_id is set by the harness around
    each op; spans opened outside an op get op id -1."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.unmeasured: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def span(self, name: str):
        """Context manager recording one span (used for op spans)."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        bind = None
        if counter is not None:
            bind = inspect.signature(fn).bind
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                try:
                    self.counts[counter[0]] += counter[1](args, kwargs, result, bind)
                except Exception:  # a changed signature or result loses the count, not the run
                    if f"{name} (count)" not in self.unmeasured:
                        self.unmeasured.append(f"{name} (count)")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "stablevar", wrapped=WRAPPED) -> None:
        """Rebind every module attribute of the package that refers to a
        listed function. A listed name that no longer exists is recorded in
        self.unmeasured and skipped, as is a counter that fails on a call."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, functions in wrapped.items():
            module = sys.modules.get(f"{package}.{layer}")
            for fname in functions:
                original = getattr(module, fname, None) if module is not None else None
                if not callable(original):
                    self.unmeasured.append(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        self.tracer.start[self.idx] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.idx] = time.perf_counter()
        t.stack.pop()
        return False


def per_span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, timed on a no-op function."""
    scratch = Tracer()

    def noop():
        return None

    wrapped = scratch.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct
    children. Spans of one thread nest, so children never overlap."""
    duration = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - child


def aggregate(names, name, parent, start, end) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(parent, start, end)
    duration = end - start
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=duration, minlength=k)
    own = np.bincount(name, weights=selfs, minlength=k)
    return {str(n): {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(names)}


def layer_metrics(tracer: Tracer, ops: int, quad_warnings: int) -> tuple[dict, dict]:
    """The per-layer metrics, each per op, and the accounting that checks
    them: layer self times plus the remainder against the ops' wall time."""
    arr = tracer.arrays()
    by_name = aggregate(arr["names"], arr["name"], arr["parent"], arr["start"], arr["end"])
    counts = tracer.counts
    ops = max(ops, 1)

    def calls(*names):
        return sum(by_name.get(n, {}).get("calls", 0) for n in names) / ops

    def incl(*names):
        return sum(by_name.get(n, {}).get("incl_s", 0.0) for n in names) / ops

    def own(*names):
        return sum(by_name.get(n, {}).get("self_s", 0.0) for n in names) / ops

    def layer_self(layer):
        return sum(v["self_s"] for n, v in by_name.items() if n.startswith(layer + ".")) / ops

    def rate(seconds, amount):
        return 1e9 * seconds / amount if amount else 0.0

    draws = counts["draws"] / ops
    steps = counts["euler_steps"] / ops
    values = counts["abs_powers_values"] / ops
    sample_s = own("stable_law.sample_stable")
    euler_s = own(*EULER_SPANS)
    m = {
        "stable_law.draws": (draws, "count/op"),
        "stable_law.sample_s": (sample_s, "s/op"),
        "stable_law.ns_per_draw": (rate(sample_s, draws), "ns"),
        "stable_law.tail_prob_calls": (calls("stable_law.tail_prob"), "count/op"),
        "stable_law.sin_moment_s": (incl("stable_law.sin_moment"), "s/op"),
        "stable_law.abs_moment_s": (incl("stable_law.abs_moment"), "s/op"),
        "stable_law.quad_warnings": (quad_warnings / ops, "count/op"),
        "path_sim.euler_s": (euler_s, "s/op"),
        "path_sim.euler_steps": (steps, "count/op"),
        "path_sim.ns_per_step": (rate(euler_s, steps), "ns"),
        "pvariation.abs_powers_s": (own("pvariation.abs_powers"), "s/op"),
        "pvariation.abs_powers_values": (values, "count/op"),
        # one float64 read and one written per value; computed, not measured
        "pvariation.abs_powers_bytes": (16.0 * values, "computed_B/op"),
        "pvariation.compensator_s": (incl("pvariation.compensator"), "s/op"),
        "pvariation.compensator_calls": (calls("pvariation.compensator"), "count/op"),
        "limit_law.ref_cdf_s": (own("limit_law.ref_cdf_half_stable"), "s/op"),
        "limit_law.ref_cdf_values": (counts["ref_cdf_values"] / ops, "count/op"),
        "limit_law.limit_scale_calls": (calls("limit_law.limit_scale"), "count/op"),
        "limit_law.sample_limit_s": (incl("limit_law.sample_limit"), "s/op"),
        "estimator.surface_s": (incl("estimator.ks_surface"), "s/op"),
        "estimator.surface_cells": (counts["surface_cells"] / ops, "count/op"),
        "estimator.refine_s": (own("estimator.estimate"), "s/op"),
        "estimator.block_stat_calls": (calls("estimator.block_statistics"), "count/op"),
        "scenarios.statistic_s": (incl("scenarios.levy_statistic_sample", "scenarios.sde_statistic_pairs"), "s/op"),
        "scenarios.ks_test_s": (incl("scenarios.two_sample_ks"), "s/op"),
        "cli.write_s": (own(*WRITE_SPANS), "s/op"),
        "cli.read_s": (own("cli.read_series"), "s/op"),
        "cli.bytes_written": (counts["bytes_written"] / ops, "B/op"),
        "cli.bytes_read": (counts["bytes_read"] / ops, "B/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s/op")
    remainder = own(OP_SPAN)
    wall = incl(OP_SPAN)
    m["bench.remainder_s"] = (remainder, "s/op")
    m["bench.op_wall_s"] = (wall, "s/op")
    accounted = sum(m[f"{layer}.self_s"][0] for layer in LAYERS) + remainder
    accounting = {
        "layer_self_plus_remainder_s": accounted,
        "op_wall_s": wall,
        "gap_s": accounted - wall,
        "spans": int(len(arr["start"])),
        "by_name": by_name,
    }
    return m, accounting
