"""Span tracing for the traced benchmark run.

Wraps the public functions of each targetq module by replacing the module
or class attribute the package calls it through, and restores the original
on exit. A wrapper records one span per call: its duration, its self time
(duration minus the time its wrapped children took) and its parent span.
Spans stay in memory as per-name totals; nothing is written until the run
ends. The untraced runs install none of this.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# Span name (defining module.function) -> the bindings it is called through
# in a sweep. Each binding is a module and an attribute path inside it.
SPANS = {
    "cli.main": [("targetq.cli", "main")],
    "config.parse_sweep_config": [("targetq.cli", "parse_sweep_config")],
    "gridworld.build_gridworld": [("targetq.config", "build_gridworld")],
    "mdp.value_iteration_oracle": [("targetq.harness", "value_iteration_oracle")],
    "mdp.exact_bellman_apply": [("targetq.mdp", "exact_bellman_apply")],
    "harness.run_one": [("targetq.harness", "run_one")],
    "learner.run_periodic_q": [("targetq.harness", "run_periodic_q")],
    "learner.run_accuracy_triggered_q": [("targetq.harness", "run_accuracy_triggered_q")],
    "learner.run_inner_loop": [("targetq.learner", "run_inner_loop")],
    "mdp.greedy_state_values": [("targetq.learner", "greedy_state_values")],
    "mdp.sup_distance": [("targetq.learner", "sup_distance")],
    "mdp.evaluate_greedy": [("targetq.learner", "evaluate_greedy")],
    "schedules.alphas": [
        ("targetq.schedules", "TheoryInverseStepSize.alphas"),
        ("targetq.schedules", "ConstantStepSize.alphas"),
        ("targetq.schedules", "CustomStepSize.alphas"),
    ],
    "schedules.period": [
        ("targetq.schedules", "FixedPeriod.period"),
        ("targetq.schedules", "GeometricPeriod.period"),
        ("targetq.schedules", "ExplicitPeriod.period"),
    ],
    "harness.aggregate": [("targetq.cli", "aggregate")],
    "harness.emit_csv": [("targetq.cli", "emit_csv")],
}

# Spans whose calls are kept (arguments and result) for counts taken after
# the sweep, outside every timed interval.
_KEEP_CALLS = {"learner.run_inner_loop", "learner.run_accuracy_triggered_q", "harness.aggregate"}


class MissingSpan(Exception):
    """A traced entry point no longer exists where the benchmark wraps it."""


class SpanStats:
    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.parents: Counter = Counter()
        self.signature: inspect.Signature | None = None
        self.kept: list[tuple[tuple, dict, object]] = []

    def kept_calls(self):
        """(bound arguments, result) of every kept call."""
        return [(self.signature.bind(*a, **kw).arguments, r) for a, kw, r in self.kept]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if not callable(getattr(owner, attr, None)):
        raise AttributeError(path)
    return owner, attr


class Tracer:
    """Collects spans for one sweep. Use ``installed()`` around the sweep."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self._stack: list[list] = []  # [span name, time taken by wrapped children]

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        keep = name in _KEEP_CALLS
        if keep:
            stats.signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                stats.durations.append(duration)
                stats.parents[parent] += 1
            if keep:
                stats.kept.append((args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        bindings = []
        missing = []
        for name, targets in SPANS.items():
            for module_name, path in targets:
                try:
                    bindings.append((name, *_resolve(module_name, path)))
                except (ImportError, AttributeError):
                    missing.append(f"{name} ({module_name}.{path})")
        if missing:
            raise MissingSpan("traced entry points not found: " + ", ".join(missing))
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in bindings]
        try:
            for name, owner, attr in bindings:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (everything but the run_one
    percentiles, the CSV counts and the tracing overhead, which need more
    than one sweep or the output file)."""
    st = tracer.stats
    out: dict[str, float] = {}

    inner = st["learner.run_inner_loop"]
    inner_steps = sum(arguments["n_steps"] for arguments, _ in inner.kept_calls())
    out["learner.run_inner_loop.calls"] = inner.calls
    out["learner.run_inner_loop.steps"] = inner_steps
    out["learner.run_inner_loop.self_s"] = inner.self_s
    out["learner.run_inner_loop.steps_per_s"] = inner_steps / inner.self_s if inner.self_s else 0.0

    adaptive = st["learner.run_accuracy_triggered_q"]
    adaptive_steps = cycles = early = 0
    for arguments, trace in adaptive.kept_calls():
        k_max = arguments["k_max"]
        adaptive_steps += trace.final.cumulative_cost
        cycles += len(trace.records) - 1
        early += sum(1 for rec in trace.records[1:] if rec.inner_steps < k_max)
    out["learner.run_accuracy_triggered_q.self_s"] = adaptive.self_s
    out["learner.run_accuracy_triggered_q.steps"] = adaptive_steps
    out["learner.run_accuracy_triggered_q.steps_per_s"] = (
        adaptive_steps / adaptive.self_s if adaptive.self_s else 0.0
    )
    out["learner.run_periodic_q.self_s"] = st["learner.run_periodic_q"].self_s
    out["learner.adaptive.early_stop_ratio"] = early / cycles if cycles else 0.0

    for name in ("mdp.sup_distance", "mdp.evaluate_greedy", "mdp.greedy_state_values",
                 "schedules.alphas", "schedules.period", "harness.run_one"):
        out[f"{name}.calls"] = st[name].calls
        if name != "harness.run_one":
            out[f"{name}.self_s"] = st[name].self_s

    out["mdp.value_iteration_oracle.s"] = st["mdp.value_iteration_oracle"].total_s
    out["mdp.value_iteration_oracle.sweeps"] = (
        st["mdp.exact_bellman_apply"].parents["mdp.value_iteration_oracle"]
    )
    out["config.parse_sweep_config.s"] = st["config.parse_sweep_config"].total_s
    out["gridworld.build_gridworld.s"] = st["gridworld.build_gridworld"].total_s
    out["harness.aggregate.self_s"] = st["harness.aggregate"].self_s
    out["harness.aggregate.grid_points"] = sum(
        len(stats.costs) for _, stats in st["harness.aggregate"].kept_calls()
    )
    out["harness.emit_csv.self_s"] = st["harness.emit_csv"].self_s
    out["cli.main.self_s"] = st["cli.main"].self_s
    return out


def missing_calls(tracer: Tracer, periodic: bool, adaptive: bool) -> list[str]:
    """Spans that should have run in this workload's sweep but did not."""
    expected = {"cli.main", "config.parse_sweep_config", "gridworld.build_gridworld",
                "mdp.value_iteration_oracle", "mdp.exact_bellman_apply", "harness.run_one",
                "mdp.greedy_state_values", "mdp.sup_distance", "mdp.evaluate_greedy",
                "schedules.alphas", "harness.aggregate", "harness.emit_csv"}
    if periodic:
        expected |= {"learner.run_periodic_q", "learner.run_inner_loop", "schedules.period"}
    if adaptive:
        expected.add("learner.run_accuracy_triggered_q")
    return sorted(name for name in expected if tracer.stats[name].calls == 0)
