"""Multi-seed experiment orchestration, cost-aligned aggregation with
percentile bands, and CSV emission.

Arms in one experiment share the environment, discount, and sample budget
so curves are comparable on the common axis: cumulative sample cost. Seeds
are paired across arms (arm i, seed s) and runs are executed in a fixed
order, so a configuration determines its outputs byte for byte.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .errors import AlignmentError, ConfigValidationError
from .learner import RunTrace, _noted, limit_violations, run_accuracy_triggered_q, run_periodic_q
from .mdp import TabularMdp, _as_tuple, _in_range, new_q_table, value_iteration_oracle
from .schedules import AccuracyTriggered, TufSchedule

@dataclass(frozen=True)
class Arm:
    label: str
    schedule: TufSchedule
    step_sizes: object


@dataclass
class ExperimentConfig:
    mdp: TabularMdp
    arms: tuple[Arm, ...]
    seeds: Sequence[int]  # a tuple, or a range as ``seeds = range N`` gives
    sample_budget: int | None
    eval_horizon: int | None = None
    record_bias: bool = True
    n_cycles: int | None = None

    def violations(self) -> list[str]:
        """Every rule the experiment breaks, one message each, all checked
        before any oracle solve. A value of the wrong type is reported, not
        raised: a container that is not a sequence (``mdp._as_tuple``) goes
        unread, and each arm's types and each seed are checked before a set
        hashes them or a run uses them."""
        problems = [] if isinstance(self.mdp, TabularMdp) else [
            f"mdp must be a TabularMdp, got {self.mdp!r}"]
        seeds = self.seeds
        if isinstance(seeds, range):  # distinct integers, so only its ends can be negative
            seeds = sorted({*seeds[:1], *seeds[-1:]})
        arms = _noted(problems, _as_tuple, self.arms, "arms")
        seeds = _noted(problems, _as_tuple, seeds, "seeds")
        if arms == ():
            problems.append("no arms configured")
        wrong = [problem for arm in arms or () for problem in _arm_problems(arm)]
        labels = [] if wrong else [arm.label for arm in arms or ()]
        if len(set(labels)) != len(labels):
            problems.append("arm labels must be unique")
        if not all(label.strip() for label in labels):
            problems.append("arm labels must be non-empty")
        problems += wrong
        if seeds == ():
            problems.append("no seeds configured")
        bad = []  # the seeds default_rng would refuse, found before any oracle solve
        for seed in seeds or ():
            _noted(bad, _in_range, seed, "seed", 0, math.inf, "[)", integer=True)
        if not bad and seeds and len(set(seeds)) != len(seeds):
            problems.append("seeds must be distinct")
        problems += bad
        problems += limit_violations(self.sample_budget, self.n_cycles, self.eval_horizon)
        # a library run of no cycles returns its initial record; a configured run must run one
        if isinstance(self.n_cycles, (int, np.integer)) and self.n_cycles == 0:
            _noted(problems, _in_range, self.n_cycles, "cycle count", 1, math.inf, "[)",
                   integer=True)
        return problems


def _arm_problems(arm) -> list[str]:
    """What is wrong with an arm's types: an ``Arm`` of a string label, a
    schedule and step sizes with an ``alphas`` method."""
    if not isinstance(arm, Arm):
        return [f"arm must be an Arm, got {arm!r}"]
    return [f"arm {what} must be {kind}, got {value!r}" for what, value, kind, ok in (
        ("label", arm.label, "a string", isinstance(arm.label, str)),
        ("schedule", arm.schedule, "a schedule", isinstance(arm.schedule, TufSchedule)),
        ("step sizes", arm.step_sizes, "an object with an alphas method",
         callable(getattr(arm.step_sizes, "alphas", None)))) if not ok]


def run_one(schedule, step_sizes, mdp: TabularMdp, seed: int, label: str, **options) -> RunTrace:
    """One seeded run from a zero table, as ``run_experiment`` makes it:
    adaptive schedules go to the accuracy-triggered runner, the rest to the
    periodic one. The trace is stamped with ``label`` and ``seed``."""
    rng = np.random.default_rng(seed)
    q0 = new_q_table(mdp)
    if isinstance(schedule, AccuracyTriggered):
        trace = run_accuracy_triggered_q(q0, schedule.k_min, schedule.k_max, step_sizes, mdp, rng,
                                         accuracy=schedule.accuracy, **options)
    else:
        trace = run_periodic_q(q0, schedule, step_sizes, mdp, rng, **options)
    trace.label, trace.seed = label, seed
    return trace


def run_experiment(cfg: ExperimentConfig) -> dict[str, list[RunTrace]]:
    """Run every (arm, seed) pair; deterministic given the configuration.
    A ``targetq run`` is the one-arm, one-seed case.

    Runs are independent (no shared mutable state), executed seed-major
    within each arm and collected in configuration order.
    """
    problems = cfg.violations()
    if problems:
        raise ConfigValidationError(problems)
    oracle = value_iteration_oracle(cfg.mdp) if cfg.record_bias else None
    results: dict[str, list[RunTrace]] = {}
    for arm in cfg.arms:
        results[arm.label] = [
            run_one(arm.schedule, arm.step_sizes, cfg.mdp, seed, oracle=oracle,
                    n_cycles=cfg.n_cycles, sample_budget=cfg.sample_budget,
                    eval_horizon=cfg.eval_horizon, label=arm.label)
            for seed in cfg.seeds
        ]
    return results


@dataclass
class AggregateStats:
    """Per-checkpoint statistics across seeds, aligned on cumulative cost
    by carrying each seed's last observation forward."""

    costs: list[int]
    bias_mean: list[float | None]
    bias_median: list[float | None]
    bias_lo: list[float | None]
    bias_hi: list[float | None]
    score_median: list[float | None]
    score_lo: list[float | None]
    score_hi: list[float | None]


# a CSV row is an arm, a checkpoint's cost and index, then the statistics at it
CSV_HEADER = ("arm", "cumulative_cost", "cycle", *(f.name for f in fields(AggregateStats)[1:]))


def _locf_bands(traces: Sequence[RunTrace], grid: np.ndarray, getter) -> list[list]:
    """Mean, median, 2.5 and 97.5 percentiles across seeds at each grid cost,
    each seed carrying its last recorded value forward; None where some seed
    has not recorded a value yet."""
    rows = []
    for trace in traces:
        kept = [(rec.cumulative_cost, v) for rec in trace.records if (v := getter(rec)) is not None]
        idx = np.searchsorted([c for c, _ in kept], grid, side="right") - 1
        # index -1 (before the seed's first value) lands on the NaN sentinel
        rows.append(np.array([v for _, v in kept] + [np.nan], dtype=float)[idx])
    values = np.vstack(rows)
    lo, med, hi = np.percentile(values, [2.5, 50.0, 97.5], axis=0)
    return [np.where(np.isnan(col), None, col).tolist() for col in (values.mean(axis=0), med, lo, hi)]


def aggregate(traces: Sequence[RunTrace]) -> AggregateStats:
    """Aggregate one arm's per-seed traces onto the union cost grid.

    Bands are the 2.5/97.5 percentiles across seeds (linear interpolation).
    A single trace gives zero-width bands: every statistic is the run's own
    value, carried forward like any seed's (``targetq run`` emits this).
    """
    if not traces:
        raise AlignmentError("aggregation needs at least one trace")
    for trace in traces:
        if not trace.records or trace.records[0].cumulative_cost != 0:
            raise AlignmentError("every trace must start with a cost-0 record")
    grid = np.unique(
        np.concatenate([[rec.cumulative_cost for rec in t.records] for t in traces])
    )
    bias = _locf_bands(traces, grid, lambda rec: rec.bias)
    _, *score = _locf_bands(traces, grid, lambda rec: rec.score)  # a score has no mean column
    return AggregateStats([int(c) for c in grid], *bias, *score)


def _stats_rows(label: str, stats: AggregateStats):
    """An arm's CSV rows, formatted one column at a time."""
    costs, *columns = (getattr(stats, f.name) for f in fields(stats))
    n = len(costs)
    return zip([label] * n, map(str, costs), map(str, range(n)),
               *(["" if x is None else format(float(x), ".12g") for x in column]
                 for column in columns), strict=True)


def emit_csv(stats: Mapping[str, AggregateStats], path) -> None:
    """Write checkpoint rows to ``path``, one arm after another.

    ``stats`` maps each arm label to its ``AggregateStats`` (a single run
    is ``{trace.label: aggregate([trace])}``). Floats carry 12 significant
    digits; absent values are empty fields.
    """
    if not isinstance(stats, Mapping):
        raise AlignmentError(f"cannot emit {type(stats).__name__} as CSV")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for label, item in stats.items():
            writer.writerows(_stats_rows(label, item))
