import csv
import importlib
import inspect
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import targetq as tq
from targetq import harness, learner
from targetq.errors import (
    AlignmentError,
    ConfigValidationError,
    DimensionError,
    DomainError,
    ScheduleOverflowError,
)
from targetq.harness import CSV_HEADER


@pytest.fixture(scope="module")
def small_cfg(grid07):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    return tq.ExperimentConfig(
        mdp=grid07,
        arms=(
            tq.Arm("fixed-200", tq.FixedPeriod(200), steps),
            tq.Arm("geometric-100", tq.GeometricPeriod(100, 0.7), steps),
        ),
        seeds=(0, 1, 2),
        sample_budget=3000,
        eval_horizon=7,
    )


@pytest.fixture(scope="module")
def small_results(small_cfg):
    return tq.run_experiment(small_cfg)


def test_config_validation_lists_every_violation(grid07):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(
        mdp=grid07,
        arms=(
            tq.Arm("a", tq.FixedPeriod(10), steps),
            tq.Arm("a", tq.FixedPeriod(20), steps),
        ),
        seeds=(1, 1),
        sample_budget=0,
        eval_horizon=-1,
    )
    with pytest.raises(ConfigValidationError) as err:
        tq.run_experiment(cfg)
    assert len(err.value.violations) == 4


def test_unbounded_config_fails_before_the_oracle_solve(grid07, monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("the oracle was solved for a config that cannot run")

    monkeypatch.setattr(tq.harness, "value_iteration_oracle", spy)
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(tq.Arm("a", tq.FixedPeriod(10), steps),),
                              seeds=(0, 1), sample_budget=None)
    with pytest.raises(ConfigValidationError, match="unbounded run needs n_cycles or sample_budget"):
        tq.run_experiment(cfg)


@pytest.mark.parametrize(
    "field, value, what",
    [("n_cycles", 2.5, "cycle count"), ("n_cycles", 0.0, "cycle count"),
     ("eval_horizon", 2.5, "evaluation horizon")],
    ids=["n_cycles=2.5", "n_cycles=0.0", "eval_horizon=2.5"],
)
def test_non_integer_limit_fails_before_the_oracle_solve(grid07, monkeypatch, field, value, what):
    def spy(*args, **kwargs):
        raise AssertionError("the oracle was solved for a config that cannot run")

    monkeypatch.setattr(tq.harness, "value_iteration_oracle", spy)
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(tq.Arm("a", tq.FixedPeriod(10), steps),),
                              seeds=(0, 1), sample_budget=100, **{field: value})
    with pytest.raises(ConfigValidationError) as err:
        tq.run_experiment(cfg)
    assert err.value.violations == [f"{what} must be an integer, got {value}"]


@pytest.mark.parametrize("seeds, problem", [
    ((-1, 2), "seed must lie in [0, inf), got -1"),
    ((1.5, 2), "seed must be an integer, got 1.5"),
    ((0, "1"), "seed must be an integer, got '1'"),
    (([1], 2), "seed must be an integer, got [1]"),  # checked before a set hashes it
    (5, "seeds must be a sequence, got 5"),
    ("01", "seeds must be a sequence, got '01'"),
], ids=["negative", "float", "str", "list", "int-container", "str-container"])
def test_bad_seeds_fail_before_the_oracle_solve(grid07, monkeypatch, seeds, problem):
    def spy(*args, **kwargs):
        raise AssertionError("the oracle was solved for seeds that cannot run")

    monkeypatch.setattr(tq.harness, "value_iteration_oracle", spy)
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(tq.Arm("a", tq.FixedPeriod(10), steps),),
                              seeds=seeds, sample_budget=100)
    with pytest.raises(ConfigValidationError) as err:
        tq.run_experiment(cfg)
    assert err.value.violations == [problem]
    assert replace(cfg, seeds=(np.int64(0), np.uint8(1))).violations() == []
    # an array is a sequence like any other (its truth value used to raise)
    assert replace(cfg, seeds=np.array([0, 1])).violations() == []


@pytest.mark.parametrize("labels, problems", [
    ((3, "b"), ["arm label must be a string, got 3"]),
    ((["a"], None), ["arm label must be a string, got ['a']",
                     "arm label must be a string, got None"]),
], ids=["int", "list-and-none"])
def test_non_string_labels_fail_before_the_oracle_solve(grid07, monkeypatch, labels, problems):
    # a label's type is checked before a set hashes it or .strip() reads it
    def spy(*args, **kwargs):
        raise AssertionError("the oracle was solved for labels that cannot run")

    monkeypatch.setattr(tq.harness, "value_iteration_oracle", spy)
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    arms = tuple(tq.Arm(label, tq.FixedPeriod(10), steps) for label in labels)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=arms, seeds=(0, 1), sample_budget=100)
    with pytest.raises(ConfigValidationError) as err:
        tq.run_experiment(cfg)
    assert err.value.violations == problems


# a wrong-typed container, arm or arm part is reported, not raised
@pytest.mark.parametrize("changes, problems", [
    (dict(arms=5), ["arms must be a sequence, got 5"]),
    (dict(arms=("a",)), ["arm must be an Arm, got 'a'"]),
    (dict(mdp="grid"), ["mdp must be a TabularMdp, got 'grid'"]),
    (dict(arms=(tq.Arm("a", "fixed 10", None),)),
     ["arm schedule must be a schedule, got 'fixed 10'",
      "arm step sizes must be an object with an alphas method, got None"]),
    (dict(arms=(tq.Arm("a", tq.FixedPeriod(10), SimpleNamespace(alphas=0.5)),)),
     ["arm step sizes must be an object with an alphas method, got namespace(alphas=0.5)"]),
], ids=["arms-int", "arms-str-item", "mdp-str", "schedule-str-and-steps-none",
        "alphas-not-callable"])
def test_wrong_typed_parts_fail_before_the_oracle_solve(grid07, monkeypatch, changes, problems):
    def spy(*args, **kwargs):
        raise AssertionError("the oracle was solved for a config that cannot run")

    monkeypatch.setattr(tq.harness, "value_iteration_oracle", spy)
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(tq.Arm("a", tq.FixedPeriod(10), steps),),
                              seeds=(0, 1), sample_budget=100)
    assert cfg.violations() == []
    with pytest.raises(ConfigValidationError) as err:
        tq.run_experiment(replace(cfg, **changes))
    assert err.value.violations == problems


@pytest.mark.parametrize("seeds, problem", [
    (range(-2, 3), "seed must lie in [0, inf), got -2"),
    (range(5, -3, -1), "seed must lie in [0, inf), got -2"),
    (range(4, 4), "no seeds configured"),
])
def test_seed_range_is_checked_by_its_ends(grid07, seeds, problem):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(tq.Arm("a", tq.FixedPeriod(10), steps),),
                              seeds=seeds, sample_budget=100)
    assert cfg.violations() == [problem]
    assert replace(cfg, seeds=range(3, 10**30, 7)).violations() == []


# an integer past the float range is an infinite budget, which no cost reaches
@pytest.mark.parametrize("budget, shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                           (10**400, "inf")], ids=["nan", "inf", "10**400"])
def test_non_finite_budget_is_a_violation(grid07, budget, shown):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(tq.Arm("a", tq.FixedPeriod(10), steps),),
                              seeds=(0, 1), sample_budget=budget)
    assert cfg.violations() == [f"sample budget must lie in [1, inf), got {shown}"]
    assert replace(cfg, sample_budget=2e6).violations() == []


def test_config_without_arms_is_a_violation(grid07):
    cfg = tq.ExperimentConfig(mdp=grid07, arms=(), seeds=(0, 1), sample_budget=100)
    assert cfg.violations() == ["no arms configured"]


def test_single_run_equals_direct_call(grid07, oracle07, small_cfg):
    traces = tq.run_experiment(
        tq.ExperimentConfig(
            mdp=grid07,
            arms=small_cfg.arms[:1],
            seeds=(5,),
            sample_budget=1000,
            eval_horizon=7,
        )
    )["fixed-200"]
    direct = tq.run_periodic_q(
        tq.new_q_table(grid07),
        tq.FixedPeriod(200),
        small_cfg.arms[0].step_sizes,
        grid07,
        np.random.default_rng(5),
        oracle=oracle07,
        sample_budget=1000,
        eval_horizon=7,
    )
    assert traces[0].records == direct.records


def test_run_experiment_stamps_each_trace_with_its_arm_and_seed(grid07):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(
        mdp=grid07,
        arms=(tq.Arm("fixed", tq.FixedPeriod(100), steps),
              tq.Arm("adaptive", tq.AccuracyTriggered(50, 500), steps)),
        seeds=(4, 0),
        sample_budget=300,
    )
    res = tq.run_experiment(cfg)
    for label, traces in res.items():
        assert [(t.label, t.seed) for t in traces] == [(label, 4), (label, 0)]


def test_identical_arms_same_seed_identical_traces(grid07, small_cfg):
    steps = small_cfg.arms[0].step_sizes
    cfg = tq.ExperimentConfig(
        mdp=grid07,
        arms=(
            tq.Arm("one", tq.FixedPeriod(150), steps),
            tq.Arm("two", tq.FixedPeriod(150), steps),
        ),
        seeds=(3,),
        sample_budget=600,
    )
    res = tq.run_experiment(cfg)
    assert res["one"][0].records == res["two"][0].records


def test_arms_share_budget_fairness(small_results, small_cfg):
    for traces in small_results.values():
        for t in traces:
            assert t.final.cumulative_cost >= small_cfg.sample_budget
            # last cycle started strictly below the budget
            assert t.records[-2].cumulative_cost < small_cfg.sample_budget


def test_adaptive_arm_through_harness(grid07):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(
        mdp=grid07,
        arms=(tq.Arm("adaptive", tq.AccuracyTriggered(50, 500), steps),),
        seeds=(0, 1),
        sample_budget=2000,
    )
    res = tq.run_experiment(cfg)
    for t in res["adaptive"]:
        assert all(50 <= rec.inner_steps <= 500 for rec in t.records[1:])


def test_benchmark_tracer_still_binds(monkeypatch):
    # benchmarks/tracing.py wraps entry points where the package calls them
    # (MissingSpan if one moved) and counts steps from arguments it binds by
    # name; the benchmark files are read, never edited
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    originals = (learner.run_inner_loop, harness.run_accuracy_triggered_q)
    with tracing.Tracer().installed():
        pass
    assert (learner.run_inner_loop, harness.run_accuracy_triggered_q) == originals
    assert "n_steps" in inspect.signature(learner.run_inner_loop).parameters
    assert "k_max" in inspect.signature(harness.run_accuracy_triggered_q).parameters


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from targetq import *", namespace)
    assert not [name for name, value in namespace.items() if inspect.ismodule(value)]
    assert "run_experiment" in namespace
    # benchmarks/run.py reaches these as attributes of the package
    assert callable(tq.config.parse_sweep_config) and callable(tq.harness.run_one)


@pytest.mark.parametrize(
    "error, also",
    [(DimensionError, ValueError), (ConfigValidationError, ValueError),
     (AlignmentError, ValueError), (ScheduleOverflowError, OverflowError)],
)
def test_bad_input_errors_are_domain_errors(error, also):
    # every bad input is a DomainError; the older base stays for existing handlers
    assert issubclass(error, DomainError) and issubclass(error, also)
    exc = error(["x"]) if error is ConfigValidationError else error("x")
    with pytest.raises(DomainError):
        raise exc


# ---------------------------------------------------------------------------
# Aggregation


def _trace(costs, biases, scores=None):
    t = tq.RunTrace(label="x")
    scores = scores or [None] * len(costs)
    for i, (c, b) in enumerate(zip(costs, biases)):
        t.records.append(
            tq.CycleRecord(
                cycle=i, inner_steps=0, cumulative_cost=c, bias=b, score=scores[i],
            )
        )
    return t


def test_aggregate_identical_traces_zero_width(small_results):
    traces = small_results["fixed-200"]
    stats = tq.aggregate([traces[0], traces[0]])
    for lo, hi in zip(stats.bias_lo, stats.bias_hi):
        assert lo == hi


def test_aggregate_median_of_three():
    traces = [_trace([0, 10], [5.0, b]) for b in (1.0, 2.0, 3.0)]
    stats = tq.aggregate(traces)
    assert stats.costs == [0, 10]
    assert stats.bias_median[1] == 2.0
    assert stats.bias_mean[1] == pytest.approx(2.0)


def test_aggregate_matches_sort_and_index_oracle():
    rng = np.random.default_rng(12)
    values = rng.uniform(0, 5, size=(9, 1))
    traces = [_trace([0], [float(v)]) for v in values[:, 0]]
    stats = tq.aggregate(traces)

    def percentile_oracle(xs, q):
        # linear interpolation between closest ranks
        xs = sorted(xs)
        pos = (len(xs) - 1) * q / 100.0
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])

    col = list(values[:, 0])
    assert stats.bias_lo[0] == pytest.approx(percentile_oracle(col, 2.5), abs=1e-12)
    assert stats.bias_median[0] == pytest.approx(percentile_oracle(col, 50), abs=1e-12)
    assert stats.bias_hi[0] == pytest.approx(percentile_oracle(col, 97.5), abs=1e-12)


def test_aggregate_cost_alignment_carries_forward():
    a = _trace([0, 10, 20], [3.0, 2.0, 1.0])
    b = _trace([0, 15], [3.0, 0.5])
    stats = tq.aggregate([a, b])
    assert stats.costs == [0, 10, 15, 20]
    # at cost 15: a carries 2.0 forward, b reports 0.5
    assert stats.bias_mean[2] == pytest.approx((2.0 + 0.5) / 2)
    # at cost 20: b carries 0.5 forward
    assert stats.bias_mean[3] == pytest.approx((1.0 + 0.5) / 2)
    assert all(x < y for x, y in zip(stats.costs, stats.costs[1:]))
    # scores missing from some records carry forward too; before a seed's
    # first score there is none to carry
    a = _trace([0, 10, 20, 30], [3.0] * 4, [-1.0, None, -2.0, None])
    b = _trace([0, 10, 20], [3.0] * 3, [None, -4.0, None])
    stats = tq.aggregate([a, b])
    assert stats.score_median == [None, -2.5, -3.0, -3.0]
    assert stats.bias_median == [3.0] * 4


def test_aggregate_band_ordering(small_results):
    stats = tq.aggregate(small_results["geometric-100"])
    for lo, med, hi in zip(stats.bias_lo, stats.bias_median, stats.bias_hi):
        assert lo <= med <= hi


def test_aggregate_single_trace_zero_width():
    stats = tq.aggregate([_trace([0, 5, 9], [3.0, 2.0, 1.5], [0.5, None, 0.25])])
    assert stats.costs == [0, 5, 9]
    assert stats.bias_mean == stats.bias_median == stats.bias_lo == stats.bias_hi == [3.0, 2.0, 1.5]
    # the score recorded at cost 0 is carried forward to cost 5
    assert stats.score_median == stats.score_lo == stats.score_hi == [0.5, 0.5, 0.25]


def test_aggregate_errors():
    with pytest.raises(AlignmentError):
        tq.aggregate([])
    with pytest.raises(AlignmentError):
        tq.aggregate([_trace([5], [1.0]), _trace([0], [1.0])])


def test_band_coverage_of_final_biases(grid07, oracle07):
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    cfg = tq.ExperimentConfig(
        mdp=grid07,
        arms=(tq.Arm("cov", tq.FixedPeriod(200), steps),),
        seeds=tuple(range(50)),
        sample_budget=2000,
    )
    traces = tq.run_experiment(cfg)["cov"]
    stats = tq.aggregate(traces)
    finals = [t.final.bias for t in traces]
    lo, hi = stats.bias_lo[-1], stats.bias_hi[-1]
    inside = sum(1 for b in finals if lo <= b <= hi)
    assert inside >= 0.9 * len(finals)


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_header_only_for_empty(tmp_path):
    path = tmp_path / "empty.csv"
    tq.emit_csv({}, path)
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"


def test_emit_csv_roundtrip_and_row_count(tmp_path, small_results):
    stats = {label: tq.aggregate(traces) for label, traces in small_results.items()}
    path = tmp_path / "stats.csv"
    tq.emit_csv(stats, path)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert len(rows) == sum(len(s.costs) for s in stats.values())
    with pytest.raises(AlignmentError):  # bare stats carry no arm label
        tq.emit_csv(stats["fixed-200"], path)
    for row in rows:
        label = row["arm"]
        i = int(row["cycle"])
        assert int(row["cumulative_cost"]) == stats[label].costs[i]
        emitted = float(row["bias_median"])
        assert emitted == pytest.approx(stats[label].bias_median[i], rel=1e-11)


def test_emit_csv_trace_zero_width(tmp_path, small_results):
    trace = small_results["fixed-200"][0]
    path = tmp_path / "trace.csv"
    tq.emit_csv({trace.label: tq.aggregate([trace])}, path)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert len(rows) == len(trace.records)
    for row, rec in zip(rows, trace.records):
        assert (row["cumulative_cost"], row["cycle"]) == (str(rec.cumulative_cost), str(rec.cycle))
        assert row["bias_mean"] == row["bias_lo"] == row["bias_hi"] == row["bias_median"]
        assert float(row["bias_median"]) == pytest.approx(rec.bias, rel=1e-11)
        assert row["score_lo"] == row["score_hi"] == row["score_median"]


def test_emit_csv_deterministic_bytes(tmp_path, small_results):
    stats = {label: tq.aggregate(traces) for label, traces in small_results.items()}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tq.emit_csv(stats, p1)
    tq.emit_csv(stats, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_experiment_reproducible(small_cfg, small_results, tmp_path):
    again = tq.run_experiment(small_cfg)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    tq.emit_csv({k: tq.aggregate(v) for k, v in small_results.items()}, p1)
    tq.emit_csv({k: tq.aggregate(v) for k, v in again.items()}, p2)
    assert p1.read_bytes() == p2.read_bytes()
