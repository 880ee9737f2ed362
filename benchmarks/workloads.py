"""Workload definitions for the targetq sweep benchmark, the sweep configs
they generate, and the checks on a sweep's outputs.

Every workload is a ``targetq sweep`` on the bundled 4x4 grid at gamma 0.7
with theory step sizes, a 2,000,000-sample budget per run, bias recording
and a 7-step greedy evaluation. The sweep seeds are derived from the
benchmark's ``--seed`` argument, so one seed always gives one config.
"""
from __future__ import annotations

import csv
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

from speed import draw_and_sort, small_array_loop, step_loop

GAMMA = 0.7
BUDGET = 2_000_000
EVAL_HORIZON = 7

# The reference sweep runs every workload at seed 0 and this smaller budget;
# its per-arm median final bias must match reference.json.
REFERENCE_SEED = 0
REFERENCE_BUDGET = 200_000

# Two seeds per sweep, the fewest aggregate() accepts: short sweeps let the
# speed kernel run between them often enough to follow the host's speed.
N_SEEDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[tuple[str, str], ...]  # (label, schedule spec)
    speed_kernel: Callable[[], float]  # the kind of work that dominates the sweep

    @property
    def n_runs(self) -> int:
        return len(self.arms) * N_SEEDS

    @property
    def periodic(self) -> bool:
        return any(not spec.startswith("adaptive") for _, spec in self.arms)

    @property
    def adaptive(self) -> bool:
        return any(spec.startswith("adaptive") for _, spec in self.arms)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-period", (("fixed-1e3", "fixed 1000"),), small_array_loop),
        Workload(
            "long-period",
            (
                ("fixed-1e4", "fixed 10000"),
                ("fixed-1e5", "fixed 100000"),
                ("geometric-1e3", "geometric 1000"),
            ),
            draw_and_sort,
        ),
        Workload("adaptive", (("adaptive-1e3-1e6", "adaptive 1000 1000000"),), step_loop),
    )
}


def sweep_seeds(seed: int) -> list[int]:
    """Distinct run seeds for one benchmark seed."""
    return random.Random(seed).sample(range(2**31), N_SEEDS)


def sweep_config_text(workload: Workload, seeds, budget: int) -> str:
    lines = [
        "[sweep]",
        "env = gridworld",
        f"gamma = {GAMMA}",
        "seeds = " + " ".join(str(s) for s in seeds),
        f"budget = {budget}",
        "bias = true",
        f"eval_horizon = {EVAL_HORIZON}",
        "",
    ]
    for label, spec in workload.arms:
        lines += [f"[arm {label}]", f"schedule = {spec}", "step_size = theory", ""]
    return "\n".join(lines)


def expected_periodic_cost(spec: str, budget: int) -> int:
    """Final cumulative cost of a fixed or geometric schedule: whole cycles
    until the budget is reached, the crossing cycle included. Computed here
    from the paper's formula ceil(k0 * gamma^(-2n/3)), not by targetq."""
    kind, *args = spec.split()
    cost = n = 0
    while cost < budget:
        if kind == "fixed":
            cost += int(args[0])
        else:
            cost += math.ceil(int(args[0]) * GAMMA ** (-2.0 * n / 3.0))
        n += 1
    return cost


def check_run(spec: str, trace, budget: int) -> list[str]:
    """Problems with one arm-seed run's trace; empty when it is correct."""
    where = f"{trace.label} seed {trace.seed}"
    recs = trace.records
    if not recs or recs[0].cumulative_cost != 0:
        return [f"{where}: trace does not start with a cost-0 record"]
    problems = []
    if any(r.bias is None or not math.isfinite(r.bias) for r in recs):
        problems.append(f"{where}: a recorded bias is missing or not finite")
    final = recs[-1].cumulative_cost
    if spec.startswith("adaptive"):
        k_min, k_max = (int(a) for a in spec.split()[1:])
        if not budget <= final < budget + k_max:
            problems.append(f"{where}: final cost {final} outside [{budget}, {budget + k_max})")
        if any(not k_min <= r.inner_steps <= k_max for r in recs[1:]):
            problems.append(f"{where}: a cycle ran outside [k_min, k_max] = [{k_min}, {k_max}]")
        if sum(r.inner_steps for r in recs) != final:
            problems.append(f"{where}: cycle lengths do not add up to the final cost")
    else:
        expected = expected_periodic_cost(spec, budget)
        if final != expected:
            problems.append(f"{where}: final cost {final}, schedule gives {expected}")
    return problems


def check_csv(path, results) -> list[str]:
    """Check an emitted aggregate CSV against the runs it summarises: each
    arm's last row sits at the largest final cost and carries the median of
    the final biases, and every bias field is finite."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    for label, traces in results.items():
        arm_rows = [r for r in rows if r["arm"] == label]
        if not arm_rows:
            problems.append(f"CSV has no rows for arm {label}")
            continue
        last = arm_rows[-1]
        want_cost = max(t.final.cumulative_cost for t in traces)
        want_bias = statistics.median([t.final.bias for t in traces])
        if int(last["cumulative_cost"]) != want_cost:
            problems.append(f"CSV arm {label}: last cost {last['cumulative_cost']}, runs end at {want_cost}")
        if not math.isclose(float(last["bias_median"]), want_bias, rel_tol=1e-11):
            problems.append(f"CSV arm {label}: final bias_median {last['bias_median']}, runs give {want_bias!r}")
    for row in rows:
        fields = (row["bias_mean"], row["bias_median"], row["bias_lo"], row["bias_hi"])
        if not all(f and math.isfinite(float(f)) for f in fields):
            problems.append(f"CSV arm {row['arm']}: non-finite bias at cost {row['cumulative_cost']}")
            break
    return problems
