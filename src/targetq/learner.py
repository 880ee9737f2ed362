"""Stochastic learning engines.

The inner loop runs asynchronous SGD on the squared Bellman error against a
target table frozen at cycle start; the outer loop overwrites the target at
the end of each cycle. Three drivers are provided: a generic periodic
runner for predetermined schedules, a geometric-schedule runner, and an
accuracy-triggered runner that stops each inner loop once the mean absolute
TD error over all pairs falls below the cycle's threshold.

Under uniform exploration a periodic cycle is applied in closed form: with
the target frozen, each pair's value at the end of any stretch of steps is
its value at the start scaled by the product of its (1 - alpha) factors plus
a weighted sum of its own sampled targets. ``_apply_cycle`` evaluates this
with array operations over consecutive blocks of ``_CHUNK`` steps and
carries the per-pair values from block to block, so its temporary memory
stays bounded however long the period is. ``inner_sgd_step`` is the
readable per-step reference the closed form is tested against.

Sample-stream contract (what makes traces reproducible): each run owns one
``numpy.random.Generator``. Under uniform exploration a cycle draws its
pair indices as one block, then its reward uniforms as one block; each step
consumes exactly one pair index and one uniform. The accuracy-triggered
runner draws blocks of at most ``_CHUNK`` steps and discards any drawn but
unused samples when a cycle stops early. Trajectory exploration draws per
step: one uniform (explore coin), the random action if exploring, then the
reward uniform.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .mdp import (
    TabularMdp,
    _check_table,
    evaluate_greedy,
    exact_bellman_apply,
    greedy_state_values,
    sup_distance,
)
from .schedules import AccuracyTriggered, GeometricPeriod, TufSchedule

_CHUNK = 8192


# ---------------------------------------------------------------------------
# Exploration policies


@dataclass(frozen=True)
class UniformStateAction:
    """Generative exploration: every active pair drawn with probability
    exactly 1/n_pairs at every step."""

    def xi(self, mdp: TabularMdp) -> float:
        return 1.0 / mdp.num_active_pairs


class EpsilonGreedyTrajectory:
    """Trajectory exploration: epsilon-greedy on the current table along a
    behavior trajectory that resets to the start state on termination.

    The per-step pair probabilities depend on the trajectory, so the
    exploration constant cannot be derived here; callers must supply the
    lower bound ``xi_bound`` when theory constants are needed.
    """

    def __init__(self, epsilon: float, xi_bound: float | None = None):
        if not 0.0 <= epsilon <= 1.0:
            raise DomainError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon
        self.xi_bound = xi_bound
        self._state: int | None = None

    def reset(self, mdp: TabularMdp) -> None:
        self._state = mdp.start_state

    def draw_pair(self, q: np.ndarray, mdp: TabularMdp, rng: np.random.Generator) -> int:
        if self._state is None or mdp.terminal_mask[self._state]:
            self._state = mdp.start_state
        s = self._state
        if rng.random() < self.epsilon:
            a = int(rng.integers(mdp.num_actions))
        else:
            a = int(np.argmax(q[s]))
        p = mdp.pair_id(s, a)
        self._state = int(mdp.pair_next_state[p])
        return p


# ---------------------------------------------------------------------------
# TD-error tracking (stopping statistic for accuracy-triggered updates)


class TdErrorTracker:
    """Per-pair running means of observed TD errors within one cycle.

    The stopping statistic is the mean of |mean TD error| over all pairs,
    with unvisited pairs contributing zero.
    """

    def __init__(self, n_pairs: int):
        self.n_pairs = n_pairs
        self.counts = np.zeros(n_pairs, dtype=np.int64)
        self.means = np.zeros(n_pairs)

    def reset(self) -> None:
        self.counts[:] = 0
        self.means[:] = 0.0

    def update(self, pair: int, delta: float) -> None:
        self.counts[pair] += 1
        self.means[pair] += (delta - self.means[pair]) / self.counts[pair]

    def stopping_stat(self) -> float:
        return float(np.sum(np.abs(self.means))) / self.n_pairs


# ---------------------------------------------------------------------------
# Run traces


@dataclass(frozen=True)
class CycleRecord:
    """State of a run at one cycle boundary.

    Record 0 describes the initial table (zero cost); record n >= 1 is
    taken right after cycle n overwrote the target. ``bellman_gap`` is the
    sup distance between the cycle's final iterate and the exact Bellman
    image of its frozen target; ``stop_stat`` is the accuracy-triggered
    stopping statistic at cycle end.
    """

    cycle: int
    planned_period: int | None
    inner_steps: int
    cumulative_cost: int
    bias: float | None
    bellman_gap: float | None
    score: float | None
    stop_stat: float | None = None


@dataclass
class RunTrace:
    gamma: float
    label: str = "run"
    seed: int | None = None
    records: list[CycleRecord] = field(default_factory=list)

    @property
    def final(self) -> CycleRecord:
        return self.records[-1]

    def costs(self) -> list[int]:
        return [rec.cumulative_cost for rec in self.records]

    def biases(self) -> list[float | None]:
        return [rec.bias for rec in self.records]


# ---------------------------------------------------------------------------
# Inner loop


@dataclass(frozen=True)
class StepOutcome:
    state: int
    action: int
    delta: float


def inner_sgd_step(
    q: np.ndarray,
    q_frozen: np.ndarray,
    mdp: TabularMdp,
    policy,
    alpha: float,
    rng: np.random.Generator,
) -> StepOutcome:
    """One asynchronous SGD step: draw a pair, sample its Bellman target
    from the frozen table, move that single entry of ``q`` by alpha toward
    the target. Mutates ``q`` in place and returns the observed TD error.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    if isinstance(policy, UniformStateAction):
        p = int(rng.integers(mdp.num_active_pairs))
    else:
        p = policy.draw_pair(q, mdp, rng)
    u = rng.random()
    r = float(mdp.pair_value_first[p] if u < mdp.pair_p_first[p] else mdp.pair_value_second[p])
    ns = int(mdp.pair_next_state[p])
    cont = 0.0 if mdp.terminal_mask[ns] else float(np.max(q_frozen[ns]))
    target = r + mdp.gamma * cont
    s, a = int(mdp.pair_state[p]), int(mdp.pair_action[p])
    delta = target - q[s, a]
    q[s, a] += alpha * delta
    return StepOutcome(state=s, action=a, delta=float(delta))


def _frozen_continuation(q_frozen: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """Per-pair gamma * V(next) under the frozen table."""
    v = greedy_state_values(q_frozen, mdp)
    return mdp.gamma * v[mdp.pair_next_state]


def _draw_block(mdp: TabularMdp, count: int, rng: np.random.Generator):
    pairs = rng.integers(0, mdp.num_active_pairs, size=count)
    u = rng.random(count)
    rewards = np.where(
        u < mdp.pair_p_first[pairs],
        mdp.pair_value_first[pairs],
        mdp.pair_value_second[pairs],
    )
    return pairs, rewards


def _checked_alphas(step_sizes, count, start=0):
    alphas = step_sizes.alphas(count, start=start)
    if not np.all((alphas > 0.0) & (alphas <= 1.0)):
        raise DomainError("step sizes must lie in (0, 1]")
    return alphas


def _apply_cycle(q, cont, mdp, pairs, rewards, alphas):
    """Apply one cycle of asynchronous updates to ``q`` in place.

    Because targets depend only on the frozen table, each coordinate's
    update sequence collapses to a weighted average of its own targets:
    q_end = (prod beta_i) q_start + sum_i alpha_i (prod_{j>i} beta_j) t_i
    with beta = 1 - alpha taken at that coordinate's hit steps. The same
    form maps the values at the start of any stretch of steps to the values
    at its end, so the cycle is applied as consecutive blocks of ``_CHUNK``
    steps, each carrying the per-pair values into the next. Blocking keeps
    the kernel's temporaries at O(_CHUNK + n_pairs * max hits per block)
    whatever the period, instead of several period-sized arrays.
    """
    values = q[mdp.pair_state, mdp.pair_action]
    for lo in range(0, len(pairs), _CHUNK):
        hi = lo + _CHUNK
        _apply_block(values, cont, pairs[lo:hi], rewards[lo:hi], alphas[lo:hi])
    q[mdp.pair_state, mdp.pair_action] = values


def _apply_block(values, cont, pairs, rewards, alphas):
    """Closed-form update of the per-pair ``values`` over one block of steps.

    Pair p's hits, latest first, fill row p of a matrix after a leading
    1.0 and are padded with 1.0, so one cumprod along the rows gives every
    suffix product prod_{j>i} beta_j (the column left of hit i) and the
    whole product (the last column). Sorting the ids as the smallest
    unsigned type that holds them lets the stable sort use radix sort; the
    order equals that of the int64 sort.
    """
    n_pairs = values.size
    order = np.argsort(pairs.astype(np.min_scalar_type(n_pairs - 1)), kind="stable")
    counts = np.bincount(pairs, minlength=n_pairs)
    width = int(counts.max()) + 1
    # flat index of each sorted hit: row p, column (stop_p - position)
    row_ends = np.cumsum(counts) + np.arange(0, n_pairs * width, width)
    flat = np.repeat(row_ends, counts) - np.arange(len(pairs))
    als = alphas[order]
    betas = np.ones(n_pairs * width)
    betas[flat] = 1.0 - als
    prods = np.cumprod(betas.reshape(n_pairs, width), axis=1)
    targets = rewards[order] + np.repeat(cont, counts)
    weighted = als * prods.ravel()[flat - 1] * targets
    values *= prods[:, -1]
    values += np.bincount(np.repeat(np.arange(n_pairs), counts), weights=weighted,
                          minlength=n_pairs)


def run_inner_loop(
    q_in: np.ndarray,
    n_steps: int,
    step_sizes,
    policy,
    mdp: TabularMdp,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run ``n_steps`` of SGD against the target frozen at ``q_in``.

    The step-size index restarts at 0. Returns a new table; ``q_in`` is
    left untouched and keeps serving as the frozen target throughout.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be at least 1")
    _check_table(q_in, mdp)
    q = np.array(q_in, dtype=float)
    if isinstance(policy, UniformStateAction):
        alphas = _checked_alphas(step_sizes, n_steps)
        pairs, rewards = _draw_block(mdp, n_steps, rng)
        _apply_cycle(q, _frozen_continuation(q_in, mdp), mdp, pairs, rewards, alphas)
    else:
        # trajectory policies keep their behavior state across cycles of a
        # run; use one policy instance per run
        frozen = np.array(q_in, dtype=float)
        for k in range(n_steps):
            inner_sgd_step(q, frozen, mdp, policy, step_sizes.alpha(k), rng)
    return q


# ---------------------------------------------------------------------------
# Outer loops


def _record(trace, cycle, planned, steps, cost, q, mdp, oracle, gap, eval_start,
            eval_horizon, do_eval, stop_stat=None):
    bias = sup_distance(q, oracle, mdp) if oracle is not None else None
    score = None
    if eval_horizon is not None and do_eval:
        start = mdp.start_state if eval_start is None else eval_start
        score = evaluate_greedy(q, mdp, start, eval_horizon)
    trace.records.append(
        CycleRecord(
            cycle=cycle,
            planned_period=planned,
            inner_steps=steps,
            cumulative_cost=cost,
            bias=bias,
            bellman_gap=gap,
            score=score,
            stop_stat=stop_stat,
        )
    )


def _resolve_limits(schedule_cycles, n_cycles, sample_budget):
    if n_cycles is not None and schedule_cycles is not None:
        limit = min(n_cycles, schedule_cycles)
    elif n_cycles is not None:
        limit = n_cycles
    else:
        limit = schedule_cycles
    if limit is None and sample_budget is None:
        raise DomainError("an unbounded schedule needs n_cycles or sample_budget")
    return limit


def run_periodic_q(
    q0: np.ndarray,
    schedule: TufSchedule,
    step_sizes,
    policy,
    mdp: TabularMdp,
    rng: np.random.Generator,
    *,
    oracle: np.ndarray | None = None,
    n_cycles: int | None = None,
    sample_budget: int | None = None,
    eval_start: int | None = None,
    eval_horizon: int | None = None,
    eval_every: int = 1,
    record_gap: bool = False,
    label: str = "run",
    seed: int | None = None,
) -> RunTrace:
    """Q-learning with delayed target updates under a predetermined
    schedule. The target is frozen at each cycle start and overwritten by
    the final iterate at cycle end; step sizes restart every cycle.

    Stops after ``n_cycles`` cycles (or the schedule's own length) or once
    the cumulative sample cost reaches ``sample_budget``, whichever comes
    first; the cycle that crosses the budget completes.
    """
    if isinstance(schedule, AccuracyTriggered):
        raise DomainError("adaptive schedules are run by run_accuracy_triggered_q")
    limit = _resolve_limits(schedule.n_cycles, n_cycles, sample_budget)
    _check_table(q0, mdp)
    q = np.array(q0, dtype=float)
    trace = RunTrace(gamma=mdp.gamma, label=label, seed=seed)
    _record(trace, 0, None, 0, 0, q, mdp, oracle, None, eval_start, eval_horizon, True)
    n = 0
    cost = 0
    while (limit is None or n < limit) and (sample_budget is None or cost < sample_budget):
        k = schedule.period(n)
        if k < 1:
            raise DomainError(f"schedule produced period {k} at cycle {n}")
        image = exact_bellman_apply(q, mdp) if record_gap else None
        q_new = run_inner_loop(q, k, step_sizes, policy, mdp, rng)
        gap = sup_distance(q_new, image, mdp) if record_gap else None
        q = q_new
        cost += k
        n += 1
        _record(trace, n, k, k, cost, q, mdp, oracle, gap, eval_start, eval_horizon,
                n % eval_every == 0)
    return trace


def run_geometric_q(
    q0: np.ndarray,
    k0: int,
    step_sizes,
    policy,
    mdp: TabularMdp,
    rng: np.random.Generator,
    *,
    n_cycles: int | None = None,
    sample_budget: int | None = None,
    **kwargs,
) -> RunTrace:
    """Periodic Q-learning whose update periods grow geometrically as
    ceil(k0 * gamma^(-2n/3)), the rate at which longer freezes keep pace
    with the shrinking outer-loop error."""
    return run_periodic_q(
        q0,
        GeometricPeriod(k0, mdp.gamma),
        step_sizes,
        policy,
        mdp,
        rng,
        n_cycles=n_cycles,
        sample_budget=sample_budget,
        **kwargs,
    )


def run_accuracy_triggered_q(
    q0: np.ndarray,
    k_min: int,
    k_max: int,
    step_sizes,
    policy,
    mdp: TabularMdp,
    rng: np.random.Generator,
    *,
    accuracy: Callable[[int], float] | None = None,
    oracle: np.ndarray | None = None,
    n_cycles: int | None = None,
    sample_budget: int | None = None,
    eval_start: int | None = None,
    eval_horizon: int | None = None,
    eval_every: int = 1,
    record_gap: bool = False,
    label: str = "run",
    seed: int | None = None,
) -> RunTrace:
    """Q-learning with accuracy-triggered target updates.

    Each cycle resets the TD-error tracker and runs the inner loop until
    both at least ``k_min`` steps were taken and the stopping statistic
    (mean |mean TD error| over all pairs, unvisited pairs counting zero)
    falls to the cycle's threshold, or ``k_max`` steps are exhausted.
    Thresholds default to n^-2 for 1-based cycle index n.
    """
    adaptive = AccuracyTriggered(k_min, k_max, accuracy)
    if n_cycles is None and sample_budget is None:
        raise DomainError("accuracy-triggered runs need n_cycles or sample_budget")
    _check_table(q0, mdp)
    q = np.array(q0, dtype=float)
    trace = RunTrace(gamma=mdp.gamma, label=label, seed=seed)
    _record(trace, 0, None, 0, 0, q, mdp, oracle, None, eval_start, eval_horizon, True)
    n = 0
    cost = 0
    while (n_cycles is None or n < n_cycles) and (sample_budget is None or cost < sample_budget):
        eps_n = adaptive.threshold(n + 1)
        image = exact_bellman_apply(q, mdp) if record_gap else None
        q_new = np.array(q, dtype=float)
        if isinstance(policy, UniformStateAction):
            steps, stat = _adaptive_cycle_uniform(
                q_new, q, mdp, step_sizes, k_min, k_max, eps_n, rng
            )
        else:
            steps, stat = _adaptive_cycle_trajectory(
                q_new, q, mdp, step_sizes, policy, k_min, k_max, eps_n, rng
            )
        gap = sup_distance(q_new, image, mdp) if record_gap else None
        q = q_new
        cost += steps
        n += 1
        _record(trace, n, None, steps, cost, q, mdp, oracle, gap, eval_start,
                eval_horizon, n % eval_every == 0, stop_stat=stat)
    return trace


def _adaptive_cycle_uniform(q, q_frozen, mdp, step_sizes, k_min, k_max, eps_n, rng):
    """Inner loop with per-step stopping checks, specialized to uniform
    exploration. Plain-Python hot loop over pre-drawn blocks; the tracker
    is inlined and the stopping statistic maintained incrementally."""
    n_pairs = mdp.num_active_pairs
    cont = _frozen_continuation(q_frozen, mdp).tolist()
    p_first = mdp.pair_p_first.tolist()
    v_first = mdp.pair_value_first.tolist()
    v_second = mdp.pair_value_second.tolist()
    values = q[mdp.pair_state, mdp.pair_action].tolist()
    counts = [0] * n_pairs
    means = [0.0] * n_pairs
    stat = 0.0
    steps = 0
    stopped = False
    while steps < k_max and not stopped:
        block = min(_CHUNK, k_max - steps)
        pair_block = rng.integers(0, n_pairs, size=block).tolist()
        u_block = rng.random(block).tolist()
        alpha_block = _checked_alphas(step_sizes, block, start=steps).tolist()
        for i in range(block):
            p = pair_block[i]
            r = v_first[p] if u_block[i] < p_first[p] else v_second[p]
            delta = r + cont[p] - values[p]
            values[p] += alpha_block[i] * delta
            c = counts[p] + 1
            counts[p] = c
            old = means[p]
            new = old + (delta - old) / c
            means[p] = new
            stat += (abs(new) - abs(old)) / n_pairs
            steps += 1
            if steps >= k_min and stat <= eps_n:
                stopped = True
                break
    q[mdp.pair_state, mdp.pair_action] = values
    exact_stat = sum(abs(m) for m in means) / n_pairs
    return steps, exact_stat


def _adaptive_cycle_trajectory(q, q_frozen, mdp, step_sizes, policy, k_min, k_max, eps_n, rng):
    """Per-step variant for trajectory exploration."""
    tracker = TdErrorTracker(mdp.num_active_pairs)
    frozen = np.array(q_frozen, dtype=float)
    steps = 0
    for k in range(k_max):
        out = inner_sgd_step(q, frozen, mdp, policy, step_sizes.alpha(k), rng)
        tracker.update(mdp.pair_id(out.state, out.action), out.delta)
        steps += 1
        if steps >= k_min and tracker.stopping_stat() <= eps_n:
            break
    return steps, tracker.stopping_stat()
