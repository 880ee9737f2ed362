"""Stochastic learning engines.

The inner loop runs asynchronous SGD on the squared Bellman error against a
target table frozen at cycle start; the outer loop overwrites the target at
the end of each cycle. There is one outer loop, ``_run_cycles``, and two
entry points that each hand it a cycle: ``run_periodic_q`` runs a
predetermined schedule (fixed, geometric or explicit periods) and
``run_accuracy_triggered_q`` stops each inner loop once the mean absolute
TD error over all pairs falls below the cycle's threshold.

A periodic cycle is applied in closed form: with the target frozen, each
pair's value at the end of any stretch of steps is its value at the start
scaled by the product of its (1 - alpha) factors plus a weighted sum of its
own sampled targets. ``_apply_cycle`` draws and evaluates this one block of
``_CHUNK`` steps at a time and carries the per-pair values from block to
block, so a cycle of any period runs in O(``_CHUNK``) memory.
``_adaptive_cycle`` works chunk by chunk too, speculatively: it
evaluates each chunk of steps whole, as if the cycle did not stop inside it,
computes the stopping statistic after every step, and rolls the values back
to the first step that meets the stopping rule.

Sample-stream contract (what makes traces reproducible): each run owns one
``numpy.random.Generator``, and every step draws its pair uniformly from
the active pairs. A periodic cycle's stream is that of drawing all its pair
indices, then all its reward uniforms; each step consumes exactly one pair
index and one uniform. The draws themselves are made per block: numpy gives
the same values drawn in pieces as in one call, so the cycle replays its
later pair indices from a copy of the generator state while the run's
generator skips past them to the uniforms (see ``_apply_cycle``). The
accuracy-triggered runner draws blocks of at most ``_CHUNK`` steps and
discards any drawn but unused samples when a cycle stops early, so
speculation and roll-back draw exactly what a per-step loop over the same
blocks would.
"""
from __future__ import annotations

import functools
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
from .schedules import AccuracyTriggered, TufSchedule, _as_int

_CHUNK = 8192
_CACHED_BLOCKS = 16


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
    label: str = "run"
    seed: int | None = None
    records: list[CycleRecord] = field(default_factory=list)

    @property
    def final(self) -> CycleRecord:
        return self.records[-1]


# ---------------------------------------------------------------------------
# Inner loop


def _frozen_continuation(q_frozen: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """Per-pair gamma * V(next) under the frozen table."""
    v = greedy_state_values(q_frozen, mdp)
    return mdp.gamma * v[mdp.pair_next_state]


def _draw_block(mdp: TabularMdp, count: int, rng: np.random.Generator):
    """``count`` uniform pair indices, then their ``count`` reward uniforms;
    ``mdp.draw_rewards(pairs, u)`` turns the uniforms into rewards."""
    return rng.integers(0, mdp.num_active_pairs, size=count), rng.random(count)


def _read_only_alphas(step_sizes, count, start=0):
    """``step_sizes.alphas(count, start)``, checked, as a read-only copy: the
    object's own arrays stay writeable and no caller can change the copy."""
    alphas = np.array(step_sizes.alphas(count, start=start))
    # a NaN makes min() NaN and fails the test
    if not (alphas.min() > 0.0 and alphas.max() <= 1.0):
        raise DomainError("step sizes must lie in (0, 1]")
    alphas.flags.writeable = False
    return alphas


class _RunStepSizes:
    """One run's step sizes, checked and read-only (``_read_only_alphas``).

    Step sizes restart every cycle and a block's array depends only on its
    start and length, so every cycle asks for the same leading blocks. The
    full ``_CHUNK`` blocks that start below ``_CACHED_BLOCKS * _CHUNK`` are
    kept for the whole run (at most 1 MiB), so each is computed and checked
    once per run however long the cycles; an LRU would evict a long cycle's
    first blocks before the next cycle asks for them again. The two partial
    blocks (cycle tails) asked for last are kept too, so a fixed period, or
    periods that alternate, reuse their tails; any other block is computed
    each time it is asked for.
    """

    def __init__(self, step_sizes):
        self._compute = functools.partial(_read_only_alphas, step_sizes)
        self._partial = functools.lru_cache(maxsize=2)(self._compute)
        self._full = {}

    def alphas(self, count: int, start: int) -> np.ndarray:
        if count != _CHUNK:
            return self._partial(count, start)
        if start >= _CACHED_BLOCKS * _CHUNK:
            return self._compute(count, start)
        if start not in self._full:
            self._full[start] = self._compute(count, start)
        return self._full[start]


def _apply_cycle(values, cont, mdp, step_sizes, n_steps, rng):
    """Draw and apply one cycle of ``n_steps`` asynchronous updates to the
    per-pair ``values`` in place, one block of at most ``_CHUNK`` steps at a
    time.

    Because targets depend only on the frozen table, each coordinate's
    update sequence collapses to a weighted average of its own targets:
    q_end = (prod beta_i) q_start + sum_i alpha_i (prod_{j>i} beta_j) t_i
    with beta = 1 - alpha taken at that coordinate's hit steps. The same
    form maps the values at the start of any stretch of steps to the values
    at its end, so each block carries the per-pair values into the next.

    The samples are those of one whole-cycle draw: all pair ids, then all
    uniforms. The first block's pair ids are drawn directly. If more blocks
    follow, a replay generator takes a copy of the run's generator state,
    the run's generator skips past the remaining pair ids, and each later
    block takes its pair ids from the replay and its uniforms from the run's
    generator. So nothing period-sized is ever held: the temporaries are
    O(_CHUNK + n_pairs * max hits per block) whatever the period, at the
    price of drawing every later pair id twice. ``step_sizes`` is a
    ``_RunStepSizes``, so its blocks come checked.
    """
    n_pairs = mdp.num_active_pairs
    pairs = rng.integers(0, n_pairs, size=min(n_steps, _CHUNK))
    if n_steps > _CHUNK:
        # a fresh bit generator is cheaper to make than a deep copy
        replay = np.random.Generator(type(rng.bit_generator)(0))
        replay.bit_generator.state = rng.bit_generator.state
        for lo in range(_CHUNK, n_steps, _CHUNK):
            rng.integers(0, n_pairs, size=min(_CHUNK, n_steps - lo))
    for lo in range(0, n_steps, _CHUNK):
        count = min(_CHUNK, n_steps - lo)
        if lo:
            pairs = replay.integers(0, n_pairs, size=count)
        _apply_block(values, cont, mdp, pairs, rng.random(count), step_sizes.alphas(count, lo))


def _sorted_block(mdp, pairs, u, alphas, cont):
    """A block's steps sorted by pair, as both kernels take them: the stable
    order sorting the steps by pair id, the per-pair hit counts, ``rows`` =
    max count + 1 (the last row holds no hit), each sorted hit's flat index
    rank * n_pairs + pair in the kernels' hit-major matrix (its rank counts
    the pair's earlier hits), and the sorted steps' step sizes and targets
    (reward plus the pair's ``cont``); step i's reward still comes from its
    own uniform.

    Sorting the ids as the smallest unsigned type that holds them lets the
    stable sort use radix sort; the order equals that of the int64 sort.
    """
    n_pairs = mdp.num_active_pairs
    order = pairs.astype(np.min_scalar_type(n_pairs - 1)).argsort(kind="stable")
    counts = np.bincount(pairs, minlength=n_pairs)
    # sorted hit i of a pair whose hits start at sorted position s has rank i - s
    flat = np.arange(0, pairs.size * n_pairs, n_pairs)
    flat -= ((counts.cumsum() - counts) * n_pairs - np.arange(n_pairs)).repeat(counts)
    return (order, counts, int(np.maximum.reduce(counts)) + 1, flat, alphas[order],
            mdp.draw_sorted_targets(counts, u[order], cont))


def _apply_block(values, cont, mdp, pairs, u, alphas):
    """Closed-form update of the per-pair ``values`` over one block of steps.

    Pair p's (1 - alpha) factors fill column p of the hit-major matrix in
    step order (``_sorted_block``) and are padded with 1.0, so one cumprod
    up the columns gives every suffix product prod_{j>i} beta_j (the row
    below hit i) and the whole product (row 0).
    """
    n_pairs = values.size
    _, counts, rows, flat, als, targets = _sorted_block(mdp, pairs, u, alphas, cont)
    prods = np.empty((rows, n_pairs))
    prods.fill(1.0)
    prods.ravel()[flat] = 1.0 - als
    np.multiply.accumulate(prods[::-1], axis=0, out=prods[::-1])
    weighted = prods.ravel()[n_pairs:].take(flat)
    weighted *= als
    weighted *= targets
    values *= prods[0]
    values += np.bincount(np.arange(n_pairs).repeat(counts), weights=weighted, minlength=n_pairs)


def run_inner_loop(
    q_in: np.ndarray,
    n_steps: int,
    step_sizes,
    mdp: TabularMdp,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run ``n_steps`` of SGD against the target frozen at ``q_in``.

    The step-size index restarts at 0. Returns a new table; ``q_in`` is
    left untouched and keeps serving as the frozen target throughout.
    """
    n_steps = _as_int(n_steps, "n_steps")
    if n_steps < 1:
        raise DomainError("n_steps must be at least 1")
    q = np.array(q_in, dtype=float)
    values = _check_table(q, mdp)
    if not isinstance(step_sizes, _RunStepSizes):  # a cache for this cycle alone
        step_sizes = _RunStepSizes(step_sizes)
    _apply_cycle(values, _frozen_continuation(q_in, mdp), mdp, step_sizes, n_steps, rng)
    q.put(mdp.pair_flat, values)
    return q


# ---------------------------------------------------------------------------
# Outer loop


def limit_violations(sample_budget, eval_every, eval_horizon, n_cycles=None) -> list[str]:
    """Run limits shared by runs and configs; ``None`` means unset."""
    problems = []
    if sample_budget is not None and sample_budget < 1:
        problems.append("sample budget must be at least 1")
    if n_cycles is not None and n_cycles < 1:
        problems.append("cycle count must be at least 1")
    if eval_horizon is not None and eval_horizon < 0:
        problems.append("evaluation horizon must be nonnegative")
    if eval_every < 1:
        problems.append("evaluation cadence must be at least 1")
    return problems


def _run_cycles(q0, mdp, cycle, limit, sample_budget, *, oracle=None, eval_horizon=None,
                eval_every=1, record_gap=False, label="run", seed=None) -> RunTrace:
    """The outer loop: ``cycle(n, q) -> (q_new, planned, steps, stop_stat)``
    runs cycle n's inner loop against the frozen target ``q``; its result
    overwrites the target. Records the initial table at cost 0, then every
    cycle, until ``limit`` cycles ran or the cumulative cost reaches
    ``sample_budget``; the cycle that crosses the budget completes.

    Each record carries the sup distance to ``oracle`` if given, and every
    ``eval_every`` cycles the greedy score over ``eval_horizon`` steps from
    ``mdp.start_state`` if a horizon is given; ``record_gap`` adds the
    distance from the cycle's exact Bellman image, taken every cycle.

    Distances and scores are computed one stack at a time: each table to
    record is copied into a stack of max(1, ``_CHUNK`` // table size)
    tables, allocated once per run, and when the stack is full, and once
    when the run ends, one ``sup_distance`` call over the stack and one
    ``evaluate_greedy`` call over its due tables record them all. So the
    trace is complete when the run returns, and each record equals the one
    a per-cycle call would give. A non-finite table still fails the run
    with the same ``DomainError``, from the next cycle's check or, at the
    latest, from its stack's.
    """
    if limit is not None:
        limit = _as_int(limit, "cycle count")
    if eval_horizon is not None:
        eval_horizon = _as_int(eval_horizon, "evaluation horizon")
    eval_every = _as_int(eval_every, "evaluation cadence")
    problems = limit_violations(sample_budget, eval_every, eval_horizon)
    if limit is not None and limit < 0:
        problems.append("cycle count must be nonnegative")
    if problems:
        raise DomainError("; ".join(problems))
    if limit is None and sample_budget is None:
        raise DomainError("an unbounded run needs n_cycles or sample_budget")
    _check_table(q0, mdp)
    if oracle is not None:
        _check_table(oracle, mdp)
    q = np.array(q0, dtype=float)
    trace = RunTrace(label=label, seed=seed)
    stack = np.empty((max(1, _CHUNK // q.size), *q.shape))
    pending = []  # the record fields of the tables in the stack, but bias and score

    def record_stack():
        count = len(pending)
        tables = stack[:count]
        biases = sup_distance(tables, oracle, mdp).tolist() if oracle is not None else [None] * count
        scores = [None] * count
        due = slice(-pending[0]["cycle"] % eval_every, count, eval_every)
        if eval_horizon is not None and due.start < count:
            scores[due] = evaluate_greedy(tables[due], mdp, mdp.start_state, eval_horizon).tolist()
        trace.records.extend(CycleRecord(**fields, bias=bias, score=score)
                             for fields, bias, score in zip(pending, biases, scores))
        pending.clear()

    n = cost = steps = 0
    planned = gap = stat = None
    while True:
        stack[len(pending)] = q
        pending.append(dict(cycle=n, planned_period=planned, inner_steps=steps,
                            cumulative_cost=cost, bellman_gap=gap, stop_stat=stat))
        over_budget = sample_budget is not None and cost >= sample_budget
        if over_budget or (limit is not None and n >= limit):
            record_stack()
            return trace
        if len(pending) == len(stack):
            record_stack()
        image = exact_bellman_apply(q, mdp) if record_gap else None
        q_new, planned, steps, stat = cycle(n, q)
        gap = sup_distance(q_new, image, mdp) if record_gap else None
        q = q_new
        cost += steps
        n += 1


def run_periodic_q(
    q0: np.ndarray,
    schedule: TufSchedule,
    step_sizes,
    mdp: TabularMdp,
    rng: np.random.Generator,
    *,
    n_cycles: int | None = None,
    sample_budget: int | None = None,
    **options,
) -> RunTrace:
    """Q-learning with delayed target updates under a predetermined
    schedule (fixed, geometric or explicit periods). The target is frozen
    at each cycle start and overwritten by the final iterate at cycle end;
    step sizes restart every cycle.

    Stops after ``n_cycles`` cycles (or the schedule's own length) or once
    the cumulative sample cost reaches ``sample_budget``, whichever comes
    first; the cycle that crosses the budget completes. ``options`` set
    what each cycle records: ``oracle``, ``eval_horizon``, ``eval_every``,
    ``record_gap``, and the trace's ``label`` and ``seed``.
    """
    if isinstance(schedule, AccuracyTriggered):
        raise DomainError("adaptive schedules are run by run_accuracy_triggered_q")
    step_sizes = _RunStepSizes(step_sizes)

    def cycle(n, q):
        k = schedule.period(n)
        return run_inner_loop(q, k, step_sizes, mdp, rng), k, k, None

    limit = min((_as_int(c, "cycle count") for c in (n_cycles, schedule.n_cycles) if c is not None),
                default=None)
    return _run_cycles(q0, mdp, cycle, limit, sample_budget, **options)


def run_accuracy_triggered_q(
    q0: np.ndarray,
    k_min: int,
    k_max: int,
    step_sizes,
    mdp: TabularMdp,
    rng: np.random.Generator,
    *,
    accuracy: Callable[[int], float] | None = None,
    n_cycles: int | None = None,
    sample_budget: int | None = None,
    **options,
) -> RunTrace:
    """Q-learning with accuracy-triggered target updates.

    Each cycle starts fresh per-pair TD-error means and runs the inner loop
    until both at least ``k_min`` steps were taken and the stopping statistic
    (mean |mean TD error| over all pairs, unvisited pairs counting zero)
    falls to the cycle's threshold, or ``k_max`` steps are exhausted.
    Thresholds default to n^-2 for 1-based cycle index n. Limits and
    ``options`` as for ``run_periodic_q``.
    """
    adaptive = AccuracyTriggered(k_min, k_max, accuracy)
    step_sizes = _RunStepSizes(step_sizes)

    def cycle(n, q):
        eps_n = adaptive.threshold(n + 1)
        q_new = np.array(q, dtype=float)
        steps, stat = _adaptive_cycle(q_new, q, mdp, step_sizes, k_min, k_max, eps_n, rng)
        return q_new, None, steps, stat

    return _run_cycles(q0, mdp, cycle, n_cycles, sample_budget, **options)


def _adaptive_cycle(q, q_frozen, mdp, step_sizes, k_min, k_max, eps_n, rng):
    """Inner loop with per-step stopping checks under uniform exploration,
    evaluated one speculative chunk at a time; ``step_sizes`` is a
    ``_RunStepSizes``, so its blocks come checked.

    Each chunk of at most ``_CHUNK`` steps is drawn whole, as the stream
    contract says, and every step of it is evaluated as if the cycle ran
    on: each pair's hits fill one column of a hit-major matrix in step
    order, one row below their ``_sorted_block`` index (row 0 holds the start
    values), and a doubling scan composes their maps x -> (1 - alpha) x +
    alpha t, so row r holds the pair's value after its first r hits (no
    division by products, so alpha = 1 and underflow are safe). The TD
    errors follow from the values before the hits (their layout index), the
    running TD-error sums from a cumsum down the columns (sums and counts
    carry across chunks), and the stopping statistic after every step from
    a cumsum of its per-step changes in step order. The cycle stops at the
    first step at or past ``k_min`` whose statistic is at or below
    ``eps_n``: values, counts and sums roll back to that step and the
    chunk's later samples are discarded. The returned statistic is
    recomputed exactly from the sums.
    """
    n_pairs = mdp.num_active_pairs
    ids = np.arange(n_pairs)
    cont = _frozen_continuation(q_frozen, mdp)
    values = q.take(mdp.pair_flat)
    counts = np.zeros(n_pairs, dtype=np.int64)
    sums = np.zeros(n_pairs)
    stat = 0.0
    steps = 0
    while steps < k_max:
        block = min(_CHUNK, k_max - steps)
        pairs, u = _draw_block(mdp, block, rng)
        alphas = step_sizes.alphas(block, steps)
        order, _, rows, before, als, targets = _sorted_block(mdp, pairs, u, alphas, cont)
        # row 0 is the map x -> x + start value and padding rows are the
        # identity; after the scan, shift[r] is rows 0..r composed and
        # applied to 0: the value after r hits
        scale = np.ones(rows * n_pairs)
        shift = np.zeros(rows * n_pairs)
        shift[:n_pairs] = values
        scale[n_pairs:][before] = 1.0 - als
        shift[n_pairs:][before] = als * targets
        scale, shift = scale.reshape(rows, n_pairs), shift.reshape(rows, n_pairs)
        span = 1
        while span < rows:
            shift[span:] += scale[span:] * shift[:-span]
            scale[span:] *= scale[:-span]
            span *= 2
        deltas = targets - shift.ravel()[before]
        running = np.zeros((rows, n_pairs))
        running[0] = sums
        running.ravel()[n_pairs:][before] = deltas
        np.cumsum(running, axis=0, out=running)
        means = (running / np.maximum(counts + np.arange(rows)[:, None], 1)).ravel()
        change = np.empty(block)
        change[order] = (np.abs(means[n_pairs:][before]) - np.abs(means[before])) / n_pairs
        change[0] += stat
        stat_after = np.cumsum(change)
        first = max(k_min - steps - 1, 0)
        stops = np.flatnonzero(stat_after[first:] <= eps_n)
        used = first + int(stops[0]) + 1 if stops.size else block
        taken = np.bincount(pairs[:used], minlength=n_pairs)
        values = shift[taken, ids]
        sums = running[taken, ids]
        counts += taken
        stat = stat_after[used - 1]
        steps += used
        if stops.size:
            break
    q.put(mdp.pair_flat, values)
    return steps, float(np.sum(np.abs(sums / np.maximum(counts, 1)))) / n_pairs

