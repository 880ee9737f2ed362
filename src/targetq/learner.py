"""Stochastic learning engines.

The inner loop runs asynchronous SGD on the squared Bellman error against a
target table frozen at cycle start; the outer loop overwrites the target at
the end of each cycle. There is one outer loop, ``_run_cycles``, and two
entry points that each hand it a cycle: ``run_periodic_q`` runs a
predetermined schedule (fixed, geometric or explicit periods) and
``run_accuracy_triggered_q`` stops each inner loop once the mean absolute
TD error over all pairs falls below the cycle's threshold. A periodic run
equals its explicit loop of ``run_inner_loop`` calls on one generator.

A periodic cycle is applied in closed form: with the target frozen, each
pair's value at the end of any stretch of steps is its value at the start
scaled by the product of its (1 - alpha) factors plus a weighted sum of its
own sampled targets. ``_apply_cycle`` draws and evaluates this one block of
``_CHUNK`` steps at a time and carries the per-pair values from block to
block, so a cycle of any period runs in O(``_CHUNK``) temporaries beside
the run's buffers (``_RunBuffers``).
``_adaptive_cycle`` works chunk by chunk too, speculatively: it
evaluates each chunk of steps whole, as if the cycle did not stop inside it,
computes the stopping statistic after every step, and rolls the values back
to the first step that meets the stopping rule.

Sample-stream contract (what makes traces reproducible): each run owns one
``numpy.random.Generator``, and every step draws its pair uniformly from
the active pairs and consumes exactly one pair index and one reward
uniform. A periodic cycle draws its steps one segment of at most
``_SEGMENT`` (2**20) steps at a time, and each segment draws all its pair
indices, then all its uniforms; so a cycle of at most 2**20 steps draws
all its pair indices, then all its uniforms. numpy gives the same values
drawn in pieces as in one call, so a segment draws its pair indices block
by block into the run's pair-id buffer before its first uniform. The
accuracy-triggered runner draws blocks of at most ``_CHUNK`` steps the
same way and discards any drawn but unused samples when a cycle stops
early, so speculation and roll-back draw exactly what a per-step loop over
the same blocks would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .mdp import (
    TabularMdp,
    _check_table,
    _horizon,
    _in_range,
    evaluate_greedy,
    greedy_state_values,
    sup_distance,
)
from .schedules import AccuracyTriggered, TufSchedule, _check_step_sizes, _period

_CHUNK = 8192
_SEGMENT = 2**20  # the steps of a periodic cycle that draw their pair ids together
_RUN_BUFFER_BYTES = 2**20  # the size of a run's step-size prefix (_RunBuffers)


# ---------------------------------------------------------------------------
# Run traces


class CycleRecord(NamedTuple):
    """What a run measured at one cycle boundary, an immutable named tuple.

    Record 0 describes the initial table (zero cost); record n >= 1 is
    taken right after cycle n overwrote the target, which ran
    ``inner_steps`` steps (a periodic cycle's period). ``stop_stat`` is the
    accuracy-triggered stopping statistic at cycle end.
    """

    cycle: int
    inner_steps: int
    cumulative_cost: int
    bias: float | None
    score: float | None
    stop_stat: float | None = None


@dataclass
class RunTrace:
    """A run's records; ``harness.run_one`` stamps its ``label`` and ``seed``."""
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


def _frozen_cycle(q_frozen, mdp, kernel, *args):
    """A cycle's one entry into its kernel: check the frozen table, run
    ``kernel(values, cont, mdp, *args)`` on its per-pair values in place
    against its frozen continuation, and return a float copy of the table
    holding the new values, with the kernel's result."""
    values = _check_table(q_frozen, mdp)
    result = kernel(values, _frozen_continuation(q_frozen, mdp), mdp, *args)
    q = np.array(q_frozen, dtype=float)
    q.put(mdp.pair_flat, values)
    return q, result


def _draw_block(mdp: TabularMdp, count: int, rng: np.random.Generator):
    """``count`` uniform pair indices, then their ``count`` reward uniforms;
    ``mdp.draw_rewards(pairs, u)`` turns the uniforms into rewards."""
    return rng.integers(0, mdp.num_active_pairs, size=count), rng.random(count)


class _RunBuffers:
    """One run's buffers: its checked, read-only step sizes and the pair ids
    of one segment of its current long cycle.

    Every cycle restarts at alpha(0), so a ``_RUN_BUFFER_BYTES`` (1 MiB)
    prefix holds alpha(0) .. alpha(131071), filled in place and checked
    (each in (0, 1]) only as far as cycles have reached: each of those step
    sizes is computed once per run, and a block inside the filled part is a
    read-only view. A block past the prefix is computed, checked and made
    read-only each time. Both copy what the step-size object returns.
    """

    def __init__(self, step_sizes):
        self._step_sizes = step_sizes
        self._prefix = np.empty(_RUN_BUFFER_BYTES // 8)
        self._filled = 0
        self._pair_ids = None

    def alphas(self, count: int, start: int) -> np.ndarray:
        end = start + count
        if end > self._prefix.size:
            block = np.array(self._step_sizes.alphas(count, start=start))
            _check_step_sizes(block)
        else:
            if end > self._filled:
                fresh = self._prefix[self._filled:end]
                fresh[:] = self._step_sizes.alphas(fresh.size, start=self._filled)
                _check_step_sizes(fresh)
                self._filled = end
            block = self._prefix[start:end]
        block.flags.writeable = False
        return block

    def pair_ids(self, dtype: np.dtype) -> np.ndarray:
        """The ``_SEGMENT`` pair ids of the run's MDP's ``pair_id_dtype``
        (1 MiB at up to 256 pairs), made on its first multi-block cycle."""
        if self._pair_ids is None:
            self._pair_ids = np.empty(_SEGMENT, dtype)
        return self._pair_ids


def _apply_cycle(values, cont, mdp, buffers, n_steps, rng):
    """Draw and apply one cycle of ``n_steps`` asynchronous updates to the
    per-pair ``values`` in place, one block of at most ``_CHUNK`` steps at a
    time.

    Because targets depend only on the frozen table, each coordinate's
    update sequence collapses to a weighted average of its own targets:
    q_end = (prod beta_i) q_start + sum_i alpha_i (prod_{j>i} beta_j) t_i
    with beta = 1 - alpha taken at that coordinate's hit steps. The same
    form maps the values at the start of any stretch of steps to the values
    at its end, so each block carries the per-pair values into the next.

    A one-block cycle draws its pair ids, then its uniforms, directly. A
    longer cycle draws each segment's pair ids block by block into the
    run's pair-id buffer (``buffers.pair_ids``), then takes each block's
    uniforms from the run's generator (the stream contract in the module
    docstring). ``buffers`` is a ``_RunBuffers``, so its step-size blocks
    come checked.
    """
    if n_steps <= _CHUNK:
        _apply_block(values, cont, mdp, *_draw_block(mdp, n_steps, rng), buffers.alphas(n_steps, 0))
        return
    ids = buffers.pair_ids(mdp.pair_id_dtype)
    for start in range(0, n_steps, _SEGMENT):
        size = min(_SEGMENT, n_steps - start)
        blocks = [(lo, min(_CHUNK, size - lo)) for lo in range(0, size, _CHUNK)]
        for lo, count in blocks:
            ids[lo:lo + count] = rng.integers(0, mdp.num_active_pairs, size=count)
        for lo, count in blocks:
            _apply_block(values, cont, mdp, ids[lo:lo + count], rng.random(count),
                         buffers.alphas(count, start + lo))


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
    A long cycle's buffered ids (``_RunBuffers.pair_ids``) come in that
    type already, so they are sorted without a copy.
    """
    n_pairs = mdp.num_active_pairs
    order = pairs.astype(mdp.pair_id_dtype, copy=False).argsort(kind="stable")
    counts = np.bincount(pairs, minlength=n_pairs)
    # sorted hit i of a pair whose hits start at sorted position s has rank i - s
    flat = np.arange(0, pairs.size * n_pairs, n_pairs)
    flat -= ((counts.cumsum() - counts) * n_pairs - mdp.pair_range).repeat(counts)
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
    values += np.bincount(mdp.pair_range.repeat(counts), weights=weighted, minlength=n_pairs)


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
    n_steps = _period(n_steps)
    # a run passes its own buffers; a lone cycle gets buffers of its own
    buffers = step_sizes if isinstance(step_sizes, _RunBuffers) else _RunBuffers(step_sizes)
    return _frozen_cycle(q_in, mdp, _apply_cycle, buffers, n_steps, rng)[0]


# ---------------------------------------------------------------------------
# Outer loop


def limit_violations(sample_budget, n_cycles, eval_horizon) -> list[str]:
    """Every run-limit rule, for the runners and ``ExperimentConfig`` alike.
    ``None`` leaves the budget, cycle count or horizon unset. A sample
    budget is only compared with a cost, so any real number that a cost can
    reach passes."""
    problems = []
    if sample_budget is not None:
        _noted(problems, _in_range, sample_budget, "sample budget", 1, math.inf, "[)")
    if n_cycles is not None:
        _noted(problems, _in_range, n_cycles, "cycle count", 0, math.inf, "[)", integer=True)
    if eval_horizon is not None:
        _noted(problems, _horizon, eval_horizon)
    if n_cycles is None and sample_budget is None:
        problems.append("an unbounded run needs n_cycles or sample_budget")
    return problems


def _noted(problems: list[str], rule, *args, **kwargs):
    """``rule(*args, **kwargs)``; or None, with the message of the
    ``DomainError`` the rule raises appended to ``problems``."""
    try:
        return rule(*args, **kwargs)
    except DomainError as exc:
        problems.append(str(exc))


def _run_cycles(q0, mdp, cycle, n_cycles, sample_budget, schedule_cycles=None, /, *,
                oracle=None, eval_horizon=None) -> RunTrace:
    """The outer loop: ``cycle(n, q) -> (q_new, steps, stop_stat)`` runs
    cycle n's inner loop against the frozen target ``q``; its result
    overwrites the target. Records the initial table at cost 0, then every
    cycle, until ``n_cycles`` cycles ran (at most ``schedule_cycles``, a
    schedule's own length) or the cumulative cost reaches ``sample_budget``;
    the cycle that crosses the budget completes. The limits are checked as
    given, before the schedule's length caps them.

    Each record carries the sup distance to ``oracle`` if given, and the
    greedy score over ``eval_horizon`` steps from ``mdp.start_state`` if a
    horizon is given.

    Distances and scores are computed one stack at a time: each table to
    record is copied into a stack of max(1, ``_CHUNK`` // table size)
    tables, allocated once per run; when it is full, and when the run ends,
    one ``sup_distance`` call and one ``evaluate_greedy`` call record the
    whole stack, each record equal to a per-table call's. A non-finite
    table fails the run with the table check's ``DomainError``: the initial
    table is checked before any cycle, each later one as the next cycle's
    frozen table, and the table the run ends on before it returns.
    """
    problems = limit_violations(sample_budget, schedule_cycles if n_cycles is None else n_cycles,
                                eval_horizon)
    if problems:
        raise DomainError("; ".join(problems))
    _check_table(q0, mdp)
    if oracle is not None:
        _check_table(oracle, mdp)
    q = np.array(q0, dtype=float)
    limit = min((c for c in (n_cycles, schedule_cycles) if c is not None), default=None)
    trace = RunTrace()
    stack = np.empty((max(1, _CHUNK // q.size), *q.shape))
    # (cycle, inner_steps, cumulative_cost, stop_stat) of each table in the stack
    pending = []

    def record_stack():
        tables = stack[:len(pending)]
        unset = [None] * len(pending)
        biases = sup_distance(tables, oracle, mdp).tolist() if oracle is not None else unset
        scores = (evaluate_greedy(tables, mdp, mdp.start_state, eval_horizon).tolist()
                  if eval_horizon is not None else unset)
        trace.records.extend(CycleRecord(n, steps, cost, bias, score, stat)
                             for (n, steps, cost, stat), bias, score in zip(pending, biases, scores))
        pending.clear()

    n, cost, steps, stat = 0, 0, 0, None
    while True:
        stack[len(pending)] = q
        pending.append((n, steps, cost, stat))
        over_budget = sample_budget is not None and cost >= sample_budget
        if over_budget or (limit is not None and n >= limit):
            _check_table(q, mdp)
            record_stack()
            return trace
        if len(pending) == len(stack):
            record_stack()
        q, steps, stat = cycle(n, q)
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
    what each record measures: ``oracle`` and ``eval_horizon``.
    Cycle n is ``q = run_inner_loop(q, schedule.period(n), step_sizes, mdp,
    rng)``; shared step-size buffers and stacked recording change no value.
    """
    if isinstance(schedule, AccuracyTriggered):
        raise DomainError("adaptive schedules are run by run_accuracy_triggered_q")
    buffers = _RunBuffers(step_sizes)

    def cycle(n, q):
        k = schedule.period(n)
        return run_inner_loop(q, k, buffers, mdp, rng), k, None

    return _run_cycles(q0, mdp, cycle, n_cycles, sample_budget, schedule.n_cycles, **options)


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
    buffers = _RunBuffers(step_sizes)

    def cycle(n, q):
        q_new, (steps, stat) = _frozen_cycle(q, mdp, _adaptive_cycle, buffers, k_min, k_max,
                                             adaptive.threshold(n + 1), rng)
        return q_new, steps, stat

    return _run_cycles(q0, mdp, cycle, n_cycles, sample_budget, **options)


def _adaptive_cycle(values, cont, mdp, buffers, k_min, k_max, eps_n, rng):
    """Inner loop with per-step stopping checks under uniform exploration,
    run on the per-pair ``values`` in place against the frozen per-pair
    continuation ``cont`` (as ``_apply_cycle``) and evaluated one
    speculative chunk at a time; ``buffers`` is a ``_RunBuffers``, so its
    step-size blocks come checked. Returns the steps taken and the
    stopping statistic.

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
    ids = mdp.pair_range
    counts = np.zeros(n_pairs, dtype=np.int64)
    sums = np.zeros(n_pairs)
    stat = 0.0
    steps = 0
    while steps < k_max:
        block = min(_CHUNK, k_max - steps)
        pairs, u = _draw_block(mdp, block, rng)
        alphas = buffers.alphas(block, steps)
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
        values[:] = shift[taken, ids]
        sums = running[taken, ids]
        counts += taken
        stat = stat_after[used - 1]
        steps += used
        if stops.size:
            break
    return steps, float(np.sum(np.abs(sums / np.maximum(counts, 1)))) / n_pairs

