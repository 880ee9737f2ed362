"""Finite tabular MDPs: exact Bellman machinery, a value-iteration solver,
and the reward draw that generative sampling uses.

Conventions used throughout the package:

* A Q-table is a plain ``(num_states, num_actions)`` float ndarray.
* The "active" state-action pairs are all pairs whose state is non-terminal.
  Norms, sampling, and learning operate on active pairs only. A terminal
  state is absorbing at reward 0: terminal rows are zero in every table the
  library makes from scratch (fresh tables, exact images, the oracle) and
  ignored in every table it reads.
* Transitions are deterministic; all stochasticity lives in the rewards.
* Every reward draw takes exactly one uniform (``TabularMdp.draw_rewards``,
  or ``draw_sorted_targets`` for steps sorted by pair), also for
  deterministic rewards, so sample streams do not depend on which pair was
  drawn.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionError, DomainError, IterationLimitError


def _as_int(value, what):
    """``value`` as a Python int; a numpy integer passes, a float does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _as_real(value, what) -> float:
    """``value`` as a Python float; an integer or a numpy real passes, a
    string or any other non-number does not. An integer past the float
    range is an infinity."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_tuple(value, what) -> tuple:
    """``value``'s items as a tuple; a string or a non-iterable is refused
    whole."""
    if isinstance(value, (str, bytes)) or not np.iterable(value):
        raise DomainError(f"{what} must be a sequence, got {value!r}")
    return tuple(value)


def _in_range(value, what, lo, hi, ends="[]", *, integer=False):
    """The one range rule: ``value`` as an int (``_as_int``) if ``integer``,
    else as a float (``_as_real``), between ``lo`` and ``hi``, each end
    closed (``[``, ``]``) or open (``(``, ``)``) as ``ends`` writes it.
    Anything else is refused as ``{what} must lie in {interval}, got
    {value}``, such as ``period must lie in [1, inf), got 0``; a NaN fails
    every comparison, so it is refused too."""
    value = _as_int(value, what) if integer else _as_real(value, what)
    if ((lo < value) if ends[0] == "(" else (lo <= value)) and (
            (value < hi) if ends[1] == ")" else (value <= hi)):
        return value
    raise DomainError(f"{what} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {_shown(value)}")


def _shown(value):
    """``value`` as a refusal writes it: an int past the float range as a
    float would be written, since str() refuses an int of over 4300 digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        from decimal import Decimal
        return f"{Decimal(value):.16e}"
    return value


def _or_inf(compute):
    """``compute()``, or inf where it raises: a float ``**`` that overflows
    raises, and so does a division by a float that underflowed to 0."""
    try:
        return compute()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _index(value, size, what) -> int:
    """The one state and action index rule: an integer in [0, ``size``)."""
    return _in_range(value, what, 0, size, "[)", integer=True)


def _horizon(horizon) -> int:
    """The one evaluation-horizon rule: an integer from 0 up to the largest
    float, so that a score's lap count (``evaluate_greedy``) is a float."""
    return _in_range(horizon, "evaluation horizon", 0, sys.float_info.max, integer=True)


@dataclass(frozen=True)
class RewardDistribution:
    """Closed-form reward law for one state-action pair.

    kind is either ``"two-point"`` (two values, complementary probabilities)
    or ``"deterministic"`` (a single value). Values are finite real numbers
    and probabilities finite nonnegative ones, kept as floats; the mean and
    variance are computed once, here, and must be finite.
    """

    kind: str
    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("two-point", "deterministic"):
            raise DomainError(f"unknown reward kind {self.kind!r}")
        values = _as_tuple(self.values, "reward values")
        probs = _as_tuple(self.probabilities, "reward probabilities")
        n_expected = 2 if self.kind == "two-point" else 1
        if len(values) != n_expected or len(probs) != n_expected:
            raise DomainError(
                f"{self.kind} reward needs exactly {n_expected} value(s)"
            )
        values = tuple(_in_range(v, "reward value", -math.inf, math.inf, "()") for v in values)
        probs = tuple(_in_range(p, "reward probability", 0, math.inf, "[)") for p in probs)
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")
        mean = float(sum(p * v for p, v in zip(probs, values)))
        variance = _or_inf(lambda: float(sum(p * (v - mean) ** 2 for p, v in zip(probs, values))))
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise DomainError("reward mean and variance must be finite, got values "
                              + ", ".join(map(repr, values)))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "_moments", (mean, variance))

    @classmethod
    def two_point(cls, first: float, second: float, p_first: float = 0.5) -> "RewardDistribution":
        p_first = _as_real(p_first, "reward probability")
        return cls("two-point", (first, second), (p_first, 1.0 - p_first))

    @classmethod
    def deterministic(cls, value: float) -> "RewardDistribution":
        return cls("deterministic", (value,), (1.0,))

    def mean(self) -> float:
        return self._moments[0]

    def variance(self) -> float:
        return self._moments[1]


class TabularMdp:
    """Finite MDP with deterministic transitions and per-pair reward laws.

    Immutable after construction. Terminal states have no outgoing
    transitions and are absorbing at reward 0; learning and norms run over
    the active (non-terminal) state-action pairs only.
    """

    def __init__(
        self,
        num_states: int,
        num_actions: int,
        transitions: Mapping[tuple[int, int], int],
        rewards: Mapping[tuple[int, int], RewardDistribution],
        terminal: Iterable[int],
        gamma: float,
        start_state: int = 0,
    ):
        num_states = _in_range(num_states, "num_states", 1, math.inf, "[)", integer=True)
        num_actions = _in_range(num_actions, "num_actions", 1, math.inf, "[)", integer=True)
        self.num_states, self.num_actions = num_states, num_actions
        self.gamma = _check_discount(gamma)
        terminal = _as_tuple(terminal, "terminal states")
        self.terminal = frozenset(_index(s, num_states, "terminal state") for s in terminal)
        self.start_state = _index(start_state, num_states, "start state")

        # every action of every non-terminal state is an active pair
        pairs = [(s, a) for s in range(num_states) if s not in self.terminal
                 for a in range(num_actions)]
        next_states: list[int] = []
        for p in pairs:
            if p not in transitions:
                raise DomainError(f"missing transition for active pair {p}")
            if p not in rewards:
                raise DomainError(f"missing reward for active pair {p}")
            next_states.append(_index(transitions[p], num_states, f"transition target for {p}"))
            if not isinstance(rewards[p], RewardDistribution):
                raise DomainError(f"reward for {p} must be a RewardDistribution, "
                                  f"got {rewards[p]!r}")
        self._reward_laws = tuple(rewards[p] for p in pairs)

        n = len(pairs)
        # row-major flat index of each active pair: q.take / q.put on it do
        # the work of q[pair_state, pair_action] at a fraction of its cost
        self.pair_flat = np.array([s * num_actions + a for s, a in pairs], dtype=np.int64)
        self.pair_state, self.pair_action = np.divmod(self.pair_flat, num_actions)
        self.pair_next_state = np.array(next_states, dtype=np.int64)
        self.pair_p_first = np.array([d.probabilities[0] for d in self._reward_laws])
        self.pair_value_first = np.array([d.values[0] for d in self._reward_laws])
        self.pair_value_second = np.array([d.values[-1] for d in self._reward_laws])
        self.pair_reward_mean = np.array([d.mean() for d in self._reward_laws])
        self.pair_reward_var = np.array([d.variance() for d in self._reward_laws])

        self.terminal_mask = np.zeros(num_states, dtype=bool)
        self.terminal_mask[list(self.terminal)] = True
        # per-MDP constants the per-cycle and per-block code reads: the
        # terminal states in order, the pair ids in order, and the smallest
        # type that holds every pair id (unsigned when there are pairs)
        self.terminal_states = np.flatnonzero(self.terminal_mask)
        self.pair_range = np.arange(n)
        self.pair_id_dtype = np.min_scalar_type(n - 1)
        # tables by flat index s * num_actions + a: the pair id, -1 for a
        # terminal state's pairs, for pair_id's lookups; and the step, which
        # greedy rollouts and exact Bellman images read: the pair's reward
        # mean and next state, terminal states absorbing at reward 0
        self._pair_at = np.full(num_states * num_actions, -1)
        self._pair_at[self.pair_flat] = self.pair_range
        self._step_reward = np.zeros(num_states * num_actions)
        self._step_reward[self.pair_flat] = self.pair_reward_mean
        self._step_next = np.arange(num_states).repeat(num_actions)
        self._step_next[self.pair_flat] = self.pair_next_state
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def num_active_pairs(self) -> int:
        return len(self._reward_laws)

    def pair_id(self, s: int, a: int) -> int:
        """Index of (s, a) in the flat active-pair arrays; terminal or
        out-of-range pairs are a domain error."""
        s, a = _index(s, self.num_states, "state"), _index(a, self.num_actions, "action")
        p = int(self._pair_at[s * self.num_actions + a])
        if p < 0:
            raise DomainError(f"state {s} is terminal; pair ({s}, {a}) inactive")
        return p

    def transition(self, s: int, a: int) -> int:
        return int(self.pair_next_state[self.pair_id(s, a)])

    def reward(self, s: int, a: int) -> RewardDistribution:
        return self._reward_laws[self.pair_id(s, a)]

    def draw_rewards(self, pairs, u):
        """Rewards of the pair ids ``pairs`` (array or scalar) from one
        uniform each (see ``_reward_rule``)."""
        return _reward_rule(u, self.pair_p_first[pairs], self.pair_value_first[pairs],
                            self.pair_value_second[pairs])

    def draw_sorted_targets(self, counts, u, offset):
        """Reward plus per-pair ``offset`` for steps sorted by pair id, pair
        p taking ``counts[p]`` consecutive steps, from one uniform each.

        The per-pair data are expanded with ``repeat`` rather than gathered
        per step. Each element is the same single addition as in
        ``draw_rewards(ids, u) + offset[ids]`` for the sorted ids ``ids``,
        so the two agree bitwise.
        """
        return _reward_rule(u, self.pair_p_first.repeat(counts),
                            (self.pair_value_first + offset).repeat(counts),
                            (self.pair_value_second + offset).repeat(counts))


def _check_discount(gamma) -> float:
    """The one discount rule, for MDPs, grid specs and rate constants; returns
    the discount as a float."""
    return _in_range(gamma, "gamma", 0, 1, "[)")


def _reward_rule(u, p_first, first, second):
    """The reward draw from a uniform ``u``: the law's first value where
    ``u`` is below its probability, else its last (a deterministic law's
    only value, with probability 1)."""
    return np.where(u < p_first, first, second)


def new_q_table(mdp: TabularMdp) -> np.ndarray:
    """Fresh all-zero Q-table matching the MDP's shape."""
    return np.zeros((mdp.num_states, mdp.num_actions))


def _check_shape(q: np.ndarray, mdp: TabularMdp, stack: bool = False) -> None:
    """The one shape rule: ``q`` is one ``(num_states, num_actions)`` table,
    or, where ``stack`` is set, possibly a stack of them along a leading
    axis, and a numpy array either way."""
    if not isinstance(q, np.ndarray):
        raise DimensionError(f"a Q-table must be a numpy array, got {type(q).__name__}")
    shape = (mdp.num_states, mdp.num_actions)
    if q.shape != shape and not (stack and q.ndim == 3 and q.shape[1:] == shape):
        raise DimensionError(f"Q-table shape {q.shape} does not match {shape}")


def _check_table(q: np.ndarray, mdp: TabularMdp, stack: bool = False) -> np.ndarray:
    """Check a table's shape (``_check_shape``) and that its active entries
    are finite, and return a fresh float array of its active-pair values: a
    row for a table, one row per table for a stack."""
    _check_shape(q, mdp, stack)
    values = q.reshape(-1, mdp.num_states * mdp.num_actions).take(mdp.pair_flat, axis=1)
    values = values.astype(float, copy=False)
    # counting is exact, warns on nothing and, unlike a reduction, is cheap
    # on small tables
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise DomainError("Q-table has non-finite entries on active pairs")
    return values if q.ndim == 3 else values[0]


def greedy_state_values(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """V(s) = max_a Q(s, a) for non-terminal s, 0 for terminal s. Only the
    shape is checked: callers pass tables already checked."""
    _check_shape(q, mdp)
    v = np.maximum.reduce(q, axis=1)
    v[mdp.terminal_states] = 0.0
    return v


def exact_bellman_apply(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """One exact Bellman optimality update using reward means and the
    deterministic transitions: one pass over the step table the greedy
    rollout walks, so terminal rows come out zero (reward 0, and a terminal
    state's value is 0)."""
    _check_table(q, mdp)
    v = greedy_state_values(q, mdp)
    step = mdp._step_reward + mdp.gamma * v.take(mdp._step_next)
    return step.reshape(mdp.num_states, mdp.num_actions)


def sup_distance(q1: np.ndarray, q2: np.ndarray, mdp: TabularMdp):
    """Supremum distance over active state-action pairs.

    Either table may be a stack of tables along a leading axis, and two
    stacks must hold as many tables; the result is then an array with one
    distance per table, each equal to the distance of that table alone.
    """
    v1, v2 = _check_table(q1, mdp, stack=True), _check_table(q2, mdp, stack=True)
    if v1.ndim == v2.ndim == 2 and len(v1) != len(v2):
        raise DimensionError(f"stacks of {len(v1)} and {len(v2)} Q-tables do not match")
    d = v1 - v2
    # abs is never -0.0, so the initial 0.0 changes only an empty maximum
    dist = np.maximum.reduce(np.abs(d), axis=-1, initial=0.0)
    return float(dist) if dist.ndim == 0 else dist


def value_iteration_oracle(
    mdp: TabularMdp, tol: float = 1e-10, max_iter: int = 10**6
) -> np.ndarray:
    """Deterministic fixed-point solve of the Bellman optimality operator.

    Returns a table whose Bellman residual (sup over active pairs) is at
    most ``tol``.
    """
    tol = _in_range(tol, "tol", 0, math.inf, "(]")
    max_iter = _in_range(max_iter, "max_iter", 1, math.inf, "[)", integer=True)
    q = new_q_table(mdp)
    for _ in range(max_iter):
        nxt = exact_bellman_apply(q, mdp)
        if sup_distance(nxt, q, mdp) <= tol:
            return nxt
        q = nxt
    raise IterationLimitError(
        f"value iteration did not reach tol={tol} within {max_iter} sweeps"
    )


def evaluate_greedy(
    q: np.ndarray,
    mdp: TabularMdp,
    start: int,
    horizon: int,
):
    """Deterministic greedy rollout score.

    Follows argmax_a Q(s, a) (ties to the lowest action index) for at most
    ``horizon`` steps, stopping early in a terminal state. The score is the
    undiscounted sum of reward means along the path.

    ``q`` may be a stack of tables along a leading axis; the result is then
    an array with one score per table; a table is a stack of one. One
    ``argmax`` gives the flat index of every state's greedy pair in every
    table. Each path carries its state: a step adds the reward mean at that
    state's greedy pair and moves to the pair's next state. A terminal
    state is absorbing at reward 0.0, which leaves a sum started at 0.0
    unchanged, so each score equals that of the table alone, bit for bit.

    Transitions are deterministic: a path still running after num_states
    steps is on a cycle of at most num_states states and never ends, so one
    check there stops the walk once every path has ended. The walk adds
    every reward in path order up to 4 * num_states steps. Past them, one
    more walk of at most num_states steps gives each path's cycle length
    and the reward sums of one lap and of a partial lap (a terminal state
    is a lap of one step and reward 0); the score adds the number of whole
    laps, a Python int, times the lap sum, then the partial sum. So a call
    takes at most 5 * num_states steps at any horizon.
    """
    _check_table(q, mdp, stack=True)
    horizon = _horizon(horizon)
    start = _index(start, mdp.num_states, "start state")
    n_states, n_actions = mdp.num_states, mdp.num_actions
    # greedy[b, s]: flat index of state s's greedy pair in table b
    greedy = q.reshape(-1, n_states, n_actions).argmax(axis=-1)
    greedy += np.arange(0, n_states * n_actions, n_actions)
    rows = np.arange(0, greedy.size, n_states)  # where each table's row starts
    state = np.full(len(greedy), start)
    score = np.zeros(len(greedy))

    def step():
        """Move every path one step; return the rewards it collects."""
        nonlocal state
        at = greedy.take(rows + state)  # greedy[b, state[b]] for every table b
        state = mdp._step_next.take(at)
        return mdp._step_reward.take(at)

    for n in range(min(horizon, 4 * n_states)):
        if n == n_states and mdp.terminal_mask.take(state).all():
            break
        score += step()
    if horizon > 4 * n_states and not mdp.terminal_mask.take(state).all():
        origin, rest = state, horizon - 4 * n_states
        # sums[k]: each path's rewards over its first k steps from origin
        sums = np.zeros((n_states + 1, len(score)))
        lap = np.zeros(len(score), dtype=np.int64)  # each path's cycle length
        for k in range(1, n_states + 1):
            sums[k] = sums[k - 1] + step()
            lap[(lap == 0) & (state == origin)] = k
        paths = np.arange(len(score))
        laps = np.array([rest // k for k in lap.tolist()], dtype=float)
        part = np.array([rest % k for k in lap.tolist()], dtype=np.int64)
        score += laps * sums[lap, paths] + sums[part, paths]
    return float(score[0]) if q.ndim == 2 else score
