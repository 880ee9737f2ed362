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

import operator
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


@dataclass(frozen=True)
class RewardDistribution:
    """Closed-form reward law for one state-action pair.

    kind is either ``"two-point"`` (two values, complementary probabilities)
    or ``"deterministic"`` (a single value).
    """

    kind: str
    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("two-point", "deterministic"):
            raise DomainError(f"unknown reward kind {self.kind!r}")
        n_expected = 2 if self.kind == "two-point" else 1
        if len(self.values) != n_expected or len(self.probabilities) != n_expected:
            raise DomainError(
                f"{self.kind} reward needs exactly {n_expected} value(s)"
            )
        if not np.isfinite([*self.values, *self.probabilities]).all():
            raise DomainError("reward values and probabilities must be finite")
        if any(p < 0.0 for p in self.probabilities):
            raise DomainError("probabilities must be nonnegative")
        if abs(sum(self.probabilities) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def two_point(cls, first: float, second: float, p_first: float = 0.5) -> "RewardDistribution":
        return cls("two-point", (float(first), float(second)), (float(p_first), 1.0 - float(p_first)))

    @classmethod
    def deterministic(cls, value: float) -> "RewardDistribution":
        return cls("deterministic", (float(value),), (1.0,))

    def mean(self) -> float:
        return float(sum(p * v for p, v in zip(self.probabilities, self.values)))

    def variance(self) -> float:
        m = self.mean()
        return float(sum(p * (v - m) ** 2 for p, v in zip(self.probabilities, self.values)))


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
        num_states = _as_int(num_states, "num_states")
        num_actions = _as_int(num_actions, "num_actions")
        start_state = _as_int(start_state, "start state")
        if num_states < 1 or num_actions < 1:
            raise DomainError("num_states and num_actions must be positive")
        if not 0.0 <= gamma < 1.0:
            raise DomainError(f"gamma must lie in [0, 1), got {gamma}")
        self.num_states = num_states
        self.num_actions = num_actions
        self.gamma = float(gamma)
        self.terminal = frozenset(int(s) for s in terminal)
        for s in self.terminal:
            if not 0 <= s < num_states:
                raise DomainError(f"terminal state {s} out of range")
        if not 0 <= start_state < num_states:
            raise DomainError(f"start state {start_state} out of range")
        self.start_state = start_state

        pairs: list[tuple[int, int]] = []
        for s in range(num_states):
            if s in self.terminal:
                continue
            for a in range(num_actions):
                if (s, a) not in transitions:
                    raise DomainError(f"missing transition for active pair {(s, a)}")
                if (s, a) not in rewards:
                    raise DomainError(f"missing reward for active pair {(s, a)}")
                ns = int(transitions[(s, a)])
                if not 0 <= ns < num_states:
                    raise DomainError(f"transition target {ns} out of range for {(s, a)}")
                pairs.append((s, a))

        # pair id of each (s, a), -1 for a terminal state's pairs, for
        # pair_id's scalar lookups
        self._pair_table = [[-1] * num_actions for _ in range(num_states)]
        for i, (s, a) in enumerate(pairs):
            self._pair_table[s][a] = i
        self._reward_laws = [rewards[p] for p in pairs]

        n = len(pairs)
        self.pair_state = np.fromiter((s for s, _ in pairs), dtype=np.int64, count=n)
        self.pair_action = np.fromiter((a for _, a in pairs), dtype=np.int64, count=n)
        # row-major flat index of each active pair: q.take / q.put on it do
        # the work of q[pair_state, pair_action] at a fraction of its cost
        self.pair_flat = self.pair_state * self.num_actions + self.pair_action
        self.pair_next_state = np.fromiter(
            (int(transitions[p]) for p in pairs), dtype=np.int64, count=n
        )
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
        self.terminal_states = _read_only(np.flatnonzero(self.terminal_mask))
        self.pair_range = _read_only(np.arange(n))
        self.pair_id_dtype = np.min_scalar_type(n - 1)
        # the step from flat index s * num_actions + a, which greedy rollouts
        # and exact Bellman images read: the pair's reward mean and next
        # state, terminal states absorbing at reward 0
        self._step_reward = np.zeros(num_states * num_actions)
        self._step_reward[self.pair_flat] = self.pair_reward_mean
        self._step_next = np.arange(num_states).repeat(num_actions)
        self._step_next[self.pair_flat] = self.pair_next_state

    @property
    def num_active_pairs(self) -> int:
        return len(self._reward_laws)

    def pair_id(self, s: int, a: int) -> int:
        """Index of (s, a) in the flat active-pair arrays; terminal or
        out-of-range pairs are a domain error."""
        self._check_state(s)
        if not 0 <= a < self.num_actions:
            raise DomainError(f"action {a} out of range")
        p = self._pair_table[s][a]
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

    def _check_state(self, s: int) -> None:
        if not 0 <= s < self.num_states:
            raise DomainError(f"state {s} out of range")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _reward_rule(u, p_first, first, second):
    """The reward draw from a uniform ``u``: the law's first value where
    ``u`` is below its probability, else its last (a deterministic law's
    only value, with probability 1)."""
    return np.where(u < p_first, first, second)


def new_q_table(mdp: TabularMdp) -> np.ndarray:
    """Fresh all-zero Q-table matching the MDP's shape."""
    return np.zeros((mdp.num_states, mdp.num_actions))


def _check_table(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """Check a table, or a stack of tables along a leading axis, and return
    a fresh array of its active-pair values (one row per table; a table is
    a stack of one and gets its row)."""
    if q.ndim not in (2, 3) or q.shape[-2:] != (mdp.num_states, mdp.num_actions):
        raise DimensionError(
            f"Q-table shape {q.shape} does not match "
            f"({mdp.num_states}, {mdp.num_actions})"
        )
    values = q.reshape(-1, mdp.num_states * mdp.num_actions).take(mdp.pair_flat, axis=1)
    # counting is exact, warns on nothing and, unlike a reduction, is cheap
    # on small tables
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise DomainError("Q-table has non-finite entries on active pairs")
    return values if q.ndim == 3 else values[0]


def greedy_state_values(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """V(s) = max_a Q(s, a) for non-terminal s, 0 for terminal s."""
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

    Either table may be a stack of tables along a leading axis; the result
    is then an array with one distance per table, each equal to the
    distance of that table alone.
    """
    d = _check_table(q1, mdp) - _check_table(q2, mdp)
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
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    q = new_q_table(mdp)
    for _ in range(_as_int(max_iter, "max_iter")):
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
    undiscounted sum of reward means along the path, added in path order.

    ``q`` may be a stack of tables along a leading axis; the result is then
    an array with one score per table; a table is a stack of one. One
    ``argmax`` gives the flat index of every state's greedy pair in every
    table. Each path carries its state: a step adds the reward mean at that
    state's greedy pair and moves to the pair's next state. A terminal
    state is absorbing at reward 0.0, which leaves a sum started at 0.0
    unchanged, so each score equals that of the table alone, bit for bit.
    Transitions are deterministic: a path still running after
    num_states steps is on a cycle and never ends, so one check there
    stops the walk once every path has ended.
    """
    _check_table(q, mdp)
    if _as_int(horizon, "horizon") < 0:
        raise DomainError("horizon must be nonnegative")
    start = _as_int(start, "start state")
    mdp._check_state(start)
    n_states, n_actions = mdp.num_states, mdp.num_actions
    # greedy[b, s]: flat index of state s's greedy pair in table b
    greedy = q.reshape(-1, n_states, n_actions).argmax(axis=-1)
    greedy += np.arange(0, n_states * n_actions, n_actions)
    rows = np.arange(0, greedy.size, n_states)  # where each table's row starts
    state = np.full(len(greedy), start)
    score = np.zeros(len(greedy))
    for step in range(horizon):
        if step == n_states and mdp.terminal_mask.take(state).all():
            break
        at = greedy.take(rows + state)  # greedy[b, state[b]] for every table b
        score += mdp._step_reward.take(at)
        state = mdp._step_next.take(at)
    return float(score[0]) if q.ndim == 2 else score
