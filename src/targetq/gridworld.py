"""Grid benchmark environments.

A grid environment is described by a character layout plus a reward law per
cell role:

* ``S`` start cell (shares the default reward law)
* ``.`` default cell
* ``O`` high-variance cell
* ``B`` hazard cell: terminal; a move INTO it yields the hazard's own
  reward and ends the episode
* ``G`` goal cell: non-terminal; every action from it collects the goal's
  reward and ends the episode (transition to an absorbing sink state)

All other moves pay the reward law of the cell being left, identically for
every action, including off-grid moves which keep the agent in place
("hovering"). The sink is an extra terminal state appended after the grid
cells, so a rows x cols grid has ``rows * cols + 1`` states and 4 actions
(up, down, left, right).

This module is only the environment; its text format, the grid spec, is
read and written by ``config.load_grid_spec`` and ``config.dump_grid_spec``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .mdp import RewardDistribution, TabularMdp, _check_discount

ACTION_NAMES = ("up", "down", "left", "right")
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))

ROLE_START = "S"
ROLE_DEFAULT = "."
ROLE_STOCHASTIC = "O"
ROLE_BOMB = "B"
ROLE_GOAL = "G"
_ROLES = (ROLE_START, ROLE_DEFAULT, ROLE_STOCHASTIC, ROLE_BOMB, ROLE_GOAL)

# Reward-table keys, mapped from layout characters.
_ROLE_KEYS = {
    ROLE_START: "default",
    ROLE_DEFAULT: "default",
    ROLE_STOCHASTIC: "stochastic",
    ROLE_BOMB: "bomb",
    ROLE_GOAL: "goal",
}

DEFAULT_LAYOUT = ("S.B.", "....", "OOB.", "OOBG")

DEFAULT_REWARDS = {
    "default": RewardDistribution.two_point(-0.08, 0.05),
    "stochastic": RewardDistribution.two_point(-2.1, 2.0),
    "goal": RewardDistribution.two_point(0.5, 1.5),
    "bomb": RewardDistribution.deterministic(-3.0),
}


@dataclass(frozen=True)
class GridSpec:
    """Declarative grid environment: layout rows, discount, reward table."""

    layout: tuple[str, ...]
    gamma: float
    rewards: dict[str, RewardDistribution]

    def __post_init__(self):
        _check_discount(self.gamma)
        if not self.layout:
            raise DomainError("layout must have at least one row")
        cols = len(self.layout[0])
        if cols == 0 or any(len(row) != cols for row in self.layout):
            raise DomainError("layout rows must be non-empty and equal length")
        bad = {c for row in self.layout for c in row} - set(_ROLES)
        if bad:
            raise DomainError(f"unknown layout characters: {sorted(bad)}")
        if sum(row.count(ROLE_START) for row in self.layout) != 1:
            raise DomainError("layout needs exactly one start cell 'S'")
        missing = {key for key in _ROLE_KEYS.values()} - set(self.rewards)
        if missing:
            raise DomainError(f"reward table missing roles: {sorted(missing)}")

    @property
    def rows(self) -> int:
        return len(self.layout)

    @property
    def cols(self) -> int:
        return len(self.layout[0])


def gridworld_spec(gamma: float) -> GridSpec:
    """The bundled 4x4 stochastic grid benchmark at the given discount."""
    return GridSpec(layout=DEFAULT_LAYOUT, gamma=float(gamma), rewards=dict(DEFAULT_REWARDS))


def build_grid_mdp(spec: GridSpec) -> TabularMdp:
    """Compile a GridSpec into a TabularMdp (grid cells row-major, sink last)."""
    rows, cols = spec.rows, spec.cols
    sink = rows * cols

    def cell(r: int, c: int) -> int:
        return r * cols + c

    role = {cell(r, c): spec.layout[r][c] for r in range(rows) for c in range(cols)}
    start = next(s for s, ch in role.items() if ch == ROLE_START)
    bombs = {s for s, ch in role.items() if ch == ROLE_BOMB}

    transitions: dict[tuple[int, int], int] = {}
    rewards: dict[tuple[int, int], RewardDistribution] = {}
    for s, ch in role.items():
        if ch == ROLE_BOMB:
            continue
        r, c = divmod(s, cols)
        for a, (dr, dc) in enumerate(_MOVES):
            if ch == ROLE_GOAL:
                transitions[(s, a)] = sink
                rewards[(s, a)] = spec.rewards["goal"]
                continue
            nr, nc = r + dr, c + dc
            ns = cell(nr, nc) if 0 <= nr < rows and 0 <= nc < cols else s
            transitions[(s, a)] = ns
            if ns in bombs:
                rewards[(s, a)] = spec.rewards["bomb"]
            else:
                rewards[(s, a)] = spec.rewards[_ROLE_KEYS[ch]]

    return TabularMdp(
        num_states=sink + 1,
        num_actions=4,
        transitions=transitions,
        rewards=rewards,
        terminal=bombs | {sink},
        gamma=spec.gamma,
        start_state=start,
    )


def build_gridworld(gamma: float) -> TabularMdp:
    """The bundled benchmark: 4x4 grid, 52 active state-action pairs."""
    return build_grid_mdp(gridworld_spec(gamma))

