"""Grid benchmark environments.

A grid environment is a character layout, a discount and a reward table
keyed by cell role; ``_ROLE_KEYS`` maps each layout character to its role.
A rows x cols grid has ``rows * cols + 1`` states, the cells row-major and
an absorbing sink last, and 4 actions (up, down, left, right).

This module is only the environment; its text format, the grid spec, is
read and written by ``config.load_grid_spec`` and ``config.dump_grid_spec``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .mdp import RewardDistribution, TabularMdp, _check_discount

ACTION_NAMES = ("up", "down", "left", "right")
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))

# The cell roles: layout character -> reward-table key. ``S``, the one start
# cell, pays as ``.``; ``O`` is the high-variance cell. A bomb ``B`` is
# terminal, and a move into it pays the bomb law. Every move from a goal
# ``G`` pays the goal law and ends in the sink. Every other move, an
# off-grid one that keeps the agent in place included, pays the law of the
# cell it leaves, whatever the action.
_ROLE_KEYS = {"S": "default", ".": "default", "O": "stochastic", "B": "bomb", "G": "goal"}

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
        cells = "".join(self.layout)
        bad = set(cells) - set(_ROLE_KEYS)
        if bad:
            raise DomainError(f"unknown layout characters: {sorted(bad)}")
        if cells.count("S") != 1:
            raise DomainError("layout needs exactly one start cell 'S'")
        missing = set(_ROLE_KEYS.values()) - set(self.rewards)
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
    cells = "".join(spec.layout)  # cell (r, c) is cells[r * cols + c]
    keys = [_ROLE_KEYS[ch] for ch in cells]
    sink = len(cells)
    transitions: dict[tuple[int, int], int] = {}
    rewards: dict[tuple[int, int], RewardDistribution] = {}
    for s, key in enumerate(keys):
        if key == "bomb":
            continue
        r, c = divmod(s, cols)
        for a, (dr, dc) in enumerate(_MOVES):
            nr, nc = r + dr, c + dc
            ns = nr * cols + nc if 0 <= nr < rows and 0 <= nc < cols else s
            if key == "goal":
                transitions[s, a], rewards[s, a] = sink, spec.rewards["goal"]
            else:
                transitions[s, a] = ns
                rewards[s, a] = spec.rewards["bomb" if keys[ns] == "bomb" else key]

    return TabularMdp(
        num_states=sink + 1,
        num_actions=4,
        transitions=transitions,
        rewards=rewards,
        terminal={s for s, key in enumerate(keys) if key == "bomb"} | {sink},
        gamma=spec.gamma,
        start_state=cells.index("S"),
    )


def build_gridworld(gamma: float) -> TabularMdp:
    """The bundled benchmark: 4x4 grid, 52 active state-action pairs."""
    return build_grid_mdp(gridworld_spec(gamma))

