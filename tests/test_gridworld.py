import hashlib
import re

import numpy as np
import pytest

import targetq as tq
from targetq.errors import DomainError
from targetq.config import dump_grid_spec, load_grid_spec
from targetq.gridworld import DEFAULT_LAYOUT, build_grid_mdp, gridworld_spec

# cell indices, row-major on the 4x4 layout
START, HAZ_TOP, HAZ_MID, HAZ_BOT, GOAL, SINK = 0, 2, 10, 14, 15, 16
HIGH_VAR = (8, 9, 12, 13)


def test_active_pair_count(grid07):
    assert grid07.num_active_pairs == 52
    assert grid07.num_states == 17
    assert grid07.num_actions == 4
    assert grid07.start_state == START


def test_terminal_structure(grid07):
    assert grid07.terminal == frozenset({HAZ_TOP, HAZ_MID, HAZ_BOT, SINK})


def test_goal_exits_end_episode(grid07):
    for a in range(4):
        assert grid07.transition(GOAL, a) == SINK
        d = grid07.reward(GOAL, a)
        assert d.values == (0.5, 1.5)


def test_hazard_entering_pairs(grid07):
    # every move into a hazard pays its deterministic reward
    entering = [(1, 3), (3, 2), (6, 1), (9, 3), (11, 2), (13, 3)]
    for s, a in entering:
        assert grid07.transition(s, a) in (HAZ_TOP, HAZ_MID, HAZ_BOT)
        assert grid07.reward(s, a).kind == "deterministic"
        assert grid07.reward(s, a).values == (-3.0,)
    n_hazard_pairs = sum(
        1
        for s, a in zip(grid07.pair_state.tolist(), grid07.pair_action.tolist())
        if grid07.reward(s, a).kind == "deterministic"
    )
    assert n_hazard_pairs == 7


def test_reward_keyed_to_exited_cell(grid07):
    # default cell: all non-hazard moves share the default law
    for a in (0, 1, 2):
        assert grid07.reward(1, a).values == (-0.08, 0.05)
    # high-variance cells
    for s in HIGH_VAR:
        kinds = {grid07.reward(s, a).values for a in range(4)} - {(-3.0,)}
        assert kinds == {(-2.1, 2.0)}


def test_reward_moments_per_cell_type(grid07):
    default = grid07.reward(0, 1)
    assert default.mean() == pytest.approx(-0.015, abs=1e-15)
    assert default.variance() == pytest.approx(0.004225, abs=1e-15)
    stochastic = grid07.reward(8, 0)
    assert stochastic.mean() == pytest.approx(-0.05, abs=1e-12)
    assert stochastic.variance() == pytest.approx(4.2025, abs=1e-12)


def test_hover_on_grid_edges(grid07):
    assert grid07.transition(0, 0) == 0  # up from the top row
    assert grid07.transition(0, 2) == 0  # left from the first column
    assert grid07.transition(3, 3) == 3  # right from the last column
    assert grid07.transition(12, 1) == 12  # down from the bottom row
    # hover still pays the exited cell's reward
    assert grid07.reward(0, 0).values == (-0.08, 0.05)


def test_spec_roundtrip():
    spec = gridworld_spec(0.9)
    text = dump_grid_spec(spec)
    back = load_grid_spec(text)
    assert back == spec
    a = tq.value_iteration_oracle(build_grid_mdp(spec))
    b = tq.value_iteration_oracle(build_grid_mdp(back))
    assert np.array_equal(a, b)


def test_spec_gamma_override():
    text = dump_grid_spec(gridworld_spec(0.7))
    spec = load_grid_spec(text, gamma=0.95)
    assert spec.gamma == 0.95
    assert spec.layout == DEFAULT_LAYOUT


def test_spec_stores_the_checked_discount():
    # GridSpec keeps the float its discount rule returns, so an int writes as one
    spec = gridworld_spec(0)
    assert type(spec.gamma) is float and "\ngamma = 0.0\n" in dump_grid_spec(spec)
    assert type(load_grid_spec(dump_grid_spec(spec), gamma=np.float32(0.5)).gamma) is float


def test_spec_validation_errors():
    with pytest.raises(DomainError):
        load_grid_spec("not a config at all [")
    with pytest.raises(DomainError):
        load_grid_spec("[grid]\nrows = 1\ncols = 2\ngamma = 0.5\nlayout = S.B.")
    good = dump_grid_spec(gridworld_spec(0.7))
    with pytest.raises(DomainError):
        load_grid_spec(good.replace("[reward goal]", "[reward gold]"))
    # NaN passes the sum-to-one test (abs(nan - 1) > 1e-12 is False)
    for old, new, message in (
            ("values = -0.08, 0.05", "values = nan, 0.05",
             "reward value must lie in (-inf, inf), got nan"),
            ("values = -0.08, 0.05", "values = -0.08, inf",
             "reward value must lie in (-inf, inf), got inf"),
            ("probabilities = 0.5, 0.5", "probabilities = nan, nan",
             "reward probability must lie in [0, inf), got nan"),
            ("probabilities = 1.0", "probabilities = inf",
             "reward probability must lie in [0, inf), got inf")):
        assert old in good
        with pytest.raises(DomainError, match=re.escape(message)):
            load_grid_spec(good.replace(old, new, 1))
    with pytest.raises(DomainError):
        tq.GridSpec(layout=("..", ".."), gamma=0.5, rewards=gridworld_spec(0.7).rewards)
    with pytest.raises(DomainError):
        tq.GridSpec(layout=("SX",), gamma=0.5, rewards=gridworld_spec(0.7).rewards)
    for gamma in (1.5, 1.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            gridworld_spec(gamma)


@pytest.mark.parametrize(
    "layout, drop, message",
    [((), None, "layout must have at least one row"),
     (("S.", "."), None, "layout rows must be non-empty and equal length"),
     (("",), None, "layout rows must be non-empty and equal length"),
     (("SG",), "goal", "reward table missing roles: ['goal']")],
    ids=["no-rows", "ragged", "empty-row", "missing-role"],
)
def test_malformed_grid_spec_is_refused(layout, drop, message):
    rewards = {key: dist for key, dist in gridworld_spec(0.7).rewards.items() if key != drop}
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        tq.GridSpec(layout=layout, gamma=0.5, rewards=rewards)


# no valid spec holds a '%': layouts, kinds and numbers all exclude it
PERCENT_EDITS = [
    ("values = -0.08, 0.05", "values = -0.08%, 0.05",
     "grid spec [reward default]: values must be a number, got '-0.08%'"),
    ("gamma = 0.7", "gamma = 0.7%", "grid spec [grid]: gamma must be a number, got '0.7%'"),
    ("kind = two-point", "kind = two-point%",
     "grid spec [reward default]: unknown reward kind 'two-point%'"),
]


@pytest.mark.parametrize("old, new, message", PERCENT_EDITS, ids=["value", "gamma", "kind"])
def test_spec_percent_sign_is_domain_error(old, new, message):
    good = dump_grid_spec(gridworld_spec(0.7))
    assert old in good
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        load_grid_spec(good.replace(old, new, 1))


def test_non_square_layout_pinned():
    # 2 x 5 with the start at cell 6: the row-major cell arithmetic where
    # rows != cols, and the start cell's index, pinned bit for bit
    spec = tq.GridSpec(layout=("O.B.G", ".S..O"), gamma=0.8, rewards=gridworld_spec(0.8).rewards)
    mdp = build_grid_mdp(spec)
    assert (mdp.num_states, mdp.num_active_pairs, mdp.start_state) == (11, 36, 6)
    assert list(mdp.terminal_states) == [2, 10]
    arrays = (mdp.pair_flat, mdp.pair_next_state, mdp.pair_p_first, mdp.pair_value_first,
              mdp.pair_value_second, mdp.terminal_states, np.array([mdp.start_state, mdp.num_states]))
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == "dcfd97ea8859bfda875a175f38dc5b9ff2412293d0d16f38406b369ea1226acb"


def test_custom_layout_builds():
    spec = tq.GridSpec(
        layout=("SG", ".B"),
        gamma=0.5,
        rewards=dict(gridworld_spec(0.5).rewards),
    )
    mdp = build_grid_mdp(spec)
    # 4 cells - 1 hazard = 3 non-terminal, plus sink terminal
    assert mdp.num_active_pairs == 12
    assert mdp.num_states == 5
    q = tq.value_iteration_oracle(mdp)
    # start right: enter the goal, then one goal exit
    assert q[0, 3] == pytest.approx(-0.015 + 0.5 * 1.0)
