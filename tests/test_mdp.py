import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import targetq as tq
from targetq.errors import DimensionError, DomainError, IterationLimitError

from conftest import (
    inner_sgd_step,
    make_chain_mdp,
    make_selfloop_mdp,
    random_q,
    start_value_closed_form,
)


# ---------------------------------------------------------------------------
# RewardDistribution


def test_two_point_moments_closed_form():
    d = tq.RewardDistribution.two_point(-0.08, 0.05)
    assert d.mean() == pytest.approx(-0.015, abs=1e-15)
    # independent closed form: p(1-p)(b-a)^2
    assert d.variance() == pytest.approx(0.25 * 0.13**2, abs=1e-15)

    d = tq.RewardDistribution.two_point(-2.1, 2.0)
    assert d.mean() == pytest.approx(-0.05, abs=1e-12)
    assert d.variance() == pytest.approx(4.2025, abs=1e-12)

    d = tq.RewardDistribution.two_point(0.5, 1.5)
    assert (d.mean(), d.variance()) == (pytest.approx(1.0), pytest.approx(0.25))

    d = tq.RewardDistribution.deterministic(-3.0)
    assert (d.mean(), d.variance()) == (-3.0, 0.0)


def test_reward_distribution_validation():
    with pytest.raises(DomainError):
        tq.RewardDistribution("two-point", (1.0,), (1.0,))
    with pytest.raises(DomainError):
        tq.RewardDistribution("deterministic", (1.0, 2.0), (0.5, 0.5))
    with pytest.raises(DomainError):
        tq.RewardDistribution.two_point(0.0, 1.0, p_first=1.5)
    with pytest.raises(DomainError):
        tq.RewardDistribution("two-point", (0.0, 1.0), (0.6, 0.6))
    with pytest.raises(DomainError):
        tq.RewardDistribution("uniform", (0.0,), (1.0,))


def test_reward_sampling_consumes_one_uniform():
    # a deterministic reward still takes its uniform: one sampled step
    # advances the generator exactly as one pair id and one uniform
    mdp = make_selfloop_mdp(gamma=0.5, reward=2.5)
    q = tq.new_q_table(mdp)
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    q = tq.run_inner_loop(q, 1, tq.ConstantStepSize(1.0), mdp, rng_a)
    assert sorted(q[mdp.pair_state, mdp.pair_action]) == [0.0, 2.5]
    rng_b.integers(mdp.num_active_pairs)
    rng_b.random()
    # both generators advanced identically
    assert rng_a.random() == rng_b.random()


# ---------------------------------------------------------------------------
# Bellman operator


def test_bellman_zero_fixed_point():
    mdp = make_selfloop_mdp(gamma=0.7, reward=0.0)
    q = tq.new_q_table(mdp)
    out = tq.exact_bellman_apply(q, mdp)
    assert np.all(out == 0.0)


def test_bellman_fixed_point_residual(grid07, oracle07):
    img = tq.exact_bellman_apply(oracle07, grid07)
    assert tq.sup_distance(img, oracle07, grid07) <= 1e-9


def test_bellman_contraction_random_pairs(grid07):
    rng = np.random.default_rng(11)
    for _ in range(100):
        q1 = random_q(grid07, rng)
        q2 = random_q(grid07, rng)
        lhs = tq.sup_distance(
            tq.exact_bellman_apply(q1, grid07), tq.exact_bellman_apply(q2, grid07), grid07
        )
        assert lhs <= grid07.gamma * tq.sup_distance(q1, q2, grid07) + 1e-12


def test_bellman_monotone(grid07):
    rng = np.random.default_rng(12)
    for _ in range(20):
        q1 = random_q(grid07, rng)
        q2 = q1.copy()
        q2[grid07.pair_state, grid07.pair_action] += rng.uniform(
            0, 1, grid07.num_active_pairs
        )
        t1 = tq.exact_bellman_apply(q1, grid07)
        t2 = tq.exact_bellman_apply(q2, grid07)
        active = (grid07.pair_state, grid07.pair_action)
        assert np.all(t1[active] <= t2[active] + 1e-12)


def test_bellman_shape_and_finite_errors(grid07):
    with pytest.raises(DimensionError):
        tq.exact_bellman_apply(np.zeros((3, 3)), grid07)
    bad = tq.new_q_table(grid07)
    bad[grid07.pair_state[0], grid07.pair_action[0]] = np.nan
    with pytest.raises(DomainError):
        tq.exact_bellman_apply(bad, grid07)


def test_bellman_terminal_rows_pinned(grid07, oracle07):
    # a terminal state is absorbing at reward 0: hazard and sink rows are zero
    img = tq.exact_bellman_apply(tq.new_q_table(grid07), grid07)
    for s in sorted(grid07.terminal):
        assert np.all(img[s] == 0.0)
        assert np.all(oracle07[s] == 0.0)


@pytest.mark.parametrize("make", [lambda: tq.build_gridworld(0.7), make_chain_mdp, make_selfloop_mdp],
                         ids=["grid", "chain", "selfloop"])
def test_tables_the_library_makes_have_zero_terminal_rows(make):
    # the terminal rows a table holds on input reach no entry of its image
    mdp = make()
    rng = np.random.default_rng(21)
    q = rng.uniform(-5.0, 5.0, (mdp.num_states, mdp.num_actions))
    zeroed = q.copy()
    zeroed[mdp.terminal_states] = 0.0
    img = tq.exact_bellman_apply(q, mdp)
    assert np.array_equal(img, tq.exact_bellman_apply(zeroed, mdp))
    for table in (img, tq.new_q_table(mdp), tq.value_iteration_oracle(mdp)):
        assert table.shape == (mdp.num_states, mdp.num_actions)
        assert np.all(table[mdp.terminal_states] == 0.0)


# ---------------------------------------------------------------------------
# Value iteration


@pytest.mark.parametrize("gamma", [0.7, 0.9, 0.95])
def test_value_iteration_matches_path_sum_oracle(gamma):
    mdp = tq.build_gridworld(gamma)
    q = tq.value_iteration_oracle(mdp)
    s = mdp.start_state
    assert q[s, 1] == pytest.approx(start_value_closed_form(gamma), abs=1e-9)
    assert q[s, 3] == pytest.approx(q[s, 1], abs=1e-12)


def _gauss_seidel(mdp, tol, max_sweeps=10**6):
    # independently coded in-place sweep (updates visible within the sweep)
    q = tq.new_q_table(mdp)
    for _ in range(max_sweeps):
        delta = 0.0
        for s in range(mdp.num_states):
            if s in mdp.terminal:
                continue
            for a in range(mdp.num_actions):
                ns = mdp.transition(s, a)
                cont = 0.0 if ns in mdp.terminal else max(q[ns])
                new = mdp.reward(s, a).mean() + mdp.gamma * cont
                delta = max(delta, abs(new - q[s, a]))
                q[s, a] = new
        if delta <= tol:
            return q
    raise AssertionError("gauss-seidel did not converge")


def _greedy_policy_solve(mdp, q):
    # independent oracle: evaluate the policy greedy in q exactly by solving
    # (I - gamma P) x = r over the active pairs, where P moves pair (s, a) to
    # the greedy pair of its next state (a zero row when that is terminal)
    n = mdp.num_active_pairs
    p_matrix = np.zeros((n, n))
    for i in range(n):
        ns = int(mdp.pair_next_state[i])
        if not mdp.terminal_mask[ns]:
            p_matrix[i, mdp.pair_id(ns, int(np.argmax(q[ns])))] = 1.0
    return np.linalg.solve(np.eye(n) - mdp.gamma * p_matrix, mdp.pair_reward_mean)


@pytest.mark.parametrize("gamma", [0.7, 0.9, 0.95])
def test_value_iteration_agrees_with_gauss_seidel(gamma):
    mdp = tq.build_gridworld(gamma)
    tol = 1e-10
    a = tq.value_iteration_oracle(mdp, tol=tol)
    b = _gauss_seidel(mdp, tol)
    assert tq.sup_distance(a, b, mdp) <= 10 * tol
    # second reference: the greedy policy's linear system, solved exactly
    x = _greedy_policy_solve(mdp, a)
    assert np.max(np.abs(x - a[mdp.pair_state, mdp.pair_action])) <= 1e-9
    # x satisfies the optimality equation itself, so the greedy policy is
    # optimal and x is Q*, not just one policy's value
    v = np.full(mdp.num_states, -np.inf)
    np.maximum.at(v, mdp.pair_state, x)
    backup = mdp.pair_reward_mean + mdp.gamma * np.where(
        mdp.terminal_mask[mdp.pair_next_state], 0.0, v[mdp.pair_next_state]
    )
    assert np.max(np.abs(backup - x)) <= 1e-12


# SHA-256 of the oracle's active entries, oracle.take(mdp.pair_flat), derived
# at commit 03fe7c4, where the hazard rows still held the hazard's reward:
# zeroing every terminal row moved no active entry by a bit
_ORACLE_ACTIVE_SHA256 = {
    0.7: "218a05ef9521e379ea690ac97885387ebd9ec90c97358b093c20bd11b2b80a87",
    0.9: "4c25f4fd9a97ac488e5faf39ca0d608579c2c76cb980ed00908f99a0c918bddc",
    0.95: "7d9854c759b39563f8bb074b3c5045fc016384e1f932967f052a3339d46c6d41",
}


@pytest.mark.parametrize("gamma", sorted(_ORACLE_ACTIVE_SHA256))
def test_oracle_active_entries_pinned(gamma):
    mdp = tq.build_gridworld(gamma)
    oracle = tq.value_iteration_oracle(mdp)
    digest = hashlib.sha256(oracle.take(mdp.pair_flat).tobytes()).hexdigest()
    assert digest == _ORACLE_ACTIVE_SHA256[gamma]


def test_value_iteration_iteration_limit(grid07):
    with pytest.raises(IterationLimitError):
        tq.value_iteration_oracle(grid07, tol=1e-10, max_iter=2)
    with pytest.raises(DomainError):
        tq.value_iteration_oracle(grid07, tol=0.0)
    with pytest.raises(DomainError):
        tq.value_iteration_oracle(grid07, tol=float("nan"))


def _two_state_mdp(num_states=2, num_actions=1, start_state=0):
    # state 0 steps into the terminal state 1
    dist = tq.RewardDistribution.deterministic(1.0)
    return tq.TabularMdp(num_states, num_actions, {(0, a): 1 for a in range(int(num_actions))},
                         {(0, a): dist for a in range(int(num_actions))}, terminal=(1,),
                         gamma=0.5, start_state=start_state)


_INTEGER_ARGS = {
    # int() would truncate 0.5 to state 0; range() would fail on 2.5 with a TypeError
    "num_states": (lambda mdp, q, v: _two_state_mdp(num_states=v), 2.5, np.int64(2)),
    "num_actions": (lambda mdp, q, v: _two_state_mdp(num_actions=v), 2.5, np.uint8(2)),
    "start_state": (lambda mdp, q, v: _two_state_mdp(start_state=v), 0.5, np.int64(1)),
    "start": (lambda mdp, q, v: tq.evaluate_greedy(q, mdp, v, 7), 0.5, np.int64(0)),
    "horizon": (lambda mdp, q, v: tq.evaluate_greedy(q, mdp, 0, v), 2.5, np.int32(7)),
    "max_iter": (lambda mdp, q, v: tq.value_iteration_oracle(mdp, max_iter=v), 2.5,
                 np.int64(10**6)),
    "n_pairs": (lambda mdp, q, v: tq.RateConstants(xi=0.5, sigma_sq=1.0, q_star_sup=1.0,
                                                   gamma=0.9, n_pairs=v), 2.5, np.uint8(4)),
}


@pytest.mark.parametrize("arg", list(_INTEGER_ARGS))
def test_integer_arguments_refuse_non_integers(grid07, oracle07, arg):
    call, bad, good = _INTEGER_ARGS[arg]
    with pytest.raises(DomainError, match=f"must be an integer, got {bad}"):
        call(grid07, oracle07, bad)
    call(grid07, oracle07, good)  # a numpy integer passes


_DET = tq.RewardDistribution.deterministic(1.0)


@pytest.mark.parametrize(
    "changes, message",
    [(dict(num_states=0), "num_states and num_actions must be positive"),
     (dict(num_actions=0), "num_states and num_actions must be positive"),
     (dict(gamma=1.0), "gamma must lie in [0, 1), got 1.0"),
     (dict(terminal=(2,)), "terminal state 2 out of range"),
     (dict(start_state=2), "start state 2 out of range"),
     (dict(transitions={}), "missing transition for active pair (0, 0)"),
     (dict(rewards={}), "missing reward for active pair (0, 0)"),
     (dict(transitions={(0, 0): 5}), "transition target 5 out of range for (0, 0)")],
    ids=["no-states", "no-actions", "gamma-1", "terminal", "start", "transition", "reward",
         "target"],
)
def test_malformed_mdp_is_refused(changes, message):
    # state 0 steps into the terminal state 1
    good = dict(num_states=2, num_actions=1, transitions={(0, 0): 1}, rewards={(0, 0): _DET},
                terminal=(1,), gamma=0.5, start_state=0)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        tq.TabularMdp(**{**good, **changes})
    tq.TabularMdp(**good)


# ---------------------------------------------------------------------------
# sup_distance


def test_sup_distance_basics(grid07):
    rng = np.random.default_rng(4)
    q = random_q(grid07, rng)
    assert tq.sup_distance(q, q, grid07) == 0.0
    shifted = q.copy()
    shifted[grid07.pair_state, grid07.pair_action] += -1.25
    assert tq.sup_distance(q, shifted, grid07) == pytest.approx(1.25)


def test_sup_distance_matches_scan(grid07):
    rng = np.random.default_rng(5)
    for _ in range(10):
        q1, q2 = random_q(grid07, rng), random_q(grid07, rng)
        scan = max(
            abs(q1[s, a] - q2[s, a])
            for s in range(grid07.num_states)
            if s not in grid07.terminal
            for a in range(grid07.num_actions)
        )
        assert tq.sup_distance(q1, q2, grid07) == scan
        assert tq.sup_distance(q2, q1, grid07) == scan


def test_sup_distance_triangle(grid07):
    rng = np.random.default_rng(6)
    q1, q2, q3 = (random_q(grid07, rng) for _ in range(3))
    d = tq.sup_distance
    assert d(q1, q3, grid07) <= d(q1, q2, grid07) + d(q2, q3, grid07) + 1e-12


def test_sup_distance_shape_mismatch(grid07):
    with pytest.raises(DimensionError):
        tq.sup_distance(np.zeros((2, 2)), tq.new_q_table(grid07), grid07)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_transition_hazard_entering_always_minus_three(grid07):
    # cell 1 moving right enters the hazard at cell 2
    p = grid07.pair_id(1, 3)
    assert np.all(grid07.draw_rewards(p, np.random.default_rng(7).random(100)) == -3.0)
    assert grid07.pair_next_state[p] == 2


def test_sample_transition_default_frequencies(grid07):
    draws = grid07.draw_rewards(grid07.pair_id(0, 1), np.random.default_rng(8).random(10_000))
    freq_low = np.mean(draws == -0.08)
    assert abs(freq_low - 0.5) <= 0.01
    assert set(draws.tolist()) == {-0.08, 0.05}


def test_sample_transition_goal_leaving_mean(grid07):
    p = grid07.pair_id(15, 0)
    n = 100_000
    assert abs(grid07.draw_rewards(p, np.random.default_rng(9).random(n)).mean() - 1.0) <= 0.01
    assert grid07.pair_next_state[p] == 16


def test_sample_transition_domain_errors(grid07):
    with pytest.raises(DomainError):
        grid07.pair_id(2, 0)  # terminal hazard
    with pytest.raises(DomainError):
        grid07.pair_id(99, 0)
    with pytest.raises(DomainError):
        grid07.pair_id(0, 7)


def test_sample_bellman_target_deterministic_no_bootstrap(grid07):
    # hazard entry: reward -3 and no bootstrap from the terminal next state,
    # whatever the frozen table holds there
    rng = np.random.default_rng(10)
    q_frozen = random_q(grid07, rng, scale=2.0)
    q_frozen[2] = 5.0
    p = grid07.pair_id(1, 3)
    for u in rng.random(50):
        q = tq.new_q_table(grid07)
        delta = inner_sgd_step(q, q_frozen, grid07, p, 1.0, u)
        assert delta == -3.0 and q[1, 3] == -3.0


def test_sample_bellman_target_unbiased_every_pair(grid07):
    rng = np.random.default_rng(12)
    q_frozen = random_q(grid07, rng, scale=2.0)
    exact = tq.exact_bellman_apply(q_frozen, grid07)
    n = 100_000
    for p in range(grid07.num_active_pairs):
        r = grid07.draw_rewards(p, rng.random(n))
        ns = grid07.pair_next_state[p]
        cont = 0.0 if grid07.terminal_mask[ns] else np.max(q_frozen[ns])
        targets = r + grid07.gamma * cont
        dev = abs(targets.mean() - exact[grid07.pair_state[p], grid07.pair_action[p]])
        assert dev <= 4 * targets.std() / np.sqrt(n) + 1e-12


def test_sampled_target_recomputable(grid07, oracle07):
    # with alpha = 1 the entry becomes the sampled target: one of the pair's
    # two rewards plus gamma times the frozen table's next-state maximum
    rng = np.random.default_rng(13)
    q = tq.new_q_table(grid07)
    p = grid07.pair_id(0, 1)
    delta = inner_sgd_step(q, oracle07, grid07, p, 1.0, rng.random())
    cont = np.max(oracle07[grid07.pair_next_state[p]])
    assert q[0, 1] == delta
    assert delta in (-0.08 + grid07.gamma * cont, 0.05 + grid07.gamma * cont)


# ---------------------------------------------------------------------------
# Greedy evaluation


def test_evaluate_greedy_zero_horizon(grid07, oracle07):
    assert tq.evaluate_greedy(oracle07, grid07, grid07.start_state, 0) == 0.0


def test_evaluate_greedy_optimal_path_score(grid07, oracle07):
    # six default-cell exits at mean -0.015 each, then one goal exit at mean 1.0
    expected = 6 * -0.015 + 1.0
    score = tq.evaluate_greedy(oracle07, grid07, grid07.start_state, 7)
    assert score == pytest.approx(expected, abs=1e-12)
    # tie at the start resolves to the lowest action index (down)
    assert np.argmax(oracle07[grid07.start_state]) == 1


def test_evaluate_greedy_into_hazard(grid07):
    # bias the table so the greedy path is right, right: start -> 1 -> hazard
    q = tq.new_q_table(grid07)
    q[0, 3] = 1.0
    q[1, 3] = 1.0
    score = tq.evaluate_greedy(q, grid07, 0, 7)
    assert score == pytest.approx(-0.015 + -3.0, abs=1e-12)


def test_evaluate_greedy_horizon_error(grid07, oracle07):
    with pytest.raises(DomainError):
        tq.evaluate_greedy(oracle07, grid07, 0, -1)


def _greedy_rollout_reference(q, mdp, start, horizon):
    # per-step reference: one argmax per visited state, reward means added
    # in path order
    score = 0.0
    s = int(start)
    for _ in range(horizon):
        if mdp.terminal_mask[s]:
            break
        a = int(np.argmax(q[s]))
        p = mdp.pair_id(s, a)
        score += float(mdp.pair_reward_mean[p])
        s = int(mdp.pair_next_state[p])
    return score


_GREEDY_MDPS = (tq.build_gridworld(0.7), make_chain_mdp(0.5), make_selfloop_mdp(0.5, 1.0))


@settings(max_examples=60, deadline=None, database=None)
@given(
    which=st.integers(0, len(_GREEDY_MDPS) - 1),
    ties=st.booleans(),
    horizon=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_greedy_matches_per_step_reference(which, ties, horizon, seed):
    mdp = _GREEDY_MDPS[which]
    rng = np.random.default_rng(seed)
    # integer tables in {-1, 0, 1} make most rows tie; terminal rows stay
    # random too, since they are never acted on
    q = (rng.integers(-1, 2, size=(mdp.num_states, mdp.num_actions)).astype(float) if ties
         else rng.normal(size=(mdp.num_states, mdp.num_actions)))
    for start in range(mdp.num_states):  # terminal starts included
        assert (tq.evaluate_greedy(q, mdp, start, horizon)
                == _greedy_rollout_reference(q, mdp, start, horizon))


# ---------------------------------------------------------------------------
# Stacks of tables


_STACK_MDPS = (tq.build_gridworld(0.7), make_chain_mdp(0.5), make_selfloop_mdp(0.5, 1.0))


def _random_tables(mdp, rng, ties, count):
    shape = (count, mdp.num_states, mdp.num_actions)
    return rng.integers(-1, 2, size=shape).astype(float) if ties else rng.normal(size=shape)


@settings(max_examples=40, deadline=None, database=None)
@given(
    which=st.integers(0, len(_STACK_MDPS) - 1),
    ties=st.booleans(),
    count=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_calls_equal_per_table_calls(which, ties, count, seed):
    # bit for bit, on random and tie-heavy tables (terminal rows random
    # too), from every start with horizons 0-9 and one past the walk's
    # check at num_states steps
    mdp = _STACK_MDPS[which]
    rng = np.random.default_rng(seed)
    stack = _random_tables(mdp, rng, ties, count)
    other = _random_tables(mdp, rng, ties, 1)[0]
    per_table = [tq.sup_distance(q, other, mdp) for q in stack]
    assert tq.sup_distance(stack, other, mdp).tolist() == per_table
    assert tq.sup_distance(other, stack, mdp).tolist() == per_table
    assert (tq.sup_distance(stack, stack[::-1], mdp).tolist()
            == [tq.sup_distance(a, b, mdp) for a, b in zip(stack, stack[::-1])])
    for start in range(mdp.num_states):  # terminal starts included
        for horizon in [*range(10), 2 * mdp.num_states + 3]:
            scores = tq.evaluate_greedy(stack, mdp, start, horizon)
            assert scores.shape == (count,)
            assert scores.tolist() == [_greedy_rollout_reference(q, mdp, start, horizon)
                                       for q in stack]
            assert scores.tolist() == [tq.evaluate_greedy(q, mdp, start, horizon)
                                       for q in stack]


def test_stacked_calls_of_empty_stacks_and_wrong_ranks(grid07, oracle07):
    empty = np.zeros((0, grid07.num_states, grid07.num_actions))
    assert tq.sup_distance(empty, oracle07, grid07).shape == (0,)
    # the second horizon runs the walk's terminal check on no paths
    for horizon in (7, 2 * grid07.num_states + 3):
        assert tq.evaluate_greedy(empty, grid07, grid07.start_state, horizon).shape == (0,)
    for table in (np.zeros((1, 2, grid07.num_states, grid07.num_actions)), np.float64(0.0)):
        with pytest.raises(DimensionError):
            tq.sup_distance(table, oracle07, grid07)
        with pytest.raises(DimensionError):
            tq.evaluate_greedy(table, grid07, grid07.start_state, 7)


# ---------------------------------------------------------------------------
# Table checks at every entry point


_STEPS = tq.TheoryInverseStepSize(xi=1.0 / 52.0)


def _stacked(q, position):
    # q as table ``position`` of a stack of three; the others are zeros
    return np.stack([q if i == position else np.zeros_like(q) for i in range(3)])


# every public entry point that takes a Q-table, called as (q, mdp, oracle)
_TABLE_ENTRY_POINTS = {
    "sup_distance first": lambda q, mdp, oracle: tq.sup_distance(q, oracle, mdp),
    "sup_distance second": lambda q, mdp, oracle: tq.sup_distance(oracle, q, mdp),
    "evaluate_greedy": lambda q, mdp, oracle: tq.evaluate_greedy(q, mdp, mdp.start_state, 7),
    "sup_distance stack first": lambda q, mdp, oracle: tq.sup_distance(_stacked(q, 0), oracle, mdp),
    "sup_distance stack second": lambda q, mdp, oracle: tq.sup_distance(
        oracle, _stacked(q, 2), mdp),
    "evaluate_greedy stack": lambda q, mdp, oracle: tq.evaluate_greedy(
        _stacked(q, 1), mdp, mdp.start_state, 7),
    "exact_bellman_apply": lambda q, mdp, oracle: tq.exact_bellman_apply(q, mdp),
    "run_inner_loop": lambda q, mdp, oracle: tq.run_inner_loop(
        q, 10, _STEPS, mdp, np.random.default_rng(0)),
    "run_periodic_q": lambda q, mdp, oracle: tq.run_periodic_q(
        q, tq.FixedPeriod(10), _STEPS, mdp, np.random.default_rng(0),
        n_cycles=1),
    "compute_constants": lambda q, mdp, oracle: tq.compute_constants(mdp, 1.0 / 52.0, q),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", _TABLE_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_entry_points_reject_non_finite_active_entries(grid07, oracle07, entry, bad):
    # on every active pair, and without a RuntimeWarning on the way
    for p in range(grid07.num_active_pairs):
        q = oracle07.copy()
        q[grid07.pair_state[p], grid07.pair_action[p]] = bad
        with pytest.raises(DomainError, match="non-finite"):
            _TABLE_ENTRY_POINTS[entry](q, grid07, oracle07)


@pytest.mark.parametrize("entry", _TABLE_ENTRY_POINTS)
def test_entry_points_reject_wrong_shape(grid07, oracle07, entry):
    for shape in ((grid07.num_states, grid07.num_actions + 1), (grid07.num_actions, grid07.num_states),
                  (grid07.num_states * grid07.num_actions,)):
        with pytest.raises(DimensionError):
            _TABLE_ENTRY_POINTS[entry](np.zeros(shape), grid07, oracle07)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", _TABLE_ENTRY_POINTS)
def test_entry_points_accept_non_finite_terminal_rows(grid07, oracle07, entry):
    # only active pairs are checked; terminal rows are inert
    q = oracle07.copy()
    q[sorted(grid07.terminal)] = np.nan
    _TABLE_ENTRY_POINTS[entry](q, grid07, oracle07)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(set(_TABLE_ENTRY_POINTS) - {"compute_constants"}))
def test_entry_points_accept_huge_finite_entries(grid07, oracle07, entry):
    # the finite test is exact: 1e308 is finite, whatever a sum of such
    # entries would do (compute_constants is left out: its c2 grows with
    # sup|Q*|^2, which overflows here, so it refuses such a table with a
    # DomainError; see test_rate_constants_validation)
    q = np.full((grid07.num_states, grid07.num_actions), 1e308)
    q[sorted(grid07.terminal)] = np.inf
    _TABLE_ENTRY_POINTS[entry](q, grid07, oracle07)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("terminal_value", [np.inf, -np.inf, np.nan, 1e308, -0.0])
@pytest.mark.parametrize("which", ["grid", "selfloop"])
def test_greedy_state_values_equal_masked_maximum(grid07, which, terminal_value):
    # greedy_state_values zeroes terminal states through their index; it must
    # equal the masked maximum bit for bit, whatever the terminal rows hold
    # (the self-loop MDP has no terminal state)
    mdp = grid07 if which == "grid" else make_selfloop_mdp()
    q = random_q(mdp, np.random.default_rng(5))
    q[mdp.terminal_mask] = terminal_value
    want = np.where(mdp.terminal_mask, 0.0, q.max(axis=1))
    got = tq.greedy_state_values(q, mdp)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not mdp.terminal_states.flags.writeable and not mdp.pair_range.flags.writeable


def test_chain_mdp_smoke():
    mdp = make_chain_mdp(gamma=0.5)
    q = tq.value_iteration_oracle(mdp)
    # state 2: best is to advance (0.25), staying pays 0.25 + 0.5 V(2)
    assert q[2, 0] == pytest.approx(0.25)
    assert q[1, 0] == pytest.approx(-0.5 + 0.5 * 0.5)
