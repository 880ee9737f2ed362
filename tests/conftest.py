import numpy as np
import pytest

import targetq as tq


@pytest.fixture(scope="session")
def grid07():
    return tq.build_gridworld(0.7)


@pytest.fixture(scope="session")
def oracle07(grid07):
    return tq.value_iteration_oracle(grid07)


@pytest.fixture(scope="session")
def theory_steps():
    return tq.TheoryInverseStepSize.from_pair_count(52)


def start_value_closed_form(gamma):
    """Q*(start, down) = Q*(start, right) on the bundled grid, in closed form.

    The optimal path leaves six default cells (mean reward -0.015 each) and
    then exits the goal (mean 1.0): -0.015 (1 - g^6) / (1 - g) + g^6, which
    is 0.07353145, 0.46115715 and 0.6556194578 at g = 0.7, 0.9, 0.95.
    """
    return -0.015 * (1.0 - gamma**6) / (1.0 - gamma) + gamma**6


def inner_sgd_step(q, q_frozen, mdp, p, alpha, u):
    """Per-step reference for the vectorized kernels: one asynchronous SGD
    step on pair ``p``. Samples its Bellman target from the frozen table,
    with the reward drawn from the uniform ``u``, moves that single entry
    of ``q`` by alpha toward the target in place and returns the TD error.
    """
    r = float(mdp.draw_rewards(p, u))
    ns = int(mdp.pair_next_state[p])
    cont = 0.0 if mdp.terminal_mask[ns] else float(np.max(q_frozen[ns]))
    target = r + mdp.gamma * cont
    s, a = int(mdp.pair_state[p]), int(mdp.pair_action[p])
    delta = target - q[s, a]
    q[s, a] += alpha * delta
    return float(delta)


def make_selfloop_mdp(gamma=0.5, reward=0.0):
    """One non-terminal state whose actions all loop back to it."""
    dist = tq.RewardDistribution.deterministic(reward)
    return tq.TabularMdp(
        num_states=1,
        num_actions=2,
        transitions={(0, 0): 0, (0, 1): 0},
        rewards={(0, 0): dist, (0, 1): dist},
        terminal=(),
        gamma=gamma,
    )


def make_chain_mdp(gamma=0.5, rewards=(1.0, -0.5, 0.25)):
    """Three states in a line feeding a terminal sink; deterministic rewards."""
    n = len(rewards)
    transitions = {}
    dists = {}
    for s in range(n):
        for a in range(2):
            transitions[(s, a)] = s + 1 if a == 0 else s
            dists[(s, a)] = tq.RewardDistribution.deterministic(rewards[s])
    return tq.TabularMdp(
        num_states=n + 1,
        num_actions=2,
        transitions=transitions,
        rewards=dists,
        terminal=(n,),
        gamma=gamma,
    )


def random_q(mdp, rng, scale=5.0):
    q = tq.new_q_table(mdp)
    q[mdp.pair_state, mdp.pair_action] = rng.uniform(-scale, scale, mdp.num_active_pairs)
    return q
