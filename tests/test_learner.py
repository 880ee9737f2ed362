import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import targetq as tq
from targetq.errors import DomainError
from targetq.learner import (
    _CHUNK,
    _RUN_BUFFER_BYTES,
    _RunBuffers,
    _adaptive_cycle,
    _apply_block,
    _run_cycles,
    _draw_block,
    _frozen_continuation,
    _sorted_block,
)

from conftest import inner_sgd_step, make_chain_mdp, make_selfloop_mdp, random_q


def _sequential_replay(q_in, mdp, pairs, u, alphas):
    # step-by-step reference for the same sample blocks
    q = np.array(q_in, dtype=float)
    for p, ui, alpha in zip(pairs.tolist(), u.tolist(), alphas.tolist()):
        inner_sgd_step(q, q_in, mdp, p, alpha, ui)
    return q


def _adaptive_replay(q_in, mdp, step_sizes, k_min, k_max, eps_n, rng):
    # per-step reference for one accuracy-triggered cycle: the kernel's
    # chunked draws replayed one inner_sgd_step at a time, with the stopping
    # statistic recomputed exactly after every step; returns the final
    # per-pair values and the statistic after each step
    n_pairs = mdp.num_active_pairs
    q = np.array(q_in, dtype=float)
    counts = np.zeros(n_pairs)
    sums = np.zeros(n_pairs)
    stats = []
    while len(stats) < k_max:
        block = min(_CHUNK, k_max - len(stats))
        pairs, u = _draw_block(mdp, block, rng)
        alphas = step_sizes.alphas(block, start=len(stats))
        for p, ui, alpha in zip(pairs.tolist(), u.tolist(), alphas.tolist()):
            delta = inner_sgd_step(q, q_in, mdp, p, alpha, ui)
            counts[p] += 1
            sums[p] += delta
            stats.append(float(np.sum(np.abs(sums / np.maximum(counts, 1)))) / n_pairs)
            if len(stats) >= k_min and stats[-1] <= eps_n:
                return q.take(mdp.pair_flat), stats
    return q.take(mdp.pair_flat), stats


def _check_adaptive_against_replay(q_in, mdp, step_sizes, k_min, k_max, eps_n, seed):
    # Runs one cycle of the kernel and of the replay from the same seed and
    # returns the kernel's (steps, stop_stat), or None without running the
    # kernel when a step that decides the stop (k_min onwards) has a
    # statistic within 1e-9 (relative) of the threshold. The kernel sums
    # the statistic's per-step changes in another order, so a statistic
    # within rounding (about 1e-16) of the threshold may fall on the other
    # side of it: that is the kernel's stated trace change, not a defect.
    values, stats = _adaptive_replay(q_in, mdp, step_sizes, k_min, k_max, eps_n,
                                     np.random.default_rng(seed))
    if np.any(np.abs(np.array(stats[k_min - 1:]) - eps_n) <= 1e-9 * abs(eps_n)):
        return None
    q = np.array(q_in, dtype=float)
    steps, stat = _adaptive_cycle(q, q_in, mdp, _RunBuffers(step_sizes), k_min, k_max, eps_n,
                                  np.random.default_rng(seed))
    assert steps == len(stats)
    np.testing.assert_allclose(q[mdp.pair_state, mdp.pair_action], values, rtol=0, atol=1e-12)
    assert stat == pytest.approx(stats[-1], rel=0, abs=1e-12)
    return steps, stat


# ---------------------------------------------------------------------------
# Single step: conftest's inner_sgd_step, the per-step reference


def test_inner_step_full_replacement():
    mdp = make_selfloop_mdp(gamma=0.5, reward=4.0)
    q = tq.new_q_table(mdp)
    frozen = tq.new_q_table(mdp)
    delta = inner_sgd_step(q, frozen, mdp, 1, alpha=1.0, u=0.5)
    assert q[mdp.pair_state[1], mdp.pair_action[1]] == 4.0  # target = 4 + 0.5 * 0
    assert delta == 4.0


def test_inner_step_convex_combination():
    mdp = make_selfloop_mdp(gamma=0.5, reward=4.0)
    q = tq.new_q_table(mdp, fill=2.0)
    frozen = tq.new_q_table(mdp)  # continuation 0, so target = 4
    inner_sgd_step(q, frozen, mdp, 0, alpha=0.5, u=0.5)
    assert q[mdp.pair_state[0], mdp.pair_action[0]] == 3.0


def test_inner_step_touches_one_entry(grid07):
    rng = np.random.default_rng(1)
    q = random_q(grid07, rng)
    frozen = q.copy()
    before = q.copy()
    p = int(rng.integers(grid07.num_active_pairs))
    inner_sgd_step(q, frozen, grid07, p, alpha=0.3, u=rng.random())
    changed = np.argwhere(q != before)
    assert changed.shape == (1, 2)
    assert tuple(changed[0]) == (grid07.pair_state[p], grid07.pair_action[p])


def test_inner_step_alpha_domain(grid07):
    # the reference has no domain check; a one-step run is where alpha is refused
    q = tq.new_q_table(grid07)
    for alpha in (0.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            tq.run_inner_loop(q, 1, tq.CustomStepSize(lambda k: alpha), grid07,
                              np.random.default_rng(0))
    assert np.array_equal(q, tq.new_q_table(grid07))


# ---------------------------------------------------------------------------
# Inner loop


def test_inner_loop_single_step_sets_sampled_target(grid07, theory_steps):
    q_in = tq.new_q_table(grid07)
    q = tq.run_inner_loop(q_in, 1, theory_steps, grid07, np.random.default_rng(2))
    # alpha(0) = 1: exactly one entry holds one sampled target
    diff = np.argwhere(q != q_in)
    assert diff.shape == (1, 2)
    assert np.all(q_in == 0.0)


def test_inner_loop_matches_sequential_replay(grid07, theory_steps):
    rng = np.random.default_rng(3)
    q_in = random_q(grid07, rng)
    for k in (1, 7, 300, 5000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        fast = tq.run_inner_loop(q_in, k, theory_steps, grid07, np.random.default_rng(42))
        pairs, u = _draw_block(grid07, k, np.random.default_rng(42))
        slow = _sequential_replay(q_in, grid07, pairs, u, theory_steps.alphas(k))
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


# 200 non-terminal states with two actions: 400 pairs, past the 8-bit sort key
_CHAIN_400 = make_chain_mdp(gamma=0.9, rewards=tuple(np.linspace(-1.0, 1.0, 200)))
_STEP = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True))


@settings(max_examples=40, deadline=None, database=None)
@given(
    use_chain=st.booleans(),
    k=st.integers(1, 3 * _CHUNK),
    steps=st.one_of(
        st.lists(_STEP, min_size=1, max_size=64),  # cycled through the steps
        _STEP.map(lambda a: [a]),  # constant
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_inner_loop_matches_sequential_replay_property(use_chain, k, steps, seed):
    mdp = _CHAIN_400 if use_chain else tq.build_gridworld(0.7)
    step_sizes = tq.CustomStepSize(lambda i: steps[i % len(steps)])
    q_in = random_q(mdp, np.random.default_rng(seed))
    fast = tq.run_inner_loop(q_in, k, step_sizes, mdp, np.random.default_rng(seed))
    pairs, u = _draw_block(mdp, k, np.random.default_rng(seed))
    slow = _sequential_replay(q_in, mdp, pairs, u, step_sizes.alphas(k))
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


# The periodic kernel draws a cycle per block yet keeps the stream of one
# whole-cycle draw. That rests on numpy giving the same values in pieces as
# in one call; a numpy that breaks it fails here.
@pytest.mark.parametrize("n", [52, 400, 100_000])
def test_chunked_draws_equal_one_shot_draws(n):
    size = 2 * _CHUNK + 3
    whole = np.random.default_rng(n)
    ints, floats = whole.integers(0, n, size=size), whole.random(size)
    for block in (_CHUNK, _CHUNK - 1, 1):
        rng = np.random.default_rng(n)
        pieces = [rng.integers(0, n, size=min(block, size - lo)) for lo in range(0, size, block)]
        assert np.array_equal(np.concatenate(pieces), ints)
        pieces = [rng.random(min(block, size - lo)) for lo in range(0, size, block)]
        assert np.array_equal(np.concatenate(pieces), floats)
        assert rng.bit_generator.state == whole.bit_generator.state


# A run keeps 1 MiB of a long cycle's pair ids, in the smallest unsigned type
# that holds them: 2**20 on the grid's 52 pairs, 2**19 on _CHAIN_400's 400.
# Blocks past those caps replay their pair ids from a copy of the generator.
_GRID_CAP, _CHAIN_CAP = _RUN_BUFFER_BYTES, _RUN_BUFFER_BYTES // 2
_CAP_EDGES = [cap + d for cap in (_CHAIN_CAP, _GRID_CAP) for d in (0, 1, _CHUNK + 5)]


def test_pair_id_buffer_holds_one_mib(theory_steps):
    buffers = _RunBuffers(theory_steps)
    ids = buffers.pair_ids(52)
    assert buffers.pair_ids(52) is ids  # one buffer per run
    wide = _RunBuffers(theory_steps).pair_ids(400)
    assert (ids.dtype, ids.size, wide.dtype, wide.size) == (np.uint8, _GRID_CAP, np.uint16, _CHAIN_CAP)
    assert ids.nbytes == wide.nbytes == 2**20 and _CHAIN_CAP % _CHUNK == 0


@pytest.mark.parametrize("k", [1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, *_CAP_EDGES])
def test_inner_loop_consumes_one_whole_cycle_draw(theory_steps, k):
    for mdp in (tq.build_gridworld(0.7), _CHAIN_400):
        rng = np.random.default_rng(12)
        tq.run_inner_loop(tq.new_q_table(mdp), k, theory_steps, mdp, rng)
        reference = np.random.default_rng(12)
        _draw_block(mdp, k, reference)
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("use_chain", [False, True], ids=["grid", "chain-400"])
@pytest.mark.parametrize("past_cap", [-_CHUNK - 3, 0, 1, _CHUNK + 5])
def test_inner_loop_equals_blocks_of_one_whole_cycle_draw(use_chain, past_cap):
    # kept and replayed pair ids give bitwise the table of applying one
    # whole-cycle draw block by block
    mdp = _CHAIN_400 if use_chain else tq.build_gridworld(0.7)
    k = (_CHAIN_CAP if use_chain else _GRID_CAP) + past_cap
    steps = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    q_in = random_q(mdp, np.random.default_rng(5))
    fast = tq.run_inner_loop(q_in, k, steps, mdp, np.random.default_rng(9))
    pairs, u = _draw_block(mdp, k, np.random.default_rng(9))
    alphas, cont = steps.alphas(k), _frozen_continuation(q_in, mdp)
    values = q_in.take(mdp.pair_flat)
    for lo in range(0, k, _CHUNK):
        block = slice(lo, lo + _CHUNK)
        _apply_block(values, cont, mdp, pairs[block], u[block], alphas[block])
    slow = q_in.copy()
    slow.put(mdp.pair_flat, values)
    assert np.array_equal(fast, slow)


def test_inner_loop_memory_independent_of_period(grid07, theory_steps):
    # a whole-cycle draw of 2M steps would hold about 46 MiB of pair ids,
    # uniforms and step sizes
    q_in = tq.new_q_table(grid07)
    tracemalloc.start()
    try:
        tq.run_inner_loop(q_in, 2_000_000, theory_steps, grid07, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=60, deadline=None, database=None)
@given(
    mdp_index=st.integers(0, 2),
    k=st.integers(1, _CHUNK),
    at_threshold=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sorted_targets_equal_gathered_draw(mdp_index, k, at_threshold, seed):
    # the block front end expands per-pair reward data by repeat over sorted
    # steps; its targets and step sizes must be bitwise the per-step gathers
    mdp = (tq.build_gridworld(0.7), _CHAIN_400, make_selfloop_mdp(0.9, 1.5))[mdp_index]
    rng = np.random.default_rng(seed)
    pairs, u = _draw_block(mdp, k, rng)
    # some uniforms sit exactly on their pair's threshold
    on = rng.random(k) < at_threshold
    u[on] = mdp.pair_p_first[pairs[on]]
    cont = _frozen_continuation(random_q(mdp, rng), mdp)
    steps = tq.TheoryInverseStepSize(rng.uniform(0.01, 1.0))
    alphas = steps.alphas(k, start=int(rng.integers(0, k)))
    order, _, _, _, als, targets = _sorted_block(mdp, pairs, u, alphas, cont)
    assert np.array_equal(targets, (mdp.draw_rewards(pairs, u) + cont[pairs])[order])
    assert np.array_equal(als, alphas[order])


@settings(max_examples=60, deadline=None, database=None)
@given(use_chain=st.booleans(), k=st.integers(1, _CHUNK), seed=st.integers(0, 2**32 - 1))
def test_hit_layout_places_hits_in_step_order(use_chain, k, seed):
    # the grid's 52 pairs and _CHAIN_400's 400 sort on uint8 and uint16 keys
    mdp = _CHAIN_400 if use_chain else tq.build_gridworld(0.7)
    n_pairs = mdp.num_active_pairs
    rng = np.random.default_rng(seed)
    pairs, u = _draw_block(mdp, k, rng)
    order, counts, rows, flat, _, _ = _sorted_block(mdp, pairs, u, rng.random(k), np.zeros(n_pairs))
    assert np.array_equal(order, np.argsort(pairs, kind="stable"))
    assert np.array_equal(counts, np.bincount(pairs, minlength=n_pairs))
    assert np.array_equal(flat % n_pairs, pairs[order])
    ranks = np.empty(k, dtype=np.int64)
    seen = np.zeros(n_pairs, dtype=np.int64)
    for i, p in enumerate(pairs[order].tolist()):
        ranks[i] = seen[p]
        seen[p] += 1
    assert np.array_equal(flat // n_pairs, ranks)
    assert np.unique(flat).size == k
    assert rows == counts.max() + 1 and flat.max() < (rows - 1) * n_pairs


def test_inner_loop_frozen_target_is_input_table(grid07, theory_steps):
    # replay with targets built from the input table reproduces the engine,
    # so the bootstrap never reads the evolving iterate
    rng = np.random.default_rng(4)
    q_in = random_q(grid07, rng)
    fast = tq.run_inner_loop(q_in, 400, theory_steps, grid07, np.random.default_rng(7))
    pairs, u = _draw_block(grid07, 400, np.random.default_rng(7))
    slow = _sequential_replay(q_in, grid07, pairs, u, theory_steps.alphas(400))
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)
    assert np.array_equal(q_in, random_q(grid07, np.random.default_rng(4)))  # untouched


def test_inner_loop_error_decreases_with_k(theory_steps):
    mdp = make_chain_mdp(gamma=0.5)  # deterministic rewards
    steps = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    q_in = tq.new_q_table(mdp, fill=1.0)
    image = tq.exact_bellman_apply(q_in, mdp)
    errs = []
    for k in (50, 500, 5000):
        q = tq.run_inner_loop(q_in, k, steps, mdp, np.random.default_rng(5))
        errs.append(tq.sup_distance(q, image, mdp))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_inner_loop_rate_bound_small(grid07, oracle07, theory_steps):
    # cheap version of the mean-squared-error rate check
    c = tq.compute_constants(grid07, 1.0 / 52.0, oracle07)
    q_in = tq.new_q_table(grid07)
    image = tq.exact_bellman_apply(q_in, grid07)
    dist_sq = tq.sup_distance(q_in, oracle07, grid07) ** 2
    k = 500
    errs = []
    for seed in range(30):
        q = tq.run_inner_loop(q_in, k, theory_steps, grid07, np.random.default_rng(seed))
        d = (q - image)[grid07.pair_state, grid07.pair_action]
        errs.append(float(d @ d))
    assert np.mean(errs) <= 1.1 * (c.c1 * dist_sq + c.c2) / (k + theory_steps.s)


def test_inner_loop_validation(grid07, theory_steps):
    # n_steps is checked by test_schedules.py::test_period_rule_is_the_same_everywhere
    with pytest.raises(DomainError):
        tq.run_inner_loop(
            tq.new_q_table(grid07), 10, tq.CustomStepSize(lambda k: 2.0), grid07,
            np.random.default_rng(0),
        )


# ---------------------------------------------------------------------------
# Periodic runner


def test_periodic_zero_cycles(grid07, oracle07, theory_steps):
    trace = tq.run_periodic_q(
        tq.new_q_table(grid07), tq.FixedPeriod(100), theory_steps, grid07,
        np.random.default_rng(0), oracle=oracle07, n_cycles=0,
    )
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.cycle == 0 and rec.cumulative_cost == 0
    assert rec.bias == pytest.approx(3.0)


def test_periodic_seeded_determinism(grid07, oracle07, theory_steps):
    def go():
        return tq.run_periodic_q(
            tq.new_q_table(grid07), tq.FixedPeriod(250), theory_steps, grid07,
            np.random.default_rng(123), oracle=oracle07, n_cycles=6,
            eval_horizon=7, record_gap=True,
        )

    a, b = go(), go()
    assert a.records == b.records


def test_periodic_budget_stop_and_costs(grid07, theory_steps):
    trace = tq.run_periodic_q(
        tq.new_q_table(grid07), tq.FixedPeriod(300), theory_steps, grid07,
        np.random.default_rng(1), sample_budget=1000,
    )
    costs = [rec.cumulative_cost for rec in trace.records]
    assert costs == [0, 300, 600, 900, 1200]  # crossing cycle completes
    assert trace.final.cumulative_cost >= 1000


def test_periodic_near_exact_inner_tracks_value_iteration():
    # deterministic rewards and long cycles approximate exact updates
    mdp = make_chain_mdp(gamma=0.5)
    oracle = tq.value_iteration_oracle(mdp)
    steps = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    q0 = tq.new_q_table(mdp, fill=2.0)
    trace = tq.run_periodic_q(
        q0, tq.FixedPeriod(4000), steps, mdp, np.random.default_rng(2),
        oracle=oracle, n_cycles=5,
    )
    q_exact = q0
    for n, rec in enumerate(trace.records):
        expected = tq.sup_distance(q_exact, oracle, mdp)
        assert rec.bias == pytest.approx(expected, abs=2e-3)
        q_exact = tq.exact_bellman_apply(q_exact, mdp)


def test_outer_contraction_exact_realization():
    # eta = 0 case: exact operator applications on a self-loop environment
    mdp = make_selfloop_mdp(gamma=0.7, reward=0.0)
    oracle = tq.value_iteration_oracle(mdp)
    q = tq.new_q_table(mdp, fill=2.0)
    e0 = tq.sup_distance(q, oracle, mdp)
    for n in range(1, 30):
        q = tq.exact_bellman_apply(q, mdp)
        assert tq.sup_distance(q, oracle, mdp) == pytest.approx(
            0.7**n * e0, abs=1e-9
        )


def test_measured_gap_nonnegative_and_improves_with_period(grid07, oracle07, theory_steps):
    def gaps(period, seed):
        trace = tq.run_periodic_q(
            tq.new_q_table(grid07), tq.FixedPeriod(period), theory_steps,
            grid07, np.random.default_rng(seed), n_cycles=6, record_gap=True,
        )
        return [rec.bellman_gap for rec in trace.records[1:]]

    per_cycle_small = np.zeros(6)
    per_cycle_big = np.zeros(6)
    for seed in range(20):
        gs, gb = gaps(500, seed), gaps(1000, seed)
        assert all(g >= 0.0 for g in gs + gb)
        per_cycle_small += gs
        per_cycle_big += gb
    assert np.all(per_cycle_big <= per_cycle_small)


def test_periodic_rejects_adaptive_schedule(grid07, theory_steps):
    with pytest.raises(DomainError):
        tq.run_periodic_q(
            tq.new_q_table(grid07), tq.AccuracyTriggered(10, 100), theory_steps,
            grid07, np.random.default_rng(0), n_cycles=2,
        )
    with pytest.raises(DomainError):
        tq.run_periodic_q(
            tq.new_q_table(grid07), tq.FixedPeriod(10), theory_steps, grid07,
            np.random.default_rng(0),
        )


@pytest.mark.parametrize(
    "limits",
    [dict(eval_every=0, n_cycles=2), dict(sample_budget=0), dict(sample_budget=-5),
     dict(n_cycles=-3, sample_budget=100), dict(n_cycles=2.5),
     dict(eval_every=1.5, n_cycles=2), dict(eval_horizon=2.5, n_cycles=2),
     dict(sample_budget=np.nan, n_cycles=2), dict(sample_budget=np.inf, n_cycles=2)],
    ids=["eval_every=0", "budget=0", "budget=-5", "cycles=-3", "cycles=2.5",
         "eval_every=1.5", "eval_horizon=2.5", "budget=nan", "budget=inf"],
)
@pytest.mark.parametrize("adaptive", [False, True], ids=["periodic", "adaptive"])
def test_runners_reject_invalid_limits(grid07, theory_steps, adaptive, limits):
    q0, rng = tq.new_q_table(grid07), np.random.default_rng(0)
    if adaptive:
        with pytest.raises(DomainError):
            tq.run_accuracy_triggered_q(q0, 10, 50, theory_steps, grid07, rng, **limits)
        return
    # a schedule shorter than n_cycles must not hide a bad limit
    for schedule in (tq.FixedPeriod(10), tq.ExplicitPeriod((10, 10))):
        with pytest.raises(DomainError):
            tq.run_periodic_q(q0, schedule, theory_steps, grid07, rng, **limits)


@pytest.mark.parametrize("adaptive", [False, True], ids=["periodic", "adaptive"])
def test_runners_accept_numpy_integer_limits(grid07, theory_steps, adaptive):
    q0, rng = tq.new_q_table(grid07), np.random.default_rng(0)
    limits = dict(n_cycles=np.int64(2), eval_every=np.int32(2), eval_horizon=np.uint8(3))
    if adaptive:
        trace = tq.run_accuracy_triggered_q(q0, 10, 50, theory_steps, grid07, rng, **limits)
    else:
        trace = tq.run_periodic_q(q0, tq.FixedPeriod(10), theory_steps, grid07, rng, **limits)
    assert [r.cycle for r in trace.records] == [0, 1, 2]
    assert [r.score is None for r in trace.records] == [False, True, False]


def test_unsigned_cadence_spans_record_stacks(grid07, theory_steps):
    # the grid's record stack holds 128 tables, so cycle 128 starts a second one
    trace = tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(1), theory_steps, grid07,
                              np.random.default_rng(0), n_cycles=200, eval_every=np.uint8(3),
                              eval_horizon=1)
    assert [r.cycle for r in trace.records if r.score is not None] == list(range(0, 201, 3))


def test_non_finite_oracle_fails_before_any_cycle(grid07, oracle07, theory_steps):
    oracle = oracle07.copy()
    oracle[0, 0] = np.nan
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="non-finite"):
        tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(10), theory_steps, grid07, rng,
                          n_cycles=3, oracle=oracle)
    assert rng.bit_generator.state == state


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad_cycle", [0, 5, 119, 120, 200])
def test_non_finite_table_mid_stack_raises(grid07, oracle07, bad_cycle):
    # a cycle whose table turns non-finite fails the run with the check's
    # DomainError, wherever the table falls in its stack
    def cycle(n, q):
        q_new = q + 0.5
        if n == bad_cycle:
            q_new[grid07.start_state, 0] = np.inf
        return q_new, 1, 1, None

    with pytest.raises(DomainError, match="non-finite"):
        _run_cycles(tq.new_q_table(grid07), grid07, cycle, 300, None, oracle=oracle07,
                    eval_horizon=7)


@pytest.mark.parametrize("bad", [np.nan, 0.0, 1.7])
@pytest.mark.parametrize("at", [0, 9])
def test_step_sizes_out_of_range_rejected(grid07, bad, at):
    steps = tq.CustomStepSize(lambda k: bad if k == at else 0.5)
    with pytest.raises(DomainError, match="step sizes"):
        _RunBuffers(steps).alphas(10, 0)
    q0 = tq.new_q_table(grid07)
    with pytest.raises(DomainError, match="step sizes"):
        tq.run_periodic_q(q0, tq.FixedPeriod(10), steps, grid07,
                          np.random.default_rng(0), n_cycles=3)
    with pytest.raises(DomainError, match="step sizes"):
        tq.run_accuracy_triggered_q(q0, 10, 10, steps, grid07,
                                    np.random.default_rng(0), n_cycles=3)


def test_step_sizes_checked_in_the_cycle_that_computes_them(grid07):
    # one bad step deep in the third block of the first cycle
    steps = tq.CustomStepSize(lambda k: 1.5 if k == 2 * _CHUNK + 3 else 0.5)
    with pytest.raises(DomainError, match="step sizes"):
        tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(3 * _CHUNK), steps,
                          grid07, np.random.default_rng(0), n_cycles=1)
    with pytest.raises(DomainError, match="step sizes"):
        tq.run_inner_loop(tq.new_q_table(grid07), 3 * _CHUNK, steps, grid07,
                          np.random.default_rng(0))
    with pytest.raises(DomainError, match="step sizes"):
        tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 3 * _CHUNK, 3 * _CHUNK, steps,
                                    grid07, np.random.default_rng(0), accuracy=lambda n: 0.0,
                                    n_cycles=1)


class _TableStepSizes:
    """Step sizes served as slices of one array the object owns; counts the
    calls."""

    def __init__(self, n):
        self.table = np.full(n, 0.5)
        self.calls = 0

    def alphas(self, count, start=0):
        self.calls += 1
        return self.table[start:start + count]


def test_cached_step_sizes_are_read_only_copies(grid07):
    steps = _TableStepSizes(2 * _CHUNK)
    cache = _RunBuffers(steps)
    cached = cache.alphas(_CHUNK, _CHUNK)
    calls = steps.calls
    again = cache.alphas(_CHUNK, _CHUNK)
    assert steps.calls == calls  # a repeated request computes nothing
    assert np.array_equal(again, cached) and not again.flags.writeable
    assert not np.shares_memory(again, steps.table)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 1.0
    assert not np.shares_memory(cached, steps.table)
    steps.table[:] = 0.25  # the object's own array stays writeable
    assert np.all(cached == 0.5)
    trace = tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(2 * _CHUNK), steps,
                              grid07, np.random.default_rng(0), n_cycles=2)
    assert trace.final.inner_steps == 2 * _CHUNK
    trace = tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 2 * _CHUNK, 2 * _CHUNK, steps,
                                        grid07, np.random.default_rng(0), n_cycles=2)
    assert trace.final.inner_steps == 2 * _CHUNK
    assert steps.table.flags.writeable and np.all(steps.table == 0.25)


def test_periodic_step_sizes_computed_once_per_run(grid07):
    calls = []
    steps = tq.CustomStepSize(lambda k: calls.append(k) or 1.0 / (k + 1))
    for _ in range(2):
        calls.clear()
        tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(100), steps, grid07,
                          np.random.default_rng(0), n_cycles=5)
        assert calls == list(range(100))  # a fixed period's array, once in each run
    calls.clear()
    tq.run_periodic_q(tq.new_q_table(grid07), tq.ExplicitPeriod((30, 40, 30)), steps,
                      grid07, np.random.default_rng(0))
    assert calls == list(range(40))  # each step size once per run
    # a multi-block period: each block once per run
    calls.clear()
    tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(2 * _CHUNK + 5), steps,
                      grid07, np.random.default_rng(0), n_cycles=3)
    assert calls == list(range(2 * _CHUNK + 5))
    # the accuracy-triggered runner takes its chunks from the same cache
    calls.clear()
    tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 100, 100, steps, grid07,
                                np.random.default_rng(0), n_cycles=5)
    assert calls == list(range(100))
    calls.clear()
    tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 2 * _CHUNK + 5, 2 * _CHUNK + 5, steps,
                                grid07, np.random.default_rng(0), n_cycles=3)
    assert calls == list(range(2 * _CHUNK + 5))


def test_long_cycles_compute_leading_step_size_blocks_once(grid07):
    # a period of 20 blocks: the 16 leading full blocks are kept for the
    # whole run, the 4 past them are computed in every cycle
    calls = []
    steps = tq.CustomStepSize(lambda k: calls.append(k) or 1.0 / (k + 1))
    tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(20 * _CHUNK), steps, grid07,
                      np.random.default_rng(0), n_cycles=3)
    assert calls == list(range(20 * _CHUNK)) + 2 * list(range(16 * _CHUNK, 20 * _CHUNK))


def test_step_sizes_below_the_prefix_computed_once_per_run(grid07):
    # cycle tails and the leading 16 blocks of a long cycle come from one
    # prefix; the long cycle's 4 blocks past it are computed once, as it
    # runs once
    calls = []
    steps = tq.CustomStepSize(lambda k: calls.append(k) or 1.0 / (k + 1))
    tq.run_periodic_q(tq.new_q_table(grid07), tq.ExplicitPeriod((1000, 1500, 20 * _CHUNK, 1200)),
                      steps, grid07, np.random.default_rng(0))
    assert calls == list(range(20 * _CHUNK))


# SHA-256 over repr(trace.records) of 200k-sample runs from seed 11 with
# oracle bias, record_gap and a 7-step evaluation. Same config and seed give
# the same trace, so a speed-up that changes a trace fails here; update a
# digest only together with a stated trace change
_PINNED_TRACES = {
    ("fixed 1000", "theory"): "ac9c2d4a791910bb26ea8f72b7774f485c5a46d72255f3c075b22e2baa3384ec",
    ("fixed 1000", "constant"): "71cef4d5e3d4fc53c6c45399a3203d9839245b0c39d4b1ede5cae25b482cd1c5",
    ("fixed 8193", "theory"): "57f8e7121496cc84f31cf953e004757355227316cb3f7b60c2aa0e26c27aa267",
    ("fixed 8193", "constant"): "c4879415456bedad7652ac12d2651f92b392e3b4fb13ae4c6acf7bbb9e5171bf",
    ("geometric 1000", "theory"): "34a34af7b1631a6742ad9e86b1b6cdbe0ceec2563ab6c63a8b7ea02a2abfccdd",
    ("geometric 1000", "constant"): "2067a10537bd2b8ea465ffb3f29ce54966ed03e002051fab31e8612661045fb4",
}


@pytest.mark.parametrize("schedule, steps", _PINNED_TRACES)
def test_periodic_traces_bit_identical(grid07, oracle07, schedule, steps):
    kind, k = schedule.split()
    sched = tq.FixedPeriod(int(k)) if kind == "fixed" else tq.GeometricPeriod(int(k), 0.7)
    step_sizes = (tq.TheoryInverseStepSize.from_pair_count(52) if steps == "theory"
                  else tq.ConstantStepSize(0.05))
    trace = tq.run_periodic_q(tq.new_q_table(grid07), sched, step_sizes, grid07,
                              np.random.default_rng(11), sample_budget=200_000, oracle=oracle07,
                              eval_horizon=7, record_gap=True)
    digest = hashlib.sha256(repr(trace.records).encode()).hexdigest()
    assert digest == _PINNED_TRACES[schedule, steps]


# the same for accuracy-triggered runs with k_min = 1000, k_max = 100000
_PINNED_ADAPTIVE_TRACES = {
    "theory": "4d489bc288bfbc3f2bb7cc0a09d6fdaa65aa585eca78690895a89355a0a61444",
    "constant": "0a9b357f5a19b8b688852803ae6b824137b5cf64e4bbac90f45fb3874726fef7",
}


@pytest.mark.parametrize("steps", _PINNED_ADAPTIVE_TRACES)
def test_adaptive_traces_bit_identical(grid07, oracle07, steps):
    step_sizes = (tq.TheoryInverseStepSize.from_pair_count(52) if steps == "theory"
                  else tq.ConstantStepSize(0.05))
    trace = tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 1000, 100_000, step_sizes,
                                        grid07, np.random.default_rng(11),
                                        sample_budget=200_000, oracle=oracle07, eval_horizon=7,
                                        record_gap=True)
    digest = hashlib.sha256(repr(trace.records).encode()).hexdigest()
    assert digest == _PINNED_ADAPTIVE_TRACES[steps]


# Records are computed one stack of _CHUNK // 68 = 120 grid tables at a
# time. These runs put the record count just below, on and just past one and
# two stacks, and let a budget cross mid-stack; eval_every = 7 does not
# divide 120, so the due tables sit at another offset in each stack.
# The digests were taken before recording was stacked, so a stack boundary
# that shows fails here. Keys: (runner, limit kind, n_cycles or
# sample_budget, eval_every); record_gap is on with eval_every = 3.
_STACK_BOUNDARY_TRACES = {
    ("periodic", "cycles", 118, 1): "ed6bd20183104b830f280124d35b3a84359adcbd0ec66a8bf2f38b306fee04a7",
    ("periodic", "cycles", 118, 3): "6bb92197b3af69682ce67acafcf2e46f6c0bcfa1ae320015de4d200402d3d1ec",
    ("periodic", "cycles", 119, 1): "6762df3683bbe70c51a2e6453c3b93a7838b663588a3be75383949a1c9c18da9",
    ("periodic", "cycles", 119, 3): "4b10d08ef65d2f33db3c579ff03e5321e2216d7f1b02e61665b2e10a2aed177e",
    ("periodic", "cycles", 120, 1): "3c4edf18a4106d9f942a7927a865663632ce96bb7924f1243fa4fab4c561e9f6",
    ("periodic", "cycles", 120, 3): "321d7af713a908bacd647a4d4337785032c2d2a63e2b7e9232d7bf1c44e03d13",
    ("periodic", "cycles", 121, 1): "4b8e903500fdc278cf79e207fd10b4f56bed64bba64f01772697d38f8276acd5",
    ("periodic", "cycles", 121, 3): "60d231428ef35c3818a6c4f7f039c53a1fc7da66cb67b98a131d4b8d366d7ea9",
    ("periodic", "cycles", 240, 1): "efd5c2df03cb71a66db33a62655e179f401d5132a13f4652805b5ad1df90f55f",
    ("periodic", "cycles", 240, 3): "448fcc07dc8496a3ed2620a462045697c21f4706df786d4ce72bfb648f21861f",
    ("periodic", "cycles", 241, 1): "4676234f2cc6b38d6e0d01bb6ea5c5bccffd859e0bb1d2c7fc0c7e7e7025c615",
    ("periodic", "cycles", 241, 3): "3a1219622687252d9b29667eaa1687ba768b37a13dc6be64108452d0cec7eea8",
    ("adaptive", "cycles", 118, 1): "dcf283b9e6c50318084413998752f54e225f9d036736dddd372ebb981558b993",
    ("adaptive", "cycles", 118, 3): "ff5f343282d56028556761a1bcede38bd78f2475a622aa84674e66d9a1c3dfac",
    ("adaptive", "cycles", 119, 1): "edc1c9a355c6c705d4cef8b6a190da13d938dcaa942befabb3540d575a7b3b45",
    ("adaptive", "cycles", 119, 3): "c0497f56de81db312f9d3650f42cd71566ec7f917822b37f2f6dd3325eeb528d",
    ("adaptive", "cycles", 120, 1): "1ab3fa6c2fdb5bec5d0670c4f14faebc045e9608ab085f61e344acdfaff859e6",
    ("adaptive", "cycles", 120, 3): "bb548c18fbee37940e1a389991e3e5096b0e98ffc8e3834e1f747a059ea34af1",
    ("adaptive", "cycles", 121, 1): "11ed81748bf95dddf2c674405292a874b0d87b50ec848c1167314f4f80c0198b",
    ("adaptive", "cycles", 121, 3): "7de3ba230a004ae38d39359685d2807fd3f8d40e902734ed49a29fc4b60dd5f2",
    ("adaptive", "cycles", 240, 1): "31da02bb0a7177f93e11db0b3d57f0493c991606faff8ac4351ce22dad1d9b15",
    ("adaptive", "cycles", 240, 3): "72cc90b567a4e65a4dcb4e6a690906267dc3c01abf872a4ee5c8afe395fec94f",
    ("adaptive", "cycles", 241, 1): "c57c77b5011886114339e524b6bc79dfdea0a43cbd50b7828eb57d39439bf849",
    ("adaptive", "cycles", 241, 3): "51742f6d6b5bf53e85be363437af8ce8d1bb52ea3cf50ce4ff5bb826e9f33b1a",
    ("periodic", "budget", 1263, 1): "2a780e70592faa00210cb077b8b05310ab5f0dce099794448f8e040c2a8f5cf2",
    ("adaptive", "budget", 5000, 1): "3dd96ac7d22e7a357bea0e34e8b0e79fadd5aae0c235f25dd76dce043edf0e1a",
    ("periodic", "budget", 1263, 3): "6f4b50ec38cc6fee2e31f33bfa2aa792534918931b3aa0df47fb75c9b63c8992",
    ("adaptive", "budget", 5000, 3): "37191098cbccb7bbe58f7486508a3aae5d37364a3cfb5f13dc7a775ff0322173",
    ("periodic", "cycles", 241, 7): "8503ca91c99d4cb67707c8d1a0cf7f8e6a35e6f49c766f6fa8651c7fcb551af0",
    ("adaptive", "cycles", 241, 7): "da2f67faed0e6d8d7e306927ecd260db7d608095c0799a95993601c49c043b70",
    ("periodic", "budget", 1263, 7): "b984110eb255e6f7dbd0d0802a515bfb4c3a2b18ffaee38de7b64e7d8fcae01d",
    ("adaptive", "budget", 5000, 7): "756667ef7337c603521a4577439db1fe81d8afde4e78d5f4e2ea01f341a9d499",
}


def _stack_boundary_run(grid07, oracle07, runner, limit, n, every):
    options = dict(oracle=oracle07, eval_horizon=7, eval_every=every, record_gap=every == 3)
    options["n_cycles" if limit == "cycles" else "sample_budget"] = n
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    rng = np.random.default_rng(23)
    if runner == "periodic":
        return tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(7), steps, grid07, rng,
                                 **options)
    return tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 5, 40, steps, grid07, rng,
                                       **options)


@pytest.mark.parametrize("case", _STACK_BOUNDARY_TRACES)
def test_stack_boundaries_leave_traces_unchanged(grid07, oracle07, case):
    assert _CHUNK // grid07.num_states // grid07.num_actions == 120
    trace = _stack_boundary_run(grid07, oracle07, *case)
    digest = hashlib.sha256(repr(trace.records).encode()).hexdigest()
    assert digest == _STACK_BOUNDARY_TRACES[case]


@pytest.mark.parametrize("runner", ["periodic", "adaptive"])
def test_recording_goes_through_the_traced_names(grid07, oracle07, monkeypatch, runner):
    # the benchmark's per-layer spans wrap these module attributes; a run
    # that records bias and score must reach both
    calls = {"sup_distance": 0, "evaluate_greedy": 0}
    for name in calls:
        original = getattr(tq.learner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tq.learner, name, counted)
    for n in (1, 130):
        calls.update(dict.fromkeys(calls, 0))
        _stack_boundary_run(grid07, oracle07, runner, "cycles", n, 1)
        assert calls["sup_distance"] >= 1 and calls["evaluate_greedy"] >= 1


# ---------------------------------------------------------------------------
# Geometric schedule


def test_geometric_runner_periods_match_schedule(grid07, theory_steps):
    trace = tq.run_periodic_q(
        tq.new_q_table(grid07), tq.GeometricPeriod(100, grid07.gamma), theory_steps,
        grid07, np.random.default_rng(3), n_cycles=8,
    )
    planned = [rec.planned_period for rec in trace.records[1:]]
    assert planned == [tq.GeometricPeriod(100, 0.7).period(n) for n in range(8)]
    assert [rec.inner_steps for rec in trace.records[1:]] == planned


def test_periodic_explicit_schedule_clamps_cycles(grid07, theory_steps):
    trace = tq.run_periodic_q(
        tq.new_q_table(grid07), tq.ExplicitPeriod((50, 80)), theory_steps,
        grid07, np.random.default_rng(0), n_cycles=10,
    )
    assert [rec.planned_period for rec in trace.records[1:]] == [50, 80]


# ---------------------------------------------------------------------------
# Accuracy-triggered runner


def test_adaptive_stops_at_k_min_when_converged():
    # fixed point of an all-zero environment is exactly zero, so every TD
    # error vanishes and each cycle stops right at k_min
    mdp = make_selfloop_mdp(gamma=0.5, reward=0.0)
    steps = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    trace = tq.run_accuracy_triggered_q(
        tq.new_q_table(mdp), 50, 10_000, steps, mdp,
        np.random.default_rng(4), n_cycles=5,
    )
    assert [rec.inner_steps for rec in trace.records[1:]] == [50] * 5
    assert all(rec.stop_stat == 0.0 for rec in trace.records[1:])


def test_adaptive_zero_threshold_runs_to_k_max(grid07, theory_steps):
    trace = tq.run_accuracy_triggered_q(
        tq.new_q_table(grid07), 10, 300, theory_steps, grid07,
        np.random.default_rng(5), accuracy=lambda n: 0.0, n_cycles=3,
    )
    assert [rec.inner_steps for rec in trace.records[1:]] == [300] * 3
    assert all(rec.stop_stat > 0.0 for rec in trace.records[1:])


def test_adaptive_steps_within_bounds_and_deterministic(grid07, oracle07, theory_steps):
    def go():
        return tq.run_accuracy_triggered_q(
            tq.new_q_table(grid07), 200, 5000, theory_steps, grid07,
            np.random.default_rng(6), oracle=oracle07, sample_budget=20_000,
        )

    a, b = go(), go()
    assert a.records == b.records
    for rec in a.records[1:]:
        assert 200 <= rec.inner_steps <= 5000
        assert rec.stop_stat is not None


def test_adaptive_tracker_consistency(grid07, theory_steps):
    # the engine's statistic must match one recomputed from a replay's
    # per-pair TD-error sums and counts
    trace = tq.run_accuracy_triggered_q(
        tq.new_q_table(grid07), 100, 400, theory_steps, grid07,
        np.random.default_rng(8), n_cycles=1,
    )
    steps_taken = trace.records[1].inner_steps
    pairs, u = _draw_block(grid07, min(8192, 400), np.random.default_rng(8))
    alphas = tq.TheoryInverseStepSize.from_pair_count(52).alphas(400)
    q_in = tq.new_q_table(grid07)
    q, sums, counts = q_in.copy(), np.zeros(52), np.zeros(52)
    for i in range(steps_taken):
        p = int(pairs[i])
        sums[p] += inner_sgd_step(q, q_in, grid07, p, alphas[i], u[i])
        counts[p] += 1
    stat = np.sum(np.abs(sums / np.maximum(counts, 1))) / 52
    assert stat == pytest.approx(trace.records[1].stop_stat, abs=1e-12)


_GRID = tq.build_gridworld(0.7)
_THEORY = tq.TheoryInverseStepSize.from_pair_count(_GRID.num_active_pairs)


@pytest.mark.parametrize(
    "mdp, step_sizes, k_min, k_max, eps_n, expected",
    [
        # a threshold no statistic exceeds stops at k_min: the last step of
        # a chunk, either side of it, and the first step of a third chunk
        (_GRID, _THEORY, 1, 20_000, 1e9, 1),
        (_GRID, _THEORY, 8191, 20_000, 1e9, 8191),
        (_GRID, _THEORY, 8192, 20_000, 1e9, 8192),
        (_GRID, _THEORY, 8193, 20_000, 1e9, 8193),
        (_GRID, _THEORY, 16385, 20_000, 1e9, 16385),
        # a zero threshold runs to k_max
        (_GRID, _THEORY, 1, 8191, 0.0, 8191),
        (_GRID, _THEORY, 1, 8192, 0.0, 8192),
        (_GRID, _THEORY, 1, 8193, 0.0, 8193),
        (_GRID, _THEORY, 1, 16385, 0.0, 16385),
        # stops inside a later chunk
        (_GRID, _THEORY, 100, 20_000, 0.03, None),
        (_GRID, tq.ConstantStepSize(1.0), 1, 20_000, 0.015, None),
        (_CHAIN_400, tq.TheoryInverseStepSize.from_pair_count(400), 500, 20_000, 0.15, None),
    ],
    ids=["k_min=1", "k_min=8191", "k_min=8192", "k_min=8193", "k_min=16385", "k_max=8191",
         "k_max=8192", "k_max=8193", "k_max=16385", "grid-theory", "grid-alpha=1", "chain-400"],
)
def test_adaptive_kernel_matches_per_step_replay(mdp, step_sizes, k_min, k_max, eps_n, expected):
    q_in = random_q(mdp, np.random.default_rng(12))
    result = _check_adaptive_against_replay(q_in, mdp, step_sizes, k_min, k_max, eps_n, 13)
    assert result is not None  # no near-tie in a fixed case
    if expected is not None:
        assert result[0] == expected
    else:
        assert max(k_min, _CHUNK) < result[0] < k_max


def test_adaptive_kernel_all_zero_mdp_stops_at_k_min_with_zero_stat():
    mdp = make_selfloop_mdp(gamma=0.5, reward=0.0)
    result = _check_adaptive_against_replay(tq.new_q_table(mdp), mdp, tq.ConstantStepSize(0.3),
                                            8193, 20_000, 1e-12, 0)
    assert result == (8193, 0.0)


@settings(max_examples=25, deadline=None, database=None)
@given(
    use_chain=st.booleans(),
    zero_start=st.booleans(),
    k_max=st.one_of(st.integers(1, _CHUNK), st.integers(_CHUNK + 1, 2 * _CHUNK + 2)),
    k_min_fraction=st.floats(0.0, 1.0),
    stop_fraction=st.floats(0.0, 1.0),
    steps=st.one_of(
        st.lists(_STEP, min_size=1, max_size=64),  # cycled through the steps
        _STEP.map(lambda a: [a]),  # constant
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_adaptive_kernel_matches_per_step_replay_property(use_chain, zero_start, k_max,
                                                          k_min_fraction, stop_fraction, steps,
                                                          seed):
    mdp = _CHAIN_400 if use_chain else _GRID
    step_sizes = tq.CustomStepSize(lambda i: steps[i % len(steps)])
    q_in = tq.new_q_table(mdp) if zero_start else random_q(mdp, np.random.default_rng(seed))
    k_min = max(1, round(k_min_fraction * k_max))
    # the threshold sits just above the lowest statistic from k_min up to a
    # drawn step, so the cycle stops at about the step where that is reached
    _, full = _adaptive_replay(q_in, mdp, step_sizes, k_min, k_max, -1.0,
                               np.random.default_rng(seed))
    eps_n = min(full[k_min - 1:k_min + round(stop_fraction * (k_max - k_min))]) * (1.0 + 1e-6)
    assume(_check_adaptive_against_replay(q_in, mdp, step_sizes, k_min, k_max, eps_n, seed)
           is not None)


def test_adaptive_validation(grid07, theory_steps):
    for k_min, k_max in ((100, 50), (1.5, 3), (2, 3.5)):
        with pytest.raises(DomainError):
            tq.run_accuracy_triggered_q(
                tq.new_q_table(grid07), k_min, k_max, theory_steps, grid07,
                np.random.default_rng(0), n_cycles=1,
            )
    with pytest.raises(DomainError):
        tq.run_accuracy_triggered_q(
            tq.new_q_table(grid07), 10, 50, theory_steps, grid07,
            np.random.default_rng(0),
        )
    # step sizes outside (0, 1] are refused, as by run_inner_loop
    for bad in (1.7, 0.0):
        with pytest.raises(DomainError):
            tq.run_accuracy_triggered_q(
                tq.new_q_table(grid07), 10, 50, tq.CustomStepSize(lambda k: bad), grid07,
                np.random.default_rng(0), n_cycles=1,
            )


# ---------------------------------------------------------------------------
# Sampling


def test_uniform_policy_xi_and_frequencies(grid07):
    # each step draws one active pair id with probability xi = 1/52, the xi
    # of the theory step sizes for this MDP
    assert grid07.num_active_pairs == 52
    assert tq.TheoryInverseStepSize.from_pair_count(grid07.num_active_pairs).xi == 1.0 / 52.0
    pairs, _ = _draw_block(grid07, 52_000, np.random.default_rng(10))
    assert pairs.min() >= 0 and pairs.max() < 52
    counts = np.bincount(pairs, minlength=52)
    assert counts.min() > 700 and counts.max() < 1300
