import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import targetq as tq
from targetq.errors import DomainError
from targetq.learner import (
    _CHUNK,
    _SEGMENT,
    _RunBuffers,
    _adaptive_cycle,
    _apply_block,
    _run_cycles,
    _draw_block,
    _frozen_continuation,
    _sorted_block,
)

from conftest import (cycle_law, inner_sgd_step, make_chain_mdp, make_ring_mdp, make_selfloop_mdp,
                      random_q)


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
    got = q_in.take(mdp.pair_flat)
    steps, stat = _adaptive_cycle(got, _frozen_continuation(q_in, mdp), mdp,
                                  _RunBuffers(step_sizes), k_min, k_max, eps_n,
                                  np.random.default_rng(seed))
    assert steps == len(stats)
    np.testing.assert_allclose(got, values, rtol=0, atol=1e-12)
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
    q = tq.new_q_table(mdp) + 2.0
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


def test_inner_loop_takes_an_integer_table(grid07, theory_steps):
    # the checked values come as floats, so an integer table runs as its float copy
    q_in = np.ones((grid07.num_states, grid07.num_actions), dtype=int)
    got = tq.run_inner_loop(q_in, 300, theory_steps, grid07, np.random.default_rng(4))
    want = tq.run_inner_loop(q_in.astype(float), 300, theory_steps, grid07,
                             np.random.default_rng(4))
    assert got.dtype == float and np.array_equal(got, want)


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


def _cycle_draw(mdp, k, rng):
    # a cycle's samples: each segment's pair ids, then its uniforms
    draws = [_draw_block(mdp, min(_SEGMENT, k - lo), rng) for lo in range(0, k, _SEGMENT)]
    return np.concatenate([p for p, _ in draws]), np.concatenate([u for _, u in draws])


# A cycle of at most one segment is one whole draw and a longer one draws
# per segment; its edges are a segment, a step and a block past it, and
# three steps past two segments.
_SEGMENT_EDGES = [_SEGMENT + d for d in (0, 1, _CHUNK + 5)] + [2 * _SEGMENT + 3]


def test_pair_id_buffer_holds_one_segment(theory_steps):
    grid = tq.build_gridworld(0.7)
    buffers = _RunBuffers(theory_steps)
    ids = buffers.pair_ids(grid.pair_id_dtype)
    assert buffers.pair_ids(grid.pair_id_dtype) is ids  # one buffer per run
    wide = _RunBuffers(theory_steps).pair_ids(_CHAIN_400.pair_id_dtype)
    assert (ids.dtype, ids.size, wide.dtype, wide.size) == (np.uint8, _SEGMENT, np.uint16, _SEGMENT)
    assert ids.nbytes == 2**20 and _SEGMENT % _CHUNK == 0


@pytest.mark.parametrize("k", [1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5,
                               *(_SEGMENT // 2 + d for d in (0, 1, _CHUNK + 5)), *_SEGMENT_EDGES])
def test_inner_loop_consumes_one_whole_cycle_draw(theory_steps, k):
    for mdp in (tq.build_gridworld(0.7), _CHAIN_400):
        rng = np.random.default_rng(12)
        tq.run_inner_loop(tq.new_q_table(mdp), k, theory_steps, mdp, rng)
        reference = np.random.default_rng(12)
        _cycle_draw(mdp, k, reference)
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("use_chain", [False, True], ids=["grid", "chain-400"])
@pytest.mark.parametrize("past_segment", [-_CHUNK - 3, 0, 1, _CHUNK + 5, _SEGMENT + 3])
def test_inner_loop_equals_blocks_of_one_whole_cycle_draw(use_chain, past_segment):
    # a cycle gives bitwise the table of applying its per-segment draws
    # block by block
    mdp = _CHAIN_400 if use_chain else tq.build_gridworld(0.7)
    k = _SEGMENT + past_segment
    steps = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    q_in = random_q(mdp, np.random.default_rng(5))
    # seed 9 draws the grid's 2**20 + 1 steps alike under both rules
    seed = 12 if (use_chain, past_segment) == (False, 1) else 9
    rng = np.random.default_rng(seed)
    fast = tq.run_inner_loop(q_in, k, steps, mdp, rng)
    reference = np.random.default_rng(seed)
    pairs, u = _cycle_draw(mdp, k, reference)
    assert rng.bit_generator.state == reference.bit_generator.state
    if k > _SEGMENT:
        # the whole-cycle rule (all of a cycle's pair ids, then all its
        # uniforms) must draw other samples from this seed, or the test
        # could not tell it from the per-segment rule
        whole_pairs, whole_u = _draw_block(mdp, k, np.random.default_rng(seed))
        assert not (np.array_equal(whole_pairs, pairs) and np.array_equal(whole_u, u))
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
    q_in = tq.new_q_table(mdp) + 1.0
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
            eval_horizon=7,
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


@pytest.mark.parametrize("schedule", [tq.FixedPeriod(1000), tq.FixedPeriod(8193),
                                      tq.GeometricPeriod(1000, 0.7)],
                         ids=["fixed 1000", "fixed 8193", "geometric 1000"])
def test_periodic_run_is_its_explicit_loop(grid07, oracle07, theory_steps, schedule):
    # run buffers and stacked recording change no value: each record is
    # what one run_inner_loop, sup_distance and evaluate_greedy call per
    # cycle give on the same generator
    def measured(q, n, steps, cost):
        bias = tq.sup_distance(q, oracle07, grid07)
        score = float(tq.evaluate_greedy(q, grid07, grid07.start_state, 7))
        return tq.CycleRecord(n, steps, cost, bias, score)

    trace = tq.run_periodic_q(tq.new_q_table(grid07), schedule, theory_steps, grid07,
                              np.random.default_rng(11), sample_budget=200_000, oracle=oracle07,
                              eval_horizon=7)
    rng = np.random.default_rng(11)
    q = tq.new_q_table(grid07)
    records = [measured(q, 0, 0, 0)]
    while records[-1].cumulative_cost < 200_000:
        n = len(records) - 1
        k = schedule.period(n)
        q = tq.run_inner_loop(q, k, theory_steps, grid07, rng)
        records.append(measured(q, n + 1, k, records[-1].cumulative_cost + k))
    assert trace.records == records


@pytest.mark.parametrize("option", ["record_gap", "label", "seed"])
def test_runners_take_only_what_they_compute_with(grid07, theory_steps, option):
    # a trace's label and seed are stamped by harness.run_one
    q0, rng = tq.new_q_table(grid07), np.random.default_rng(0)
    with pytest.raises(TypeError):
        tq.run_periodic_q(q0, tq.FixedPeriod(10), theory_steps, grid07, rng, n_cycles=1,
                          **{option: 1})
    with pytest.raises(TypeError):
        tq.run_accuracy_triggered_q(q0, 10, 20, theory_steps, grid07, rng, n_cycles=1,
                                    **{option: 1})
    for trace in (tq.run_periodic_q(q0, tq.FixedPeriod(10), theory_steps, grid07, rng, n_cycles=1),
                  tq.run_accuracy_triggered_q(q0, 10, 20, theory_steps, grid07, rng, n_cycles=1)):
        assert (trace.label, trace.seed) == ("run", None)


def test_periodic_near_exact_inner_tracks_value_iteration():
    # deterministic rewards and long cycles approximate exact updates
    mdp = make_chain_mdp(gamma=0.5)
    oracle = tq.value_iteration_oracle(mdp)
    steps = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    q0 = tq.new_q_table(mdp) + 2.0
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
    q = tq.new_q_table(mdp) + 2.0
    e0 = tq.sup_distance(q, oracle, mdp)
    for n in range(1, 30):
        q = tq.exact_bellman_apply(q, mdp)
        assert tq.sup_distance(q, oracle, mdp) == pytest.approx(
            0.7**n * e0, abs=1e-9
        )


def test_measured_gap_nonnegative_and_improves_with_period(grid07, theory_steps):
    # each cycle's Bellman gap, sup |q_new - T q|, from the explicit loop
    # that a periodic run is (test_periodic_run_is_its_explicit_loop)
    def gaps(period, seed):
        rng = np.random.default_rng(seed)
        q = tq.new_q_table(grid07)
        out = []
        for _ in range(6):
            q_new = tq.run_inner_loop(q, period, theory_steps, grid07, rng)
            out.append(tq.sup_distance(q_new, tq.exact_bellman_apply(q, grid07), grid07))
            q = q_new
        return out

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
    "limits, message",
    [(dict(sample_budget=0), None), (dict(sample_budget=-5), None),
     (dict(n_cycles=-3, sample_budget=100), None), (dict(n_cycles=2.5), None),
     (dict(eval_horizon=2.5, n_cycles=2), None),
     (dict(sample_budget=np.nan, n_cycles=2), None), (dict(sample_budget=np.inf, n_cycles=2), None),
     # an integer past the float range is an infinite budget, which no cost reaches
     (dict(sample_budget=10**400, n_cycles=2), "sample budget must lie in [1, inf), got inf"),
     # every violation is reported, the cycle count's too
     (dict(n_cycles=1.5, sample_budget=np.nan, eval_horizon=-1),
      "sample budget must lie in [1, inf), got nan; cycle count must be an integer, got 1.5; "
      "evaluation horizon must lie in [0, 1.7976931348623157e+308], got -1")],
    ids=["budget=0", "budget=-5", "cycles=-3", "cycles=2.5",
         "eval_horizon=2.5", "budget=nan", "budget=inf", "budget=10**400", "three-violations"],
)
@pytest.mark.parametrize("adaptive", [False, True], ids=["periodic", "adaptive"])
def test_runners_reject_invalid_limits(grid07, theory_steps, adaptive, limits, message):
    q0, rng = tq.new_q_table(grid07), np.random.default_rng(0)
    match = None if message is None else f"^{re.escape(message)}$"
    if adaptive:
        with pytest.raises(DomainError, match=match):
            tq.run_accuracy_triggered_q(q0, 10, 50, theory_steps, grid07, rng, **limits)
        return
    # a schedule shorter than n_cycles must not hide a bad limit
    for schedule in (tq.FixedPeriod(10), tq.ExplicitPeriod((10, 10))):
        with pytest.raises(DomainError, match=match):
            tq.run_periodic_q(q0, schedule, theory_steps, grid07, rng, **limits)


@pytest.mark.parametrize("adaptive", [False, True], ids=["periodic", "adaptive"])
def test_runners_accept_numpy_integer_limits(grid07, theory_steps, adaptive):
    q0, rng = tq.new_q_table(grid07), np.random.default_rng(0)
    limits = dict(n_cycles=np.int64(2), eval_horizon=np.uint8(3))
    if adaptive:
        trace = tq.run_accuracy_triggered_q(q0, 10, 50, theory_steps, grid07, rng, **limits)
    else:
        trace = tq.run_periodic_q(q0, tq.FixedPeriod(10), theory_steps, grid07, rng, **limits)
    assert [r.cycle for r in trace.records] == [0, 1, 2]
    assert [r.score is None for r in trace.records] == [False, False, False]


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
        return q_new, 1, None

    with pytest.raises(DomainError, match="non-finite"):
        _run_cycles(tq.new_q_table(grid07), grid07, cycle, 300, None, oracle=oracle07,
                    eval_horizon=7)


@pytest.mark.parametrize("adaptive", [False, True], ids=["periodic", "adaptive"])
def test_overflowing_table_fails_either_runner(adaptive):
    # one self-loop pair paying 1e308 overflows in the second cycle; with no
    # oracle and no horizon only the table checks see it: each cycle's check
    # of its frozen table, and the check of the table the run ends on
    dist = tq.RewardDistribution.deterministic(1e308)
    mdp = tq.TabularMdp(num_states=2, num_actions=1, transitions={(0, 0): 0},
                        rewards={(0, 0): dist}, terminal=(1,), gamma=0.9)

    def run(n_cycles):
        args = (tq.ConstantStepSize(0.5), mdp, np.random.default_rng(0))
        # the overflow warns on its way
        with np.errstate(all="ignore"):
            if adaptive:
                return tq.run_accuracy_triggered_q(tq.new_q_table(mdp), 50, 50, *args,
                                                   n_cycles=n_cycles)
            return tq.run_periodic_q(tq.new_q_table(mdp), tq.FixedPeriod(50), *args,
                                     n_cycles=n_cycles)

    assert len(run(1).records) == 2
    for n_cycles in (2, 6):
        with pytest.raises(DomainError, match="^Q-table has non-finite"):
            run(n_cycles)


@pytest.mark.parametrize("bad", [np.nan, 0.0, 1.7])
@pytest.mark.parametrize("at", [0, 9])
def test_step_sizes_out_of_range_rejected(grid07, bad, at):
    steps = tq.CustomStepSize(lambda k: bad if k == at else 0.5)
    message = f"^{re.escape(f'step size must lie in (0, 1], got {bad}')}$"
    with pytest.raises(DomainError, match=message):
        _RunBuffers(steps).alphas(10, 0)
    q0 = tq.new_q_table(grid07)
    with pytest.raises(DomainError, match=message):
        tq.run_periodic_q(q0, tq.FixedPeriod(10), steps, grid07,
                          np.random.default_rng(0), n_cycles=3)
    with pytest.raises(DomainError, match=message):
        tq.run_accuracy_triggered_q(q0, 10, 10, steps, grid07,
                                    np.random.default_rng(0), n_cycles=3)


def test_step_sizes_checked_in_the_cycle_that_computes_them(grid07):
    # one bad step deep in the third block of the first cycle
    steps = tq.CustomStepSize(lambda k: 1.5 if k == 2 * _CHUNK + 3 else 0.5)
    message = r"^step size must lie in \(0, 1\], got 1\.5$"
    with pytest.raises(DomainError, match=message):
        tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(3 * _CHUNK), steps,
                          grid07, np.random.default_rng(0), n_cycles=1)
    with pytest.raises(DomainError, match=message):
        tq.run_inner_loop(tq.new_q_table(grid07), 3 * _CHUNK, steps, grid07,
                          np.random.default_rng(0))
    with pytest.raises(DomainError, match=message):
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


def test_cycle_records_are_immutable(grid07, theory_steps):
    trace = tq.run_periodic_q(tq.new_q_table(grid07), tq.FixedPeriod(100), theory_steps, grid07,
                              np.random.default_rng(0), n_cycles=2)
    record = trace.final
    for name in ("cycle", "bias", "stop_stat"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == tq.CycleRecord(2, 100, 200, None, None)
    assert repr(record) == ("CycleRecord(cycle=2, inner_steps=100, cumulative_cost=200, "
                            "bias=None, score=None, stop_stat=None)")


# SHA-256 over repr(trace.records) of 200k-sample runs from seed 11 with
# oracle bias and a 7-step evaluation. Same config and seed give the same
# trace, so a speed-up that changes a trace fails here; update a digest only
# together with a stated trace change. These and the stack-boundary digests
# below hash the records of the runs that first pinned them, repr'd with
# their current six fields, so a record's values are what they were then
_PINNED_TRACES = {
    ("fixed 1000", "theory"): "e30cffdbe4c1eb144fce9d9b493b79127a73bd88d5eef715630e85f32e979908",
    ("fixed 1000", "constant"): "de25d178e1783a3a52cbe5471d7505bdc956d470795f0c977c3043a47a2eca01",
    ("fixed 8193", "theory"): "07c2265570b4c9070de1fb172fceca6636d744c237fc6f47342cac323bd275eb",
    ("fixed 8193", "constant"): "9944cb4023762ee86c7d7a749750f3af57e17aa1e146a611a19b4ddfa11ace27",
    ("geometric 1000", "theory"): "7cd8163cb80ea323b5a915b99b7957bf5585b4332cd58383b4ca501403749bbc",
    ("geometric 1000", "constant"): "072b431cdb6f5536864b95724cb0c7374fd2c3ad67aea42da79a9a19a3aa1f4d",
}


@pytest.mark.parametrize("schedule, steps", _PINNED_TRACES)
def test_periodic_traces_bit_identical(grid07, oracle07, schedule, steps):
    kind, k = schedule.split()
    sched = tq.FixedPeriod(int(k)) if kind == "fixed" else tq.GeometricPeriod(int(k), 0.7)
    step_sizes = (tq.TheoryInverseStepSize.from_pair_count(52) if steps == "theory"
                  else tq.ConstantStepSize(0.05))
    trace = tq.run_periodic_q(tq.new_q_table(grid07), sched, step_sizes, grid07,
                              np.random.default_rng(11), sample_budget=200_000, oracle=oracle07,
                              eval_horizon=7)
    digest = hashlib.sha256(repr(trace.records).encode()).hexdigest()
    assert digest == _PINNED_TRACES[schedule, steps]


# the same for accuracy-triggered runs with k_min = 1000, k_max = 100000
_PINNED_ADAPTIVE_TRACES = {
    "theory": "efaaaa0a825048c028918566d8bb611cd13f7ea665a4e65935633c5fd369100c",
    "constant": "e7634f8ccbc901efd89e2903ccab221e779aaf7cc5c589dd0c6710ee9cd97863",
}


@pytest.mark.parametrize("steps", _PINNED_ADAPTIVE_TRACES)
def test_adaptive_traces_bit_identical(grid07, oracle07, steps):
    step_sizes = (tq.TheoryInverseStepSize.from_pair_count(52) if steps == "theory"
                  else tq.ConstantStepSize(0.05))
    trace = tq.run_accuracy_triggered_q(tq.new_q_table(grid07), 1000, 100_000, step_sizes,
                                        grid07, np.random.default_rng(11),
                                        sample_budget=200_000, oracle=oracle07, eval_horizon=7)
    digest = hashlib.sha256(repr(trace.records).encode()).hexdigest()
    assert digest == _PINNED_ADAPTIVE_TRACES[steps]


# Records are computed one stack of _CHUNK // 68 = 120 grid tables at a
# time. These runs put the record count just below, on and just past one and
# two stacks, and let a budget cross mid-stack.
# The records' values were first pinned before recording was stacked, from
# one sup_distance and one evaluate_greedy call per cycle, so a stack
# boundary that shows fails here. Keys: (runner, limit kind, n_cycles or
# sample_budget).
_STACK_BOUNDARY_TRACES = {
    ("periodic", "cycles", 118): "4dc8f79db5cf83aeb949d425025bc21e34e4c62288f825e19eb9a50d5cbcc28e",
    ("periodic", "cycles", 119): "c938d7d2037fb0a4f81ad419532c6cb7e856057d2ac45054865c57c827559c4e",
    ("periodic", "cycles", 120): "01fa5b69902324fed36375b471624f58f8133bf46cfd6c1c633ee9ea66486774",
    ("periodic", "cycles", 121): "aec6d831c1ddc8eb233694591dcc1da5b172e1cd860f86c07510b17c62bc52a7",
    ("periodic", "cycles", 240): "6ddb1b01033270623736a4f8ba39ece1fccd09f2e297a53cb9a81c0e33e22483",
    ("periodic", "cycles", 241): "6773689fb1db8113e49534ba65acc8931924bb0eaa5e1707fced5bdaee27d11c",
    ("adaptive", "cycles", 118): "92ec2412468499c1cc49708af2e01cd4a7c07b9996b61d44625d01a2db98318b",
    ("adaptive", "cycles", 119): "f0993fcf868bcb0f315e89d438d77119300db6a946d62b90cb5d2ace3f943255",
    ("adaptive", "cycles", 120): "ecf636267b29178f882eb2af47e93c2a428c4886dee1ea4d6a088f69a2cd94fc",
    ("adaptive", "cycles", 121): "453f423d263d1436047c2a861a5790be48435d2704f003e7e055a578e6438264",
    ("adaptive", "cycles", 240): "b2427203e2b37d67daed39930a1e4374d9d062b0a17f90c402c97ba8349386a7",
    ("adaptive", "cycles", 241): "e608e46fca3cd0ec83918065376409c449f7c7dc9c4bf2f922d420c13d33c25f",
    ("periodic", "budget", 1263): "b1b53f7f2e1f159ae654d05df111aec6f007e411ad569155bc7f5501b895e273",
    ("adaptive", "budget", 5000): "10ede975c33a392f985b2c187e4ac802aa9b323c3627b8ce5201c4b2ca198781",
}


def _stack_boundary_run(grid07, oracle07, runner, limit, n):
    options = dict(oracle=oracle07, eval_horizon=7)
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
        _stack_boundary_run(grid07, oracle07, runner, "cycles", n)
        assert calls["sup_distance"] >= 1 and calls["evaluate_greedy"] >= 1


# ---------------------------------------------------------------------------
# Geometric schedule


def test_geometric_runner_periods_match_schedule(grid07, theory_steps):
    trace = tq.run_periodic_q(
        tq.new_q_table(grid07), tq.GeometricPeriod(100, grid07.gamma), theory_steps,
        grid07, np.random.default_rng(3), n_cycles=8,
    )
    assert ([rec.inner_steps for rec in trace.records[1:]]
            == [tq.GeometricPeriod(100, 0.7).period(n) for n in range(8)])


def test_periodic_explicit_schedule_clamps_cycles(grid07, theory_steps):
    trace = tq.run_periodic_q(
        tq.new_q_table(grid07), tq.ExplicitPeriod((50, 80)), theory_steps,
        grid07, np.random.default_rng(0), n_cycles=10,
    )
    assert [rec.inner_steps for rec in trace.records[1:]] == [50, 80]


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


# The exact one-cycle law (conftest's cycle_law) against both kernels. The
# per-step reference shares the kernels' reward rule, so only the law can
# see a kernel that samples pairs or rewards with a bias. Each case runs
# 400 independent cycles from one random table and bands at +-4.5 standard
# errors:
# - each pair's mean end error around m e_0, with the standard error from
#   the law's own variance A e_0^2 + B sigma^2 - (m e_0)^2 (the cycles' own
#   standard errors give the per-pair ratio tails several times heavier
#   than normal on the grid);
# - the mean of |q_K - T q|^2 around A |e_0|^2 + B sum sigma^2, with the
#   cycles' own standard error (the law has no fourth moment).
# Under the normal approximation each band's false-alarm rate is 6.8e-6,
# so a case of n pairs (n + 1 bands) fails a correct kernel with
# probability at most (n + 1) * 6.8e-6: 3.6e-4 on the 52-pair grid and
# 4.8e-5 on the 6-pair chain.
_LAW_CYCLES = 400
_LAW_BAND = 4.5


def _periodic_cycle(q_in, k, step_sizes, mdp, rng):
    return tq.run_inner_loop(q_in, k, step_sizes, mdp, rng).take(mdp.pair_flat)


def _adaptive_full_cycle(q_in, k, step_sizes, mdp, rng):
    # k_min = k_max = k: the cycle never stops early
    values = q_in.take(mdp.pair_flat)
    _adaptive_cycle(values, _frozen_continuation(q_in, mdp), mdp, _RunBuffers(step_sizes),
                    k, k, 0.0, rng)
    return values


@pytest.mark.parametrize("cycle", [_periodic_cycle, _adaptive_full_cycle],
                         ids=["periodic", "adaptive"])
@pytest.mark.parametrize("use_chain, k", [(False, 100), (False, 1000), (True, 10), (True, 30)],
                         ids=["grid-100", "grid-1000", "chain-10", "chain-30"])
def test_one_cycle_matches_exact_law(cycle, use_chain, k):
    # theory steps on the grid; constant 0.3 steps on the chain, whose
    # rewards are deterministic, so its B term is multiplied by zero
    if use_chain:
        mdp, step_sizes = make_chain_mdp(), tq.ConstantStepSize(0.3)
    else:
        mdp = tq.build_gridworld(0.7)
        step_sizes = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    q_in = random_q(mdp, np.random.default_rng(k))
    target = tq.exact_bellman_apply(q_in, mdp).take(mdp.pair_flat)
    e0 = q_in.take(mdp.pair_flat) - target
    m, a, _, b = cycle_law(step_sizes.alphas(k), mdp.num_active_pairs)
    second = a * e0**2 + b * mdp.pair_reward_var  # each pair's E e_K^2
    rng = np.random.default_rng(7)
    errors = np.array([cycle(q_in, k, step_sizes, mdp, rng) - target
                       for _ in range(_LAW_CYCLES)])
    se = np.sqrt((second - (m * e0)**2) / _LAW_CYCLES)
    assert np.all(np.abs(errors.mean(axis=0) - m * e0) <= _LAW_BAND * se)
    squares = np.sum(errors**2, axis=1)
    se = squares.std(ddof=1) / np.sqrt(_LAW_CYCLES)
    assert abs(squares.mean() - np.sum(second)) <= _LAW_BAND * se


# The exact law of a whole run on the one-action ring (conftest's
# make_ring_mdp), against the real runners. There G = gamma P is the
# next-pair map and H = I - G; with e = q - Q* over the pairs, a cycle
# whose steps have the one-cycle law (m, A, C, B) maps the mean and the
# second moment S = E e e^T to
#     mean' = G mean + m H mean,
#     S' = G S G^T + m (G S H^T + H S G^T) + W o (H S H^T) + B diag(sigma^2),
# with W = A on its diagonal and C off it. A run starts at q0 = 0, so at
# e = -Q* exactly. The tables each run records are captured where the
# runner hands them to sup_distance, so the test sees the target's
# hand-off between cycles, the per-cycle step-size restart and the
# buffers a run shares, which the one-cycle test cannot. At every cycle,
# the seeds' mean |e|^2 (own standard error) and each pair's mean error
# (the law's own variance) must lie within _LAW_BAND standard errors. The
# four arms hold 33 cycles of 11 bands each; under the normal
# approximation a band's false-alarm rate is 6.8e-6, so a correct runner
# fails this test with probability at most 363 * 6.8e-6 = 2.5e-3.
_RUN_SEEDS = 400


def _run_law(mdp, q_star, periods, step_sizes):
    """The law's mean and second moment of e after each of the cycles
    ``periods`` lists, from e = -Q*."""
    n = mdp.num_active_pairs
    g = mdp.gamma * np.eye(n)[mdp.pair_next_state]
    h = np.eye(n) - g
    mean = -q_star
    s = np.outer(mean, mean)
    laws = []
    for k in periods:
        m, a, c, b = cycle_law(step_sizes.alphas(k), n)
        w = np.full((n, n), c)
        np.fill_diagonal(w, a)
        gsh = g @ s @ h.T
        s = g @ s @ g.T + m * (gsh + gsh.T) + w * (h @ s @ h.T) + b * np.diag(mdp.pair_reward_var)
        mean = g @ mean + m * (h @ mean)
        laws.append((mean, s))
    return laws


@pytest.mark.parametrize("arm, n_cycles", [("fixed-100", 12), ("fixed-1000", 5),
                                           ("geometric-50", 10), ("adaptive-300", 6)],
                         ids=["fixed-100", "fixed-1000", "geometric-50", "adaptive-300"])
def test_whole_run_matches_exact_law(monkeypatch, arm, n_cycles):
    mdp = make_ring_mdp()
    step_sizes = tq.TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
    oracle = tq.value_iteration_oracle(mdp)
    q_star = oracle.take(mdp.pair_flat)
    schedule = {"fixed-100": tq.FixedPeriod(100), "fixed-1000": tq.FixedPeriod(1000),
                "geometric-50": tq.GeometricPeriod(50, 0.9),
                "adaptive-300": tq.AccuracyTriggered(300, 300)}[arm]
    recorded = []
    sup_distance = tq.learner.sup_distance

    def capture(tables, oracle, mdp):
        # a copy: the run refills its stack
        recorded.append(tables.reshape(len(tables), -1).take(mdp.pair_flat, axis=1) - q_star)
        return sup_distance(tables, oracle, mdp)

    monkeypatch.setattr(tq.learner, "sup_distance", capture)
    for seed in range(_RUN_SEEDS):
        trace = tq.harness.run_one(schedule, step_sizes, mdp, seed, arm, oracle=oracle,
                                   n_cycles=n_cycles)
    periods = [record.inner_steps for record in trace.records[1:]]
    if arm == "adaptive-300":
        assert periods == [300] * n_cycles
    else:
        assert periods == [schedule.period(n) for n in range(n_cycles)]
    errors = np.array(recorded)[:, 1:]  # (seed, cycle, pair), from the first cycle on
    for cycle, (mean, s) in enumerate(_run_law(mdp, q_star, periods, step_sizes)):
        squares = np.sum(errors[:, cycle]**2, axis=1)
        se = squares.std(ddof=1) / np.sqrt(_RUN_SEEDS)
        assert abs(squares.mean() - np.trace(s)) <= _LAW_BAND * se, cycle
        se = np.sqrt((np.diag(s) - mean**2) / _RUN_SEEDS)
        assert np.all(np.abs(errors[:, cycle].mean(axis=0) - mean) <= _LAW_BAND * se), cycle
