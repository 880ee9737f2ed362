import hashlib
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

import targetq as tq
from targetq.errors import DomainError, ScheduleOverflowError


@pytest.fixture(scope="module")
def constants07(grid07, oracle07):
    return tq.compute_constants(grid07, 1.0 / 52.0, oracle07)


# ---------------------------------------------------------------------------
# Rate constants


def test_compute_constants_benchmark_values(constants07):
    c = constants07
    assert c.sigma_sq == pytest.approx(4.2025, abs=1e-12)
    assert c.q_star_sup == pytest.approx(3.0, abs=1e-9)
    assert c.n_pairs == 52
    assert c.mu == pytest.approx(0.85)


def test_constants_match_exact_rational_evaluation(constants07):
    # re-evaluate both constants in exact rational arithmetic
    xi = Fraction(1, 52)
    gamma = Fraction(7, 10)
    c1 = (2 / xi + 1) * 52 * (1 + gamma) ** 2 + (16 / xi**2 + 8 / xi) * gamma**2
    sup = Fraction(3)
    sig = Fraction(42025, 10000)
    c2 = (8 / xi**2 + 4 / xi) * (sig + 2 * gamma**2 * sup**2)
    assert constants07.c1 == pytest.approx(float(c1), rel=1e-12)
    assert constants07.c2 == pytest.approx(float(c2), rel=1e-12)


def test_rate_constants_refuse_no_pairs():
    with pytest.raises(DomainError, match=r"^n_pairs must lie in \[1, inf\), got 0$"):
        tq.RateConstants(xi=0.5, sigma_sq=1.0, q_star_sup=1.0, gamma=0.9, n_pairs=0)


@pytest.mark.parametrize("xi", [0.0, 5e-324, 1.5, math.nan])
def test_xi_has_one_rule(xi):
    # rate constants and theory step sizes refuse a bad xi alike: outside
    # (0, 1] by the range rule, and at 5e-324, where s = 2/xi overflows
    rule = "(0, 1] with 2/xi finite" if xi == 5e-324 else "(0, 1]"
    message = f"^{re.escape(f'xi must lie in {rule}, got {xi}')}$"
    with pytest.raises(DomainError, match=message):
        tq.RateConstants(xi=xi, sigma_sq=1.0, q_star_sup=1.0, gamma=0.9, n_pairs=4)
    with pytest.raises(DomainError, match=message):
        tq.TheoryInverseStepSize(xi)


def test_mu_direct_substitution():
    c = tq.RateConstants(xi=0.5, sigma_sq=1.0, q_star_sup=1.0, gamma=0.9, n_pairs=4)
    assert c.mu == pytest.approx(0.95)


def test_rate_constants_validation(grid07):
    good = dict(xi=0.5, sigma_sq=1.0, q_star_sup=1.0, gamma=0.5, n_pairs=4)
    for bad in (dict(xi=0.0), dict(sigma_sq=-1.0), dict(gamma=1.0),
                dict(q_star_sup=math.nan), dict(q_star_sup=-1.0), dict(q_star_sup=math.inf),
                dict(sigma_sq=math.inf), dict(sigma_sq=math.nan),
                # finite inputs whose c1 or c2 is not finite (1e-200**2 underflows to 0)
                dict(q_star_sup=1e200), dict(sigma_sq=1e308), dict(xi=1e-200)):
        with pytest.raises(DomainError) as info:
            tq.RateConstants(**{**good, **bad})
        (value,) = bad.values()
        assert str(value) in str(info.value)  # each refusal names the value
    # a finite table whose sup is past sqrt(max float)
    huge = np.full((grid07.num_states, grid07.num_actions), 1e308)
    with pytest.raises(DomainError, match="not finite"):
        tq.compute_constants(grid07, 1.0 / 52.0, huge)


def test_k_min_formula(constants07):
    c = constants07
    assert c.k_min == pytest.approx(c.c1 / (c.mu - c.gamma) ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# Step sizes


def test_theory_inverse_exact_values():
    for steps in (
        tq.TheoryInverseStepSize.from_pair_count(52),
        tq.TheoryInverseStepSize(1.0 / 52.0),
    ):
        assert steps.alphas(1, start=0)[0] == 1.0
        assert steps.alphas(1, start=104)[0] == 0.5
        assert steps.alphas(1, start=208)[0] == 1.0 / 3.0


def test_theory_from_pair_count_refuses_bad_counts():
    for bad, message in ((0, "n_pairs must lie in [1, inf), got 0"),
                         (-3, "n_pairs must lie in [1, inf), got -3"),
                         (2.5, "n_pairs must be an integer, got 2.5")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            tq.TheoryInverseStepSize.from_pair_count(bad)
    assert tq.TheoryInverseStepSize.from_pair_count(np.int64(1)).xi == 1.0


def test_theory_inverse_shape():
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    ks = np.arange(0, 500)
    alphas = steps.alphas(500)
    assert np.array_equal(alphas, steps.s / (ks + steps.s))
    assert np.all(np.diff(alphas) < 0)
    assert np.all((alphas > 0) & (alphas <= 1))
    # the published form for 52 pairs
    assert alphas[104] == pytest.approx(1.0 / (1.0 + 104 / 104.0), rel=1e-15)
    assert steps.alphas(3, start=10).tolist() == [steps.s / (k + steps.s) for k in (10, 11, 12)]


def test_constant_step_size():
    assert tq.ConstantStepSize(0.25).alphas(1, start=99)[0] == 0.25
    with pytest.raises(DomainError):
        tq.ConstantStepSize(0.0)
    with pytest.raises(DomainError):
        tq.ConstantStepSize(1.5)


def test_custom_step_size():
    steps = tq.CustomStepSize(lambda k: 1.0 / (k + 1))
    assert steps.alphas(1, start=3)[0] == 0.25
    assert steps.alphas(3).tolist() == [1.0, 0.5, 1.0 / 3.0]


# ---------------------------------------------------------------------------
# Geometric periods


def test_geometric_period_values():
    sched = tq.GeometricPeriod(1000, 0.7)
    assert sched.period(0) == 1000
    assert sched.period(3) == 2041  # ceil(1000 / 0.49)
    ks = [sched.period(n) for n in range(101)]
    assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_geometric_period_exact_product_snap():
    # 0.512**(-2/3) is exactly 1.5625; no spurious ceil to 101
    assert tq.GeometricPeriod(64, 0.512).period(1) == 100


def test_geometric_period_degenerate_ratio():
    ks = [tq.GeometricPeriod(1000, 1.0 - 1e-15).period(n) for n in range(50)]
    assert ks == [1000] * 50


def test_geometric_period_overflow():
    # at n = 1000, gamma ** (-2n/3) itself overflows a float, and reads inf
    for k0, gamma, n, shown in ((10**6, 0.01, 50, "4.641588833612826e+72"),
                                (10, 0.01, 1000, "inf")):
        with pytest.raises(ScheduleOverflowError) as info:
            tq.GeometricPeriod(k0, gamma).period(n)
        assert str(info.value) == (
            f"period for k0={k0}, gamma={gamma}, n={n} must lie below 2**53, got {shown}")


def test_geometric_period_domain():
    with pytest.raises(DomainError):
        tq.GeometricPeriod(0, 0.7)
    with pytest.raises(DomainError):
        tq.GeometricPeriod(10, 1.0)
    with pytest.raises(DomainError):
        tq.GeometricPeriod(10, 0.7).period(-1)


_PERIOD_SCHEDULES = {"fixed": tq.FixedPeriod(5), "geometric": tq.GeometricPeriod(5, 0.7),
                     "explicit": tq.ExplicitPeriod((5, 7))}


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in sorted(_PERIOD_SCHEDULES) for n in (-1, 2.5, np.float64(1.0))]
    + [("explicit", 2)],  # the explicit schedule's length
)
def test_period_takes_a_cycle_index_by_one_rule(name, n):
    schedule = _PERIOD_SCHEDULES[name]
    with pytest.raises(DomainError) as info:
        schedule.period(n)
    assert type(info.value) is DomainError and "cycle index" in str(info.value)
    assert schedule.period(0) == 5
    assert schedule.period(np.int64(1)) == (5 if name == "fixed" else 7)


# ---------------------------------------------------------------------------
# Unrolled bound


def test_unroll_error_bound_edges(constants07):
    c = constants07
    out = tq.unroll_error_bound(3.0, [], c)
    assert out.bound == 3.0 and out.per_cycle == (3.0,)
    one = tq.unroll_error_bound(3.0, [1000], c)
    assert one.bound == pytest.approx(c.mu * 3.0 + math.sqrt(c.c2 / 1000))
    assert one.per_cycle[0] == 3.0
    with pytest.raises(DomainError):
        tq.unroll_error_bound(3.0, [0], c)
    with pytest.raises(DomainError):
        tq.unroll_error_bound(-1.0, [10], c)


# ---------------------------------------------------------------------------
# Designers


@pytest.mark.filterwarnings("error")
def test_design_fixed_single_contraction(constants07):
    e0 = 3.0
    eps = 2.0 * e0 * constants07.mu
    out = tq.design_fixed_period(eps, e0, constants07)
    assert not out.within_validity
    assert out.n_cycles == 1
    assert len(out.periods) == 1


def test_design_fixed_bound_and_cost(constants07):
    out = tq.design_fixed_period(0.1, 3.0, constants07)
    assert out.predicted_error_bound <= 0.1
    assert tq.unroll_error_bound(3.0, out.periods, constants07).bound <= 0.1
    assert out.predicted_cost == out.n_cycles * out.periods[0]
    assert out.predicted_cost == sum(out.periods)
    assert len(set(out.periods)) == 1
    assert out.within_validity


@pytest.mark.filterwarnings("error")
def test_design_degenerate_reported(constants07):
    # the flags are the only report: no warning is raised
    # eps >= 2 e0 needs no periods, even where eps**2 underflows to 0
    for designer in (tq.design_fixed_period, tq.design_growing_period):
        for eps, e0 in ((10.0, 3.0), (1e-200, 1e-201)):
            out = designer(eps, e0, constants07)
            assert out.degenerate and out.n_cycles == 0
            assert out.periods == ()
            assert out.predicted_error_bound == e0
            assert out.within_validity


@pytest.mark.filterwarnings("error")
def test_design_validity_flag():
    mdp = tq.build_gridworld(0.9)
    c = tq.compute_constants(mdp, 1.0 / 52.0, tq.value_iteration_oracle(mdp))
    out = tq.design_fixed_period(0.5, 3.0, c)
    assert not out.within_validity and not out.degenerate
    # sufficient condition violated, yet the design still clears k_min here
    assert min(out.periods) >= c.k_min


def test_design_growing_ratio_and_closed_form(constants07):
    out = tq.design_growing_period(0.05, 3.0, constants07)
    mu = constants07.mu
    raw = out.raw_periods
    ratios = [b / a for a, b in zip(raw, raw[1:])]
    assert ratios == pytest.approx([mu ** (-2.0 / 3.0)] * len(ratios), rel=1e-12)
    closed = (0.05 / (2.0 * math.sqrt(constants07.c2))) ** -2 * (
        (1.0 - mu ** (2.0 * out.n_cycles / 3.0)) / (1.0 - mu ** (2.0 / 3.0))
    ) ** 3
    assert sum(raw) == pytest.approx(closed, rel=1e-9)
    assert 0.0 <= out.predicted_cost - sum(raw) <= out.n_cycles
    assert all(b >= a for a, b in zip(out.periods, out.periods[1:]))


def test_design_growing_cheaper_and_feasible(constants07):
    for eps in (0.5, 0.1, 0.05):
        fixed = tq.design_fixed_period(eps, 3.0, constants07)
        growing = tq.design_growing_period(eps, 3.0, constants07)
        assert growing.predicted_cost <= fixed.predicted_cost
        assert growing.predicted_error_bound <= eps
        assert tq.unroll_error_bound(3.0, growing.periods, constants07).bound <= eps
        assert growing.n_cycles == fixed.n_cycles
        for out in (fixed, growing):
            assert out.within_validity
            assert min(out.periods) >= constants07.k_min


@pytest.mark.filterwarnings("error")
def test_design_clamps_to_k_min():
    # zero-noise constants make the raw periods collapse to zero
    c = tq.RateConstants(xi=0.5, sigma_sq=0.0, q_star_sup=0.0, gamma=0.5, n_pairs=4)
    assert c.c2 == 0.0
    out = tq.design_growing_period(0.1, 1.0, c)
    assert out.n_cycles >= 1
    assert all(k >= c.k_min for k in out.periods)
    assert all(k >= 1 for k in out.periods)
    assert out.predicted_error_bound <= 0.1


def test_design_input_validation(constants07):
    for designer in (tq.design_fixed_period, tq.design_growing_period):
        for eps, e0 in ((-0.1, 3.0), (0.1, 0.0), (math.nan, 3.0), (math.inf, 3.0),
                        (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(DomainError):
                designer(eps, e0, constants07)
        # eps^2 underflows to zero (C is inf), or the periods pass 2^53
        for eps in (1e-300, 1e-150):
            with pytest.raises(ScheduleOverflowError):
                designer(eps, 3.0, constants07)
        # eps / (2 e0) underflows: the inputs are refused before any period is sized
        with pytest.raises(DomainError) as info:
            designer(1e-300, 1e308, constants07)
        assert type(info.value) is DomainError


@pytest.mark.parametrize("designer", [tq.design_fixed_period, tq.design_growing_period])
@pytest.mark.parametrize("gamma", [0.9999999, 1 - 2**-52, 1 - 2**-53])
def test_hopeless_design_fails_before_building_periods(designer, gamma):
    # k_min is past 2**53 at each of these gammas, where N is about 8e7, 1e17
    # and (mu rounds to 1) unbounded: the design fails at once
    c = tq.RateConstants(xi=1.0 / 52.0, sigma_sq=4.2025, q_star_sup=3.0, gamma=gamma, n_pairs=52)
    assert c.k_min >= 2**53
    with pytest.raises(ScheduleOverflowError) as info:
        designer(0.1, 3.0, c)
    message = "the largest designed period for eps=0.1, e0=3.0 must lie below 2**53, got "
    assert str(info.value).startswith(message)
    assert float(str(info.value)[len(message):]) >= max(c.k_min, 2**53)
    # a design whose initial error already meets the target still returns
    assert designer(6.0, 3.0, c).degenerate


@pytest.mark.parametrize("designer", [tq.design_fixed_period, tq.design_growing_period])
def test_zero_noise_design_with_a_huge_cycle_count_fails_at_once(designer):
    # c2 = 0 makes every raw period 0 and every period ceil(k_min), below
    # 2**53; N is about 6.9e9, so the cost, at least N k_min, is past 2**53
    # and the design fails before building any of its N periods
    c = tq.RateConstants(xi=1.0, sigma_sq=0.0, q_star_sup=0.0, gamma=1 - 2e-7, n_pairs=1)
    assert c.c2 == 0.0 and 3e15 < c.k_min < 2**53
    started = time.perf_counter()
    with pytest.raises(ScheduleOverflowError) as info:
        designer(1e-150, 1e150, c)
    assert time.perf_counter() - started < 1.0
    assert str(info.value) == ("designed cost for eps=1e-150, e0=1e+150, at least N k_min = "
                               "6914686401 * 3.5999988e+15, must lie below 2**53, "
                               "got 2.4892862772182075e+25")


# SHA-256 over repr of both designers' outputs on a small grid. The design
# tests above compare with approx; this one sees a one-ulp drift in any
# period, raw period or bound. Update it only with a stated design change
_PINNED_DESIGNS = "fb24efe2546cb0361d8f4c03bc24ecec0cf1acd92c49b812a33d35caee409497"


def test_design_outputs_bit_identical():
    outs = []
    for gamma in (0.7, 0.9):
        c = tq.RateConstants(xi=1.0 / 52.0, sigma_sq=4.2025, q_star_sup=3.0, gamma=gamma,
                             n_pairs=52)
        for e0 in (1.0, 3.0):
            for eps in (2.0 * e0 * c.mu, 0.5, 0.1, 0.05, 0.01):
                outs += [tq.design_fixed_period(eps, e0, c), tq.design_growing_period(eps, e0, c)]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == _PINNED_DESIGNS


# ---------------------------------------------------------------------------
# Summability: the unrolled bound vanishes only when sum_n 1/sqrt(K_n) converges


def test_summability_fixed_divergent(constants07):
    # fixed periods add the same noise term every cycle, so the bound
    # settles at sqrt(c2 / K) / (1 - mu) instead of falling to zero
    c = constants07
    sched = tq.FixedPeriod(400)
    ks = [sched.period(n) for n in range(100)]
    floor = math.sqrt(c.c2 / 400) / (1.0 - c.mu)
    steady = tq.unroll_error_bound(floor, ks, c)
    assert steady.per_cycle == pytest.approx([floor] * 101, rel=1e-12)
    rising = tq.unroll_error_bound(0.0, ks, c)
    assert all(a < b <= floor for a, b in zip(rising.per_cycle, rising.per_cycle[1:]))
    assert rising.bound == pytest.approx((1.0 - c.mu**100) * floor, rel=1e-9)


def test_summability_geometric_convergent(constants07):
    # K_n >= k0 gamma^(-2n/3), so the noise terms shrink by gamma^(1/3) a
    # cycle and the bound is at most the geometric sum they give
    c, k0, gamma, horizon = constants07, 1000, 0.7, 100
    sched = tq.GeometricPeriod(k0, gamma)
    out = tq.unroll_error_bound(3.0, [sched.period(n) for n in range(horizon)], c)
    g13 = gamma ** (1.0 / 3.0)
    cap = c.mu**horizon * 3.0 + sum(
        c.mu ** (horizon - 1 - n) * math.sqrt(c.c2 / k0) * g13**n for n in range(horizon)
    )
    assert out.bound <= cap
    peak = int(np.argmax(out.per_cycle))
    assert all(a > b for a, b in zip(out.per_cycle[peak:], out.per_cycle[peak + 1:]))
    assert out.bound < 1e-2


def test_summability_custom_polynomial(constants07):
    # K_n = n^4: noise terms sqrt(c2) / n^2 are summable, and the bound
    # falls about as 1/n^2 once the first cycles' error has contracted
    periods = tuple(n**4 for n in range(1, 200))
    sched = tq.ExplicitPeriod(periods)
    out = tq.unroll_error_bound(3.0, [sched.period(n) for n in range(sched.n_cycles)],
                                constants07)
    tail = out.per_cycle[20:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert out.bound < out.per_cycle[100] / 3.0


def test_summability_domain(constants07):
    for e0 in (-1.0, math.nan):
        with pytest.raises(DomainError):
            tq.unroll_error_bound(e0, [10], constants07)
    with pytest.raises(DomainError):
        tq.unroll_error_bound(3.0, [10, 0], constants07)


# ---------------------------------------------------------------------------
# Schedule type validation


def test_schedule_validation():
    # the exact-integer limit of geometric and designed periods holds for
    # fixed and explicit ones too
    for k in (2**53, 2**63 - 1, 10**23):
        message = f"^{re.escape(f'period must lie below 2**53, got {k}')}$"
        with pytest.raises(ScheduleOverflowError, match=message):
            tq.FixedPeriod(k)
        with pytest.raises(ScheduleOverflowError, match=message):
            tq.ExplicitPeriod((5, k))
    assert tq.FixedPeriod(2**53 - 1).period(0) == 2**53 - 1
    with pytest.raises(DomainError):
        tq.AccuracyTriggered(10, 5)
    sched = tq.AccuracyTriggered(10, 100)
    assert sched.threshold(1) == 1.0
    assert sched.threshold(2) == 0.25
    custom = tq.AccuracyTriggered(10, 100, accuracy=lambda n: 0.0)
    assert custom.threshold(5) == 0.0
    # a NaN threshold would let every cycle run silently to k_max
    for eps in (-1.0, math.nan):
        message = f"accuracy threshold must lie in [0, inf], got {eps}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            tq.AccuracyTriggered(10, 100, accuracy=lambda n: eps).threshold(1)


# Every entry point that takes a period, a run's or one the error bound
# unrolls, and one bad value of each kind: each must fail with the same type
# and the same message
_PERIOD_TAKERS = {
    "FixedPeriod": lambda k, run: tq.FixedPeriod(k),
    "ExplicitPeriod": lambda k, run: tq.ExplicitPeriod((5, k)),
    "GeometricPeriod-k0": lambda k, run: tq.GeometricPeriod(k, 0.7),
    "AccuracyTriggered-k_min": lambda k, run: tq.AccuracyTriggered(k, 2**53 - 1),
    "AccuracyTriggered-k_max": lambda k, run: tq.AccuracyTriggered(1, k),
    "run_inner_loop-n_steps": lambda k, run: run(k),
    "unroll_error_bound": lambda k, run: tq.unroll_error_bound(3.0, [10, k], tq.RateConstants(
        xi=0.5, sigma_sq=1.0, q_star_sup=1.0, gamma=0.5, n_pairs=4)),
}
_BAD_PERIODS = [
    pytest.param(0, DomainError, "period must lie in [1, inf), got 0", id="0"),
    pytest.param(-3, DomainError, "period must lie in [1, inf), got -3", id="-3"),
    pytest.param(2.5, DomainError, "period must be an integer, got 2.5", id="2.5"),
    pytest.param(math.nan, DomainError, "period must be an integer, got nan", id="nan"),
    pytest.param(np.float64(3.0), DomainError,
                 f"period must be an integer, got {np.float64(3.0)!r}", id="float64-3"),
    pytest.param(2**53, ScheduleOverflowError,
                 "period must lie below 2**53, got 9007199254740992", id="2**53"),
    # written as a float would be: str() refuses an int of over 4300 digits
    pytest.param(10**5000, ScheduleOverflowError,
                 "period must lie below 2**53, got 1.0000000000000000e+5000", id="10**5000"),
]


@pytest.mark.parametrize("value, error, message", _BAD_PERIODS)
@pytest.mark.parametrize("entry", _PERIOD_TAKERS)
def test_period_rule_is_the_same_everywhere(grid07, theory_steps, entry, value, error, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    run = lambda k: tq.run_inner_loop(tq.new_q_table(grid07), k, theory_steps, grid07, rng)
    with pytest.raises(error) as info:
        _PERIOD_TAKERS[entry](value, run)
    assert type(info.value) is error and str(info.value) == message
    assert rng.bit_generator.state == state  # refused before anything is drawn


def test_schedule_periods_accept_numpy_integers(grid07, theory_steps):
    assert type(tq.FixedPeriod(np.int64(3)).period(0)) is int
    assert tq.ExplicitPeriod([np.int32(2), 3]).ks == (2, 3)
    assert tq.GeometricPeriod(np.int64(3), 0.7).period(0) == 3
    sched = tq.AccuracyTriggered(np.int64(2), np.uint16(3))
    assert (type(sched.k_min), type(sched.k_max)) == (int, int)
    q = tq.run_inner_loop(tq.new_q_table(grid07), np.int64(5), theory_steps, grid07,
                          np.random.default_rng(0))
    assert q.shape == (grid07.num_states, grid07.num_actions)
