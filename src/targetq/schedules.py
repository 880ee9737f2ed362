"""Target-update schedules, step-size schedules, rate constants, and the
closed-form designer for sample-optimal update periods.

Terminology: the *update period* K_n of cycle n is the number of inner SGD
steps performed against the frozen target before it is overwritten. "Fixed"
schedules keep K constant; "geometric" schedules grow it by gamma^(-2/3)
per cycle; "designed" schedules come out of the designer below, which picks
the cycle count and periods so a prescribed error bound is met at minimal
predicted sample cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ScheduleOverflowError
from .mdp import TabularMdp, _as_int, _check_table

# Largest float with exact integer neighbors; schedule entries past this
# cannot be ceiled exactly.
_EXACT_INT_LIMIT = float(2**53)


# ---------------------------------------------------------------------------
# Rate constants


@dataclass(frozen=True)
class RateConstants:
    """Constants of the inner-loop mean-squared-error bound
    (c1 * dist^2 + c2) / (k + s) and the effective outer contraction mu.

    xi is the per-step lower bound on the probability of sampling any
    active pair under i.i.d. uniform sampling, the only sampling the library
    runs (xi = 1/n_pairs there); sigma_sq bounds all reward variances;
    q_star_sup is the sup norm of the fixed point; n_pairs the active pair
    count. Inputs that are not finite, or whose constants overflow, raise
    ``DomainError``.
    """

    xi: float
    sigma_sq: float
    q_star_sup: float
    gamma: float
    n_pairs: int
    c1: float = field(init=False)
    c2: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise DomainError(f"xi must lie in (0, 1], got {self.xi}")
        if not 0.0 <= self.sigma_sq < math.inf:
            raise DomainError(f"sigma_sq must be finite and nonnegative, got {self.sigma_sq}")
        if not 0.0 <= self.q_star_sup < math.inf:
            raise DomainError(f"q_star_sup must be finite and nonnegative, got {self.q_star_sup}")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must lie in [0, 1)")
        object.__setattr__(self, "n_pairs", _as_int(self.n_pairs, "n_pairs"))
        if self.n_pairs < 1:
            raise DomainError("n_pairs must be positive")
        xi, gamma = self.xi, self.gamma
        try:
            c1 = (2.0 / xi + 1.0) * self.n_pairs * (1.0 + gamma) ** 2 + (
                16.0 / xi**2 + 8.0 / xi
            ) * gamma**2
            c2 = (8.0 / xi**2 + 4.0 / xi) * (self.sigma_sq + 2.0 * gamma**2 * self.q_star_sup**2)
        except (OverflowError, ZeroDivisionError):
            # a float ** that overflows raises, and xi**2 can underflow to 0
            c1 = c2 = math.inf
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise DomainError(f"rate constants c1, c2 are not finite for xi={xi}, "
                              f"sigma_sq={self.sigma_sq}, q_star_sup={self.q_star_sup}")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "mu", (1.0 + gamma) / 2.0)

    @property
    def k_min(self) -> float:
        """Smallest period for which one cycle still contracts by mu."""
        return self.c1 / (self.mu - self.gamma) ** 2


def compute_constants(mdp: TabularMdp, xi: float, q_star: np.ndarray) -> RateConstants:
    """Rate constants for an environment: sigma_sq is the worst reward
    variance over active pairs, q_star_sup the sup norm of the supplied
    fixed point over active pairs."""
    sup = float(np.abs(_check_table(q_star, mdp)).max())
    return RateConstants(
        xi=float(xi),
        sigma_sq=float(np.max(mdp.pair_reward_var)),
        q_star_sup=sup,
        gamma=mdp.gamma,
        n_pairs=mdp.num_active_pairs,
    )


# ---------------------------------------------------------------------------
# Step-size schedules: any object whose ``alphas(count, start)`` returns
# alpha(start), ..., alpha(start + count - 1). Runs ask for the sequence in
# any split, so each value is computed from its own index alone.


@dataclass(frozen=True)
class TheoryInverseStepSize:
    """alpha(k) = 2 / (xi * (k + s)) with s = 2/xi, i.e. s / (k + s).

    Restarts from alpha(0) = 1 at every cycle. The ``s/(k+s)`` form keeps
    alpha(0) exactly 1.0 in floating point.
    """

    xi: float

    def __post_init__(self):
        # a tiny xi makes s = 2/xi overflow and every step size NaN
        if not (0.0 < self.xi <= 1.0 and math.isfinite(2.0 / float(self.xi))):
            raise DomainError(f"xi must lie in (0, 1] with 2/xi finite, got {self.xi}")

    @classmethod
    def from_pair_count(cls, n_pairs: int) -> "TheoryInverseStepSize":
        """Step sizes for uniform exploration over ``n_pairs`` >= 1 pairs."""
        n_pairs = _as_int(n_pairs, "n_pairs")
        if n_pairs < 1:
            raise DomainError(f"n_pairs must be at least 1, got {n_pairs}")
        return cls(xi=1.0 / n_pairs)

    @property
    def s(self) -> float:
        return 2.0 / self.xi

    def alphas(self, count: int, start: int = 0) -> np.ndarray:
        s = self.s
        return s / (np.arange(start, start + count) + s)


@dataclass(frozen=True)
class ConstantStepSize:
    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise DomainError("step size must lie in (0, 1]")

    def alphas(self, count: int, start: int = 0) -> np.ndarray:
        return np.full(count, self.value)


@dataclass(frozen=True)
class CustomStepSize:
    fn: Callable[[int], float]

    def alphas(self, count: int, start: int = 0) -> np.ndarray:
        return np.array([float(self.fn(k)) for k in range(start, start + count)])


# ---------------------------------------------------------------------------
# Target-update schedules


def _ceil_guarded(x: float) -> int:
    """Ceiling with a snap to the nearest integer for float dust.

    Values within 1e-12 relative of an integer (window capped at 1/4) are
    treated as that integer, so exact products like 64 * 0.512**(-2/3) and
    ratios degenerating to 1 do not ceil one too high.
    """
    r = round(x)
    window = min(0.25, max(32.0 * np.spacing(abs(x)), 1e-12 * max(1.0, abs(x))))
    if abs(x - r) <= window:
        return int(r)
    return math.ceil(x)


def _period(k) -> int:
    """``k`` as a period a run can take: an integer from 1 up to the
    exact-integer limit that geometric and designed periods keep to."""
    k = _as_int(k, "period")
    if k < 1:
        raise DomainError("period must be at least 1")
    if k >= _EXACT_INT_LIMIT:
        raise ScheduleOverflowError(f"period {k} exceeds the exact-integer range (2**53)")
    return k


def _cycle_index(n, n_cycles: int | None) -> int:
    """``n`` as the index of a cycle a schedule has: an integer from 0, and
    below ``n_cycles`` when the schedule is finite. Every ``period(n)``
    takes its index through here."""
    n = _as_int(n, "cycle index")
    if n < 0:
        raise DomainError(f"cycle index must be nonnegative, got {n}")
    if n_cycles is not None and n >= n_cycles:
        raise DomainError(f"cycle index {n} is past the schedule's {n_cycles} cycles")
    return n


@dataclass(frozen=True)
class FixedPeriod:
    """Constant update period."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _period(self.k))

    n_cycles: int | None = field(default=None, init=False)

    def period(self, n: int) -> int:
        _cycle_index(n, self.n_cycles)
        return self.k


@dataclass(frozen=True)
class GeometricPeriod:
    """Update period growing as ceil(k0 * gamma^(-2n/3))."""

    k0: int
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "k0", _period(self.k0))
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("gamma must lie in (0, 1)")

    n_cycles: int | None = field(default=None, init=False)

    def period(self, n: int) -> int:
        n = _cycle_index(n, self.n_cycles)
        try:
            x = self.k0 * self.gamma ** (-(2.0 * n) / 3.0)
        except OverflowError:  # a float ** that overflows raises
            x = math.inf
        if not math.isfinite(x) or x >= _EXACT_INT_LIMIT:
            raise ScheduleOverflowError(
                f"period k0={self.k0}, gamma={self.gamma}, n={n} exceeds the exact-integer range"
            )
        return _ceil_guarded(x)


@dataclass(frozen=True)
class ExplicitPeriod:
    """A finite list of update periods (custom or designer output)."""

    ks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(_period(k) for k in self.ks))

    @property
    def n_cycles(self) -> int:
        return len(self.ks)

    def period(self, n: int) -> int:
        return self.ks[_cycle_index(n, self.n_cycles)]


@dataclass(frozen=True)
class AccuracyTriggered:
    """Adaptive inner-loop length: stop between k_min and k_max once the
    mean absolute TD-error statistic falls below the cycle's threshold.

    ``accuracy`` maps the 1-based cycle index to its threshold; the default
    is n^-2 (summable, so outer contraction dominates).
    """

    k_min: int
    k_max: int
    accuracy: Callable[[int], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "k_min", _period(self.k_min))
        object.__setattr__(self, "k_max", _period(self.k_max))
        if self.k_min > self.k_max:
            raise DomainError("need k_min <= k_max")

    def threshold(self, n: int) -> float:
        """Threshold for 1-based cycle index n."""
        if self.accuracy is None:
            return 1.0 / (n * n)
        eps = float(self.accuracy(n))
        if not eps >= 0.0:  # NaN fails too
            raise DomainError(f"accuracy thresholds must be nonnegative, got {eps}")
        return eps


TufSchedule = FixedPeriod | GeometricPeriod | ExplicitPeriod | AccuracyTriggered


@dataclass(frozen=True)
class UnrollResult:
    """Deterministic evaluation of the per-cycle error recursion
    e_{n+1} = mu * e_n + sqrt(c2 / K_n)."""

    bound: float
    per_cycle: tuple[float, ...]


def unroll_error_bound(
    e0: float, periods: Sequence[int], constants: RateConstants
) -> UnrollResult:
    """Unroll the error recursion from e0 across the given periods."""
    if not e0 >= 0.0:  # NaN fails too
        raise DomainError("e0 must be nonnegative")
    seq = [float(e0)]
    e = float(e0)
    for k in periods:
        if k < 1:
            raise DomainError("all periods must be at least 1")
        e = constants.mu * e + math.sqrt(constants.c2 / k)
        seq.append(e)
    return UnrollResult(bound=seq[-1], per_cycle=tuple(seq))


# ---------------------------------------------------------------------------
# Designer


@dataclass(frozen=True)
class DesignOutput:
    """A designed schedule plus its predicted cost and error bound.

    ``raw_periods`` are the real-valued periods from the closed form,
    before clamping to k_min and ceiling; ``periods`` are the integers a
    run actually uses. ``predicted_error_bound`` is the unrolled recursion
    on the integer periods and never exceeds the target accuracy. The two
    flags are the design's only report of its special cases:
    ``degenerate`` when the initial error already meets the target (no
    cycles), and ``within_validity`` False when the target accuracy lies
    outside the family's guaranteed regime.
    """

    family: str
    target_accuracy: float
    initial_error: float
    n_cycles: int
    periods: tuple[int, ...]
    raw_periods: tuple[float, ...]
    predicted_cost: int
    predicted_error_bound: float
    within_validity: bool
    degenerate: bool


def _design(family, eps, e0, constants, q, rho, within_validity) -> DesignOutput:
    """Both designs: N cycles (a log ratio within 1e-9 of an integer counts as
    it) of raw periods C * rho^(N-1-j), C = (4 c2 / eps^2) ((1 - q^N) / (1 - q))^2,
    clamped to k_min and ceiled; none, within validity, when eps >= 2 e0.
    A design whose periods or cost would pass 2^53 fails before any period
    is built."""
    raw = ()
    k_min = constants.k_min
    if eps >= 2.0 * e0:
        within_validity = True
    else:
        # mu rounds to 1 only at gamma = 1 - 2**-53, where N and C are unbounded
        n = c = math.inf
        if constants.mu < 1.0:
            x = math.log(eps / (2.0 * e0)) / math.log(constants.mu)
            r = round(x)
            n = max(int(r) if abs(x - r) <= 1e-9 * max(1.0, abs(x)) else math.ceil(x), 0)
            c = (4.0 * constants.c2 / eps**2) * ((1.0 - q**n) / (1.0 - q)) ** 2
        # rho <= 1, so the largest period is ceil(max(C, k_min)); every
        # period is at least k_min, so the cost is at least N k_min
        if n and not max(c, k_min) < _EXACT_INT_LIMIT:
            raise ScheduleOverflowError(
                f"designed periods for eps={eps}, e0={e0} exceed the exact-integer range"
            )
        if n and not n * k_min < _EXACT_INT_LIMIT:
            raise ScheduleOverflowError(
                f"designed cost for eps={eps}, e0={e0}, at least N k_min = {n} * {k_min:.8g}, "
                "exceeds the exact-integer range")
        raw = tuple(c * rho ** float(n - 1 - j) for j in range(n))
    # plain ceiling: designed periods never land on intended integers, and
    # ceiling keeps every integer period >= its real-valued design value
    periods = tuple(max(math.ceil(max(k, k_min)), 1) for k in raw)
    return DesignOutput(
        family=family,
        target_accuracy=eps,
        initial_error=e0,
        n_cycles=len(periods),
        periods=periods,
        raw_periods=raw,
        predicted_cost=sum(periods),
        predicted_error_bound=unroll_error_bound(e0, periods, constants).bound if periods else e0,
        within_validity=within_validity,
        degenerate=not periods,
    )


def _check_design_inputs(eps: float, e0: float) -> None:
    if not 0.0 < eps < math.inf:
        raise DomainError(f"target accuracy must be positive and finite, got {eps}")
    if not 0.0 < e0 < math.inf:
        raise DomainError(f"initial error must be positive and finite, got {e0}")
    if eps**2 == 0.0:
        # every designed period scales with 1 / eps^2
        raise ScheduleOverflowError(f"target accuracy {eps} is too small: its periods overflow")
    if not eps / (2.0 * e0) > 0.0:
        # the cycle count is log(eps / 2 e0) / log(mu); 2 e0 overflowed or
        # the ratio underflowed
        raise DomainError(
            f"initial error {e0} is too large for target accuracy {eps}: "
            "eps / (2 e0) is not representable"
        )


def design_fixed_period(eps: float, e0: float, constants: RateConstants) -> DesignOutput:
    """Smallest-cost constant-period design meeting the accuracy target.

    N = ceil(log(eps / 2 e0) / log(mu)) cycles with uniform period
    K = (4 c2 / eps^2) * ((1 - mu^N) / (1 - mu))^2, clamped to k_min and
    ceiled. The guaranteed regime is eps <= (1 - gamma) sqrt(c2/c1);
    outside it ``within_validity`` is False (the clamp to k_min, applied
    in every regime, keeps the contraction argument valid). With
    eps >= 2 e0 the design is empty and ``degenerate``.
    """
    _check_design_inputs(eps, e0)
    limit = (1.0 - constants.gamma) * math.sqrt(constants.c2 / constants.c1)
    return _design("fixed", eps, e0, constants, constants.mu, 1.0, eps <= limit)


def design_growing_period(eps: float, e0: float, constants: RateConstants) -> DesignOutput:
    """Smallest-cost geometric-period design meeting the accuracy target.

    Same cycle count as the fixed design; periods
    K_j = C * mu^((2/3)(N-1-j)) with
    C = (4 c2 / eps^2) * ((1 - mu^(2N/3)) / (1 - mu^(2/3)))^2, so
    consecutive periods grow by mu^(-2/3). The sufficient regime for the
    smallest period to clear k_min is eps < 2 e0 (nu / (2 e0 + nu))^(3/2)
    with nu = (1 - gamma) / (1 - mu^(2/3)); outside it ``within_validity``
    is False. With eps >= 2 e0 the design is empty and ``degenerate``.
    """
    _check_design_inputs(eps, e0)
    rho = constants.mu ** (2.0 / 3.0)
    # rho is 1 only where mu rounds to 1, at the largest gamma below 1
    nu = (1.0 - constants.gamma) / (1.0 - rho) if rho < 1.0 else math.inf
    limit = 2.0 * e0 * (nu / (2.0 * e0 + nu)) ** 1.5
    return _design("growing", eps, e0, constants, rho, rho, eps < limit)
