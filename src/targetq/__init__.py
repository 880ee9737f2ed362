"""targetq: tabular Q-learning with frozen Bellman targets, pluggable
target-update schedules, a closed-form schedule designer, and a stochastic
grid benchmark."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    AlignmentError,
    ConfigValidationError,
    DimensionError,
    DomainError,
    IterationLimitError,
    ScheduleOverflowError,
)
from .gridworld import GridSpec, build_grid_mdp, build_gridworld, gridworld_spec
from .config import dump_grid_spec, load_grid_spec
from .harness import (
    AggregateStats,
    Arm,
    ExperimentConfig,
    aggregate,
    emit_csv,
    run_experiment,
)
from .learner import (
    CycleRecord,
    RunTrace,
    run_accuracy_triggered_q,
    run_inner_loop,
    run_periodic_q,
)
from .mdp import (
    RewardDistribution,
    TabularMdp,
    evaluate_greedy,
    exact_bellman_apply,
    greedy_state_values,
    new_q_table,
    sup_distance,
    value_iteration_oracle,
)
from .schedules import (
    AccuracyTriggered,
    ConstantStepSize,
    CustomStepSize,
    DesignOutput,
    ExplicitPeriod,
    FixedPeriod,
    GeometricPeriod,
    RateConstants,
    TheoryInverseStepSize,
    UnrollResult,
    compute_constants,
    design_fixed_period,
    design_growing_period,
    geometric_period,
    schedule_cost,
    unroll_error_bound,
)

# the submodules are attributes (``targetq.config``) but not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
