# Exception types shared across the package. Every bad input raises a
# DomainError or one of its subclasses; a design's degenerate or
# out-of-regime case is not an error and is reported only through the
# ``DesignOutput`` flags.


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class DimensionError(DomainError):
    """A table's shape does not match the environment it is used with."""


class IterationLimitError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class ScheduleOverflowError(DomainError, OverflowError):
    """A schedule entry grew past the range where exact integers exist."""


class ConfigValidationError(DomainError):
    """An experiment configuration failed validation.

    Carries the full list of violations so callers see every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


class AlignmentError(DomainError):
    """Run traces cannot be aligned on a common sample-cost axis."""
