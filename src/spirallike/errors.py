"""Exception types shared across the package."""


class SpirallikeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpirallikeError):
    """Input lies outside the mathematical domain of the operation."""


class MeasureValidationError(SpirallikeError):
    """A boundary measure failed validation.

    Carries the individual violations so callers can report them all.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParameterError(SpirallikeError):
    """A named parameter constraint is violated; message states which."""


class AccuracyError(SpirallikeError):
    """A numerical routine could not reach its accuracy target."""

    def __init__(self, message, achieved=None):
        self.achieved = achieved
        super().__init__(message)


class InconsistencyError(SpirallikeError):
    """Two independent computations of the same quantity disagree."""


class ConfigError(SpirallikeError):
    """Invalid run configuration supplied to the command-line driver."""
