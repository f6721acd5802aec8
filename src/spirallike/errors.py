"""Exception types shared across the package, and its gate for arguments going in.

The public routines read their arguments through the checks here (numbers,
finite angles, grid sizes, instances of a class) and hand a scalar result
back through _scalar, so the private helpers behind them take and return
arrays.  Values coming out of a function handle's kernel have their own
gate, representation._pointwise, which raises DomainError at a value that
is not finite.
"""

import numpy as np


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


# the most points one call builds: 2^24 complex points take 256 MiB, and a
# kernel holds a few arrays of that size; the CLI's largest beta grid
# (10^6 angles on 12 radii) stays inside
_MAX_POINTS = 2**24


def _grid_size(n, name, most=_MAX_POINTS):
    """A grid or sample count as an int.

    DomainError, before any array is built, unless n is a whole number (not
    a bool) from 1 to most; most=None sets no upper bound.
    """
    try:
        count = int(n)
        valid = count >= 1 and (most is None or count <= most) and count == float(n)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid or isinstance(n, bool) or getattr(n, "dtype", None) == bool:
        bound = "" if most is None else f" and at most {most}"
        raise DomainError(f"{name} must be a whole number at least 1{bound}, got {n!r}")
    return count


def _real_number(x, name, error=DomainError):
    """x as a float; error (DomainError by default) unless float() takes it."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be a real number, got {x!r}") from None


def _numbers(x, dtype, what):
    """x as an array of dtype (float or complex); DomainError unless every entry is a number."""
    try:
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError):
        kind = "real" if dtype is float else "complex"
        raise DomainError(f"{what} must be {kind} numbers, got {x!r}") from None


def _finite_angles(t):
    """t as a float array; DomainError unless every entry is a finite number."""
    t = _numbers(t, float, "angles")
    if not np.isfinite(t).all():
        raise DomainError("angles must be finite")
    return t


def _finite_angle(t):
    """t as a float; DomainError unless it is one finite real number."""
    t = _finite_angles(t)
    if t.ndim:
        raise DomainError(f"an angle must be a scalar, got an array of shape {t.shape}")
    return float(t)


def _instance(x, cls, what):
    """x itself; DomainError unless it is an instance of cls."""
    if not isinstance(x, cls):
        raise DomainError(f"{what} must be a {cls.__name__}, got {x!r}")
    return x


def _scalar(out):
    """A 0-d array or numpy scalar as its Python float, complex or bool; anything else as it is."""
    return out.item() if getattr(out, "ndim", None) == 0 else out
