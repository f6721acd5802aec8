"""Geometry of logarithmic spirals in the punctured plane.

A spiral of inclination lam through the unit-circle point exp(i*theta0) is
the curve t -> exp(exp(i*lam) * t + i*theta0).  Two nonzero points lie on
the same spiral exactly when their spiral arguments

    arg_lam(w) = Arg(w) - tan(lam) * log|w|

agree modulo 2*pi.  Inclination 0 degenerates to rays from the origin and
arg_0 is the ordinary principal argument.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi


def _finite_angles(t):
    """t as a float array; DomainError unless every entry is a finite number."""
    try:
        t = np.asarray(t, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"angles must be real numbers, got {t!r}") from None
    if not np.isfinite(t).all():
        raise DomainError("angles must be finite")
    return t


def _finite_angle(t):
    """t as a float; DomainError unless it is one finite real number."""
    t = _finite_angles(t)
    if t.ndim:
        raise DomainError(f"an angle must be a scalar, got an array of shape {t.shape}")
    return float(t)


def principal_angle(x):
    """Reduce angles to the interval (-pi, pi].

    Exact passthrough for inputs already inside the interval; accepts
    scalars or arrays.  DomainError unless every angle is finite.
    """
    x = _finite_angles(x)
    r = x - TWO_PI * np.round(x / TWO_PI)
    r = np.where(r <= -np.pi, r + TWO_PI, r)
    return r if r.ndim else float(r)


@dataclass(frozen=True)
class SpiralAngle:
    """Spiral inclination lam in (-pi/2, pi/2) with cached derived constants.

    mu = exp(i*lam)*cos(lam) is the exponent weight that converts a
    starlike logarithmic derivative into a spirallike one.
    """

    lam: float

    def __post_init__(self):
        lam = _finite_angle(self.lam)
        if not (-np.pi / 2 < lam < np.pi / 2):
            raise DomainError(f"inclination must lie in (-pi/2, pi/2), got {self.lam!r}")
        object.__setattr__(self, "lam", lam)
        c = np.cos(lam)
        object.__setattr__(self, "mu", complex(c * c, np.sin(lam) * c))
        object.__setattr__(self, "tan_lambda", np.tan(lam))

    @property
    def cos_lambda(self):
        return np.cos(self.lam)

    @property
    def is_starlike(self):
        return self.lam == 0.0


STARLIKE = SpiralAngle(0.0)


@dataclass(frozen=True)
class SpiralSector:
    """Open bundle of spirals: all w with |arg_lam(w) - center| < opening/2 mod 2*pi."""

    center_angle: float
    opening: float
    angle: SpiralAngle

    def __post_init__(self):
        _finite_angle(self.center_angle)
        if not (0.0 < _finite_angle(self.opening) <= TWO_PI):
            raise DomainError(f"sector opening must lie in (0, 2*pi], got {self.opening!r}")


def arg_lambda(w, angle):
    """Spiral argument Arg(w) - tan(lam)*log|w| of finite nonzero points w.

    Vectorized; raises DomainError if any entry is zero or not finite.  For
    lam = 0 this is numpy.angle exactly.
    """
    w = np.asarray(w, dtype=complex)
    if not np.isfinite(w).all():
        raise DomainError("spiral argument needs finite points")
    if np.any(w == 0):
        raise DomainError("spiral argument is undefined at the origin")
    out = np.angle(w) - angle.tan_lambda * np.log(np.abs(w))
    return out if out.ndim else float(out)


def spiral_point(theta0, angle, t):
    """Point exp(i*theta0 + exp(i*lam)*t) on the spiral labeled theta0.

    t = 0 gives the unit-circle point; t < 0 moves toward the origin.
    DomainError unless theta0 and t are finite.
    """
    theta0, t = _finite_angles(theta0), _finite_angles(t)
    w = np.exp(np.exp(1j * angle.lam) * t + 1j * theta0)
    return w if w.ndim else complex(w)


def sector_contains(sector, w):
    """Strict membership of w in the open spiral sector."""
    offs = principal_angle(np.asarray(arg_lambda(w, sector.angle)) - sector.center_angle)
    inside = np.abs(offs) < sector.opening / 2.0
    return inside if np.ndim(inside) else bool(inside)

