"""Bijection between spirallike functions and their starlike partners.

For inclination lam with mu = exp(i*lam)cos(lam), the pairing is
log(f/z) = mu * log(g/z); f is lam-spirallike exactly when g is starlike,
and both share the same boundary measure.  Every SpiralFunction is the
kernel of its starlike partner plus an inclination, so each direction is a
shallow copy of the handle with the other inclination: the kernels,
known_max_jump and measure travel with it.  A handle holds its own
inclination, so starlike_of takes the handle alone.
"""

import copy

from .errors import DomainError, _instance
from .representation import SpiralFunction
from .spiral_geometry import STARLIKE, SpiralAngle


def _with_angle(fn, angle):
    out = copy.copy(fn)
    out.angle = angle
    return out


def spirallike_of(g, angle):
    """The lam-spirallike partner f of g: g's kernel at inclination lam.

    DomainError unless g is a starlike (inclination 0) SpiralFunction and
    angle is a SpiralAngle.
    """
    _instance(angle, SpiralAngle, "an inclination")
    _instance(g, SpiralFunction, "a function")
    if not g.angle.is_starlike:
        raise DomainError(f"input is not starlike: its inclination is {g.angle.lam}")
    return _with_angle(g, angle)


def starlike_of(f):
    """The starlike partner g of f: f's kernel at inclination 0.

    f's inclination is f.angle, so starlike_of(spirallike_of(g, angle))
    has g's kernel and angle.  DomainError unless f is a SpiralFunction.
    """
    _instance(f, SpiralFunction, "a function")
    return _with_angle(f, STARLIKE)
