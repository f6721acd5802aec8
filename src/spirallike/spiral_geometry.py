"""Geometry of logarithmic spirals in the punctured plane.

A spiral of inclination lam through the unit-circle point exp(i*theta0) is
the curve t -> exp(exp(i*lam) * t + i*theta0).  Two nonzero points lie on
the same spiral exactly when their spiral arguments

    arg_lam(w) = Arg(w) - tan(lam) * log|w|

agree modulo 2*pi.  Inclination 0 degenerates to rays from the origin and
arg_0 is the ordinary principal argument.
"""

import numpy as np

from .errors import DomainError, _finite_angle, _finite_angles, _instance, _numbers, _scalar

TWO_PI = 2.0 * np.pi
# the x where exp(x) is a normal float: neither zero, subnormal nor inf
_LOG_NORMAL = (np.log(np.finfo(float).tiny), np.log(np.finfo(float).max))


def _record(cls):
    """cls as a frozen record over the fields its own annotations name, in order.

    Installs __init__ (positional or keyword fields, a class attribute of
    the same name as the default, then self.__post_init__() where cls
    defines one), __repr__, __eq__ and __hash__ over the field tuple, and
    __setattr__/__delattr__ that raise AttributeError, as a frozen
    dataclass does, but from closures rather than generated source.  The
    methods sit on cls itself, and instances keep a __dict__, which
    __post_init__ (through object.__setattr__) and cached_property write.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values or name not in names:
                problem = "multiple values for" if name in values else "an unexpected keyword"
                raise TypeError(f"{qualname}() got {problem} argument {name!r}")
        values.update(kwargs)
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{qualname}() missing required arguments {missing}")
        self.__dict__.update({name: values[name] if name in values else defaults[name]
                              for name in names})
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{qualname}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def principal_angle(x):
    """Reduce angles to the interval (-pi, pi].

    Exact passthrough for inputs already inside the interval; accepts
    scalars or arrays.  DomainError unless every angle is finite.
    """
    x = _finite_angles(x)
    r = x - TWO_PI * np.round(x / TWO_PI)
    r = np.where(r <= -np.pi, r + TWO_PI, r)
    return _scalar(r)


@_record
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


@_record
class SpiralSector:
    """Open bundle of spirals: all w with |arg_lam(w) - center| < opening/2 mod 2*pi."""

    center_angle: float
    opening: float
    angle: SpiralAngle

    def __post_init__(self):
        _instance(self.angle, SpiralAngle, "an inclination")
        for name in ("center_angle", "opening"):
            object.__setattr__(self, name, _finite_angle(getattr(self, name)))
        if not (0.0 < self.opening <= TWO_PI):
            raise DomainError(f"sector opening must lie in (0, 2*pi], got {self.opening!r}")


def arg_lambda(w, angle):
    """Spiral argument Arg(w) - tan(lam)*log|w| of finite nonzero points w.

    Vectorized; raises DomainError if any entry is zero or not finite, or
    unless angle is a SpiralAngle.  For lam = 0 this is numpy.angle exactly.
    """
    _instance(angle, SpiralAngle, "an inclination")
    w = _numbers(w, complex, "points")
    if not np.isfinite(w).all():
        raise DomainError("spiral argument needs finite points")
    if np.any(w == 0):
        raise DomainError("spiral argument is undefined at the origin")
    out = np.angle(w) - angle.tan_lambda * np.log(np.abs(w))
    return _scalar(out)


def spiral_point(theta0, angle, t):
    """Point exp(i*theta0 + exp(i*lam)*t) on the spiral labeled theta0.

    t = 0 gives the unit-circle point; t < 0 moves toward the origin.
    DomainError unless theta0 and t are finite, angle is a SpiralAngle and
    the modulus exp(t*cos(lam)) is a normal float, checked before exp.
    """
    _instance(angle, SpiralAngle, "an inclination")
    theta0, t = _finite_angles(theta0), _finite_angles(t)
    step = np.exp(1j * angle.lam) * t
    off = ~((_LOG_NORMAL[0] <= step.real) & (step.real <= _LOG_NORMAL[1]))
    if off.any():
        x = float(step.real[off][0])
        raise DomainError(f"the spiral point's modulus exp({x!r}) is not a normal float")
    return _scalar(np.exp(step + 1j * theta0))


def sector_contains(sector, w):
    """Strict membership of w in the open spiral sector.

    DomainError unless sector is a SpiralSector, and as arg_lambda for w.
    """
    _instance(sector, SpiralSector, "a sector")
    offs = principal_angle(np.asarray(arg_lambda(w, sector.angle)) - sector.center_angle)
    return _scalar(np.abs(offs) < sector.opening / 2.0)

