"""Closed-form example functions and the constants controlling them.

Houses the extremal starlike function g0(z) = (1/(1-z))log(1/(1-z)), the
margins of the half-plane inequalities behind the threshold C0 (Q(theta)
and C0 itself are in `threshold`), powers of 1/(1-z), and the
slow-logarithmic-factor family g(z) = z(1-z)^(-alpha)(1+c log(1/(1-z)))^beta
whose spirallike partners break the expected growth bound.  A
HansenFunction validates its parameters when it is built.
"""

import numpy as np

from .correspondence import spirallike_of
from .errors import DomainError, ParameterError, _instance, _real_number
from .polylog import _li0, _li1, _log
from .representation import MeasureFunction, SpiralFunction, _pointwise
from .spiral_geometry import STARLIKE, _record
from .threshold import DEFAULT_C0

# the log-factor coefficient c of the counterexample family when none is
# given: admissible (c <= 1/log C0) for every jump small enough that the
# combined-growth constraint holds
DEFAULT_C = min(0.3, 0.99 / np.log(DEFAULT_C0))


def _w_over_z(w, z):
    """w/z for w = log(1/(1-z)): analytic with value 1 at 0 and Re > 0 on the disk."""
    return np.divide(w, z, out=np.ones_like(w), where=z != 0)


def _g0_correction(z):
    return 1.0 / ((1.0 - z) * _w_over_z(_li1(z), z))


def g0_correction(z):
    """The term G(z) = -z/((1-z)log(1-z)) of the g0 log-derivative.

    Analytic on the disk with G(0) = 1; its real part stays above
    G(-1) = 1/(2 log 2).
    """
    return _pointwise(_g0_correction, z)


class G0Function(SpiralFunction):
    """g0(z) = (1/(1-z)) log(1/(1-z)): starlike, Taylor coefficients H_n.

    Its boundary function has a single jump of pi at t = 0 next to a
    logarithmically divergent density, making it the canonical slow-growth
    stress case: M(r, g0) carries a log(1/(1-r)) factor beyond exponent 1.
    """

    def __init__(self):
        super().__init__(STARLIKE, known_max_jump=np.pi)

    def _log_g_over_z(self, z):
        w = _li1(z)
        return _log(_w_over_z(w, z)) + w

    def _log_derivative_excess(self, z):
        return _li0(z) + (_g0_correction(z) - 1.0)


def koebe_power(exponent=2.0):
    """f(z) = z (1-z)^(-exponent), starlike for exponents in [0, 2].

    exponent 2 is the Koebe function.  The boundary measure is an atom of
    pi*exponent at t = 0 plus a constant density filling the rest; a
    constant density has no slope changes, so its MeasureFunction is the
    closed form -exponent*log(1-z) of log(f/z).
    """
    # here, not at module level: the g0 and hansen handles use no BoundaryMeasure
    from .boundary_measure import BoundaryMeasure

    exponent = _real_number(exponent, "exponent", ParameterError)
    if not (0.0 <= exponent <= 2.0):
        raise ParameterError(f"exponent {exponent} outside [0, 2]: f would not be starlike")
    atoms = ((0.0, np.pi * exponent),) if exponent > 0 else ()
    knots = ((0.0, 1.0 - exponent / 2.0),) if exponent < 2.0 else ()
    return MeasureFunction(BoundaryMeasure(atoms=atoms, density_knots=knots), STARLIKE)


# -- the C0 threshold -------------------------------------------------------


def lemma_c_margins(C):
    """Margins of the two half-plane inequalities behind the C0 threshold.

    For p(z) = 1/((1-z) log(C/(1-z))) and b = 1/(2 log(C/2)), returns
    (min Re p - b, min Re zp + b) over |z| <= 0.999; both must be positive
    for C at or above the threshold.  b needs C > 2.  p and zp are analytic
    on the disk, so each minimum lies on the circle |z| = 0.999 and is taken
    there by _circle_max from its _CIRCLE_SCAN = 1024-angle scan, every
    scanned local extremum refined.  p is read through _pointwise, the
    gate of every kernel value.
    """
    # here, not at module level: no other gallery routine needs analysis
    from .analysis import _circle_max

    C = _real_number(C, "C")
    if not (2.0 < C < np.inf):
        raise DomainError(f"threshold inequalities need finite C > 2, got {C}")

    def p(z):
        return 1.0 / ((1.0 - z) * (np.log(C) + _li1(z)))

    b = 1.0 / (2.0 * np.log(C / 2.0))
    min_p = -_circle_max(lambda z: -_pointwise(p, z).real, 0.999)
    min_zp = -_circle_max(lambda z: -(z * _pointwise(p, z)).real, 0.999)
    return float(min_p - b), float(min_zp + b)


# -- the slow-logarithmic-factor family --------------------------------------


@_record
class HansenParams:
    """Parameters (alpha, beta_exp, c) of g = z(1-z)^-alpha (1+c w)^beta_exp.

    w = log(1/(1-z)).  Admissibility depends on the threshold constant
    C0 = DEFAULT_C0: c must not exceed 1/log(C0), and the combined growth
    alpha + c*beta_exp/(1 - c log 2) must stay below 2.  Each parameter is
    stored as a float; ParameterError if float() refuses it.
    """

    alpha: float
    beta_exp: float
    c: float

    def __post_init__(self):
        for name in ("alpha", "beta_exp", "c"):
            value = _real_number(getattr(self, name), name, ParameterError)
            object.__setattr__(self, name, value)

    def violations(self):
        out = []
        if not (0.0 < self.alpha < 2.0):
            out.append(f"alpha = {self.alpha} violates 0 < alpha < 2")
        if not (self.beta_exp > 0.0):
            out.append(f"beta_exp = {self.beta_exp} violates beta_exp > 0")
        if not (self.c > 0.0):
            out.append(f"c = {self.c} violates c > 0")
            return out
        c_cap = 1.0 / np.log(DEFAULT_C0)
        if self.c > c_cap:
            out.append(f"c = {self.c} violates c <= 1/log(C0) = {c_cap:.6f}")
        elif self.beta_exp > 0.0:
            combined = self.alpha + self.c * self.beta_exp / (
                1.0 - self.c * np.log(2.0)
            )
            if not (combined < 2.0):
                out.append(
                    f"alpha + c*beta_exp/(1 - c log 2) = {combined:.6f} violates < 2"
                )
        return out

    def margin_lower_bound(self):
        """Proven lower bound for the starlikeness margin of the family."""
        return float(
            1.0 - self.alpha / 2.0 - self.beta_exp / (2.0 / self.c - 2.0 * np.log(2.0))
        )


class HansenFunction(SpiralFunction):
    """g(z) = z (1-z)^(-alpha) (1 + c log(1/(1-z)))^beta_exp, starlike.

    DomainError unless params is a HansenParams; ParameterError, naming
    each violated inequality, unless params are admissible.  Then c <=
    1/log(C0) keeps the base 1 + c*w, w = log(1/(1-z)), at Re >= 1 - c*log 2
    > 0.74 on the disk, as Re w > -log 2 there: principal powers of the
    base are single-valued.
    """

    def __init__(self, params):
        problems = _instance(params, HansenParams, "params").violations()
        if problems:
            raise ParameterError("; ".join(problems))
        super().__init__(STARLIKE, known_max_jump=np.pi * params.alpha)
        self.params = params

    def _log_g_over_z(self, z):
        p = self.params
        w = _li1(z)
        return p.alpha * w + p.beta_exp * _log(1.0 + p.c * w)

    def _log_derivative_excess(self, z):
        p = self.params
        base = 1.0 + p.c * _li1(z)
        li0 = _li0(z)
        return p.alpha * li0 + p.beta_exp * p.c * li0 / base


def hansen_build(params):
    """The family's function for params: HansenFunction(params)."""
    return HansenFunction(params)


def counterexample_for(angle, A, beta_exp=1.0, c=DEFAULT_C):
    """Spirallike function whose growth beats O((1-r)^-q0), q0 = A cos^2(lam)/pi.

    A is the target boundary jump and alpha = A/pi, so 0 < alpha < 2 asks A
    in (0, 2*pi).  Parameters that violate the family's inequalities raise
    ParameterError with the inequality named.
    """
    alpha = _real_number(A, "A", ParameterError) / np.pi
    params = HansenParams(alpha=alpha, beta_exp=beta_exp, c=c)
    return spirallike_of(HansenFunction(params), angle)
