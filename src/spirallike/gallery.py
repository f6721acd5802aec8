"""Closed-form example functions and the constants controlling them.

Houses the extremal starlike function g0(z) = (1/(1-z))log(1/(1-z)), the
Q(theta) threshold machinery with its constant C0, powers of 1/(1-z), and
the slow-logarithmic-factor family g(z) = z(1-z)^(-alpha)(1+c log(1/(1-z)))^beta
whose spirallike partners break the expected growth bound.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import golden_section_max
from .boundary_measure import BoundaryMeasure
from .correspondence import spirallike_of
from .errors import DomainError, InconsistencyError, ParameterError
from .representation import SpiralFunction, _as_disk_points
from .spiral_geometry import STARLIKE

DEFAULT_C0 = 2.0 * np.e**2


def _w_over_z(z):
    """log(1/(1-z))/z, analytic with value 1 at 0 and Re > 0 on the disk."""
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    safe = np.where(small, 1.0, zs)
    series = 1.0 + z * (0.5 + z * (1.0 / 3.0 + z * (0.25 + z * 0.2)))
    return np.where(small, series, -np.log1p(-zs) / safe)


def g0_correction(z):
    """The term G(z) = -z/((1-z)log(1-z)) of the g0 log-derivative.

    Analytic on the disk with G(0) = 1; its real part stays above
    G(-1) = 1/(2 log 2).
    """
    z = _as_disk_points(z)
    out = 1.0 / ((1.0 - z) * _w_over_z(z))
    return out if out.ndim else complex(out)


def g0_log_derivative(z):
    """z g0'(z)/g0(z) = z/(1-z) + G(z); value 1 at z = 0."""
    z = _as_disk_points(z)
    out = z / (1.0 - z) + 1.0 / ((1.0 - z) * _w_over_z(z))
    return out if out.ndim else complex(out)


class G0Function(SpiralFunction):
    """g0(z) = (1/(1-z)) log(1/(1-z)): starlike, Taylor coefficients H_n.

    Its boundary function has a single jump of pi at t = 0 next to a
    logarithmically divergent density, making it the canonical slow-growth
    stress case: M(r, g0) carries a log(1/(1-r)) factor beyond exponent 1.
    """

    kind = "g0"

    def __init__(self):
        super().__init__(STARLIKE, starlike_certified=True, known_max_jump=np.pi)

    def log_f_over_z(self, z):
        z = _as_disk_points(z)
        w = -np.log1p(-z)
        out = np.log(_w_over_z(z)) + w
        return out if out.ndim else complex(out)

    def log_derivative(self, z):
        return g0_log_derivative(z)


class KoebePower(SpiralFunction):
    """f(z) = z (1-z)^(-exponent), starlike for exponents in [0, 2].

    exponent 2 is the Koebe function; the boundary measure is an atom of
    pi*exponent at t = 0 plus a constant density filling the rest.
    """

    kind = "koebe_power"

    def __init__(self, exponent):
        exponent = float(exponent)
        if not (0.0 <= exponent <= 2.0):
            raise ParameterError(
                f"exponent {exponent} outside [0, 2]: f would not be starlike"
            )
        atoms = ((0.0, np.pi * exponent),) if exponent > 0 else ()
        knots = ((0.0, 1.0 - exponent / 2.0),) if exponent < 2.0 else ()
        super().__init__(
            STARLIKE,
            starlike_certified=True,
            known_max_jump=np.pi * exponent,
            measure=BoundaryMeasure(atoms=atoms, density_knots=knots),
        )
        self.exponent = exponent

    def log_f_over_z(self, z):
        z = _as_disk_points(z)
        out = -self.exponent * np.log1p(-z)
        return out if out.ndim else complex(out)

    def log_derivative(self, z):
        z = _as_disk_points(z)
        out = 1.0 + self.exponent * z / (1.0 - z)
        return out if out.ndim else complex(out)


def koebe_power(exponent=2.0):
    return KoebePower(exponent)


# -- Q(theta) and C0 ---------------------------------------------------------


def q_function(theta):
    """Q(theta) = ((log cos t)^2 + t^2)/(t tan t + log cos t) on (0, pi/2).

    log cos t is computed as log1p(-2 sin(t/2)^2) so that the limit value 2
    at 0+ is approached without cancellation.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0) or np.any(theta >= np.pi / 2.0):
        raise DomainError("Q is defined on the open interval (0, pi/2)")
    s = np.sin(0.5 * theta)
    lc = np.log1p(-2.0 * s * s)
    out = (lc * lc + theta * theta) / (theta * np.tan(theta) + lc)
    return out if out.ndim else float(out)


def c0_constant(grid=100000):
    """Grid supremum of Q with golden refinement: (sup_q, 2*exp(sup_q), monotone).

    monotone reports whether Q was non-increasing across the grid; it is an
    observation, not an assumption used elsewhere.
    """
    grid = int(grid)
    if grid < 1000:
        raise DomainError("need at least 1000 grid points")
    theta = np.linspace(0.0, np.pi / 2.0, grid + 2)[1:-1]
    values = q_function(theta)
    monotone = bool(np.all(np.diff(values) <= 0.0))
    k = int(np.argmax(values))
    lo = theta[k - 1] if k > 0 else 1e-9
    hi = theta[k + 1] if k + 1 < len(theta) else theta[-1]
    _, sup_q = golden_section_max(lambda t: q_function(float(t)), lo, hi)
    sup_q = max(sup_q, float(values[k]))
    return float(sup_q), float(2.0 * np.exp(sup_q)), monotone


def lemma_c_margins(C, grid=(64, 256), r_max=0.999):
    """Margins of the two half-plane inequalities behind the C0 threshold.

    For p(z) = 1/((1-z) log(C/(1-z))) and b = 1/(2 log(C/2)), returns
    (min Re p - b, min Re zp + b) over a polar grid with r <= r_max; both
    must be positive for C at or above the threshold.
    """
    C = float(C)
    if C < 2.0:
        raise DomainError(f"threshold inequalities need C >= 2, got {C}")
    n_r, n_theta = grid
    radii = 1.0 - np.geomspace(1.0, 1.0 - r_max, int(n_r))
    thetas = np.arange(int(n_theta)) * (2.0 * np.pi / int(n_theta))
    z = radii[:, None] * np.exp(1j * thetas)[None, :]
    p = 1.0 / ((1.0 - z) * (np.log(C) - np.log1p(-z)))
    b = 1.0 / (2.0 * np.log(C / 2.0))
    return float(np.min(p.real) - b), float(np.min((z * p).real) + b)


# -- the slow-logarithmic-factor family --------------------------------------


@dataclass(frozen=True)
class HansenParams:
    """Parameters (alpha, beta_exp, c) of g = z(1-z)^-alpha (1+c w)^beta_exp.

    w = log(1/(1-z)) and C = e^(1/c).  Admissibility depends on the
    threshold constant C0: c must not exceed 1/log(C0), and the combined
    growth alpha + c*beta_exp/(1 - c log 2) must stay below 2.
    """

    alpha: float
    beta_exp: float
    c: float

    @property
    def C(self):
        return float(np.exp(1.0 / self.c))

    def violations(self, c0=DEFAULT_C0):
        out = []
        if not (0.0 < self.alpha < 2.0):
            out.append(f"alpha = {self.alpha} violates 0 < alpha < 2")
        if not (self.beta_exp > 0.0):
            out.append(f"beta_exp = {self.beta_exp} violates beta_exp > 0")
        if not (self.c > 0.0):
            out.append(f"c = {self.c} violates c > 0")
            return out
        c_cap = 1.0 / np.log(c0)
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
    """g(z) = z (1-z)^(-alpha) (1 + c log(1/(1-z)))^beta_exp, starlike."""

    kind = "hansen"

    def __init__(self, params):
        super().__init__(
            STARLIKE,
            starlike_certified=True,
            known_max_jump=np.pi * params.alpha,
        )
        self.params = params

    def _base(self, z):
        base = 1.0 + self.params.c * -np.log1p(-z)
        # Admissible c keeps Re(1 + c*w) >= 1 - c*log 2 > 0: principal
        # powers of the base are single-valued on the disk.
        if not np.all(base.real > 0.0):
            raise InconsistencyError(
                f"base 1 + c*log(1/(1-z)) leaves the right half-plane for c = "
                f"{self.params.c}; build the function with hansen_build"
            )
        return base

    def log_f_over_z(self, z):
        z = _as_disk_points(z)
        p = self.params
        out = -p.alpha * np.log1p(-z) + p.beta_exp * np.log(self._base(z))
        return out if out.ndim else complex(out)

    def log_derivative(self, z):
        z = _as_disk_points(z)
        p = self.params
        out = 1.0 + p.alpha * z / (1.0 - z) + p.beta_exp * p.c * z / (
            (1.0 - z) * self._base(z)
        )
        return out if out.ndim else complex(out)


def hansen_build(params, c0=DEFAULT_C0):
    """Validated constructor for the family; names the violated inequality."""
    problems = params.violations(c0=c0)
    if problems:
        raise ParameterError("; ".join(problems))
    return HansenFunction(params)


def counterexample_for(angle, A, beta_exp=1.0, c=None, c0=DEFAULT_C0):
    """Spirallike function whose growth beats O((1-r)^-q0), q0 = A cos^2(lam)/pi.

    A in (0, 2*pi) is the target boundary jump; alpha = A/pi.  The default
    c = min(0.3, 0.99/log(C0)) is admissible for every A small enough that
    the combined-growth constraint holds; violations raise with the
    inequality named.
    """
    if not (0.0 < A < 2.0 * np.pi):
        raise ParameterError(f"jump A = {A} outside (0, 2*pi)")
    if c is None:
        c = min(0.3, 0.99 / np.log(c0))
    params = HansenParams(alpha=A / np.pi, beta_exp=beta_exp, c=c)
    return spirallike_of(hansen_build(params, c0=c0), angle)
