"""Numerical verification suite for spirallike functions.

Margins for the defining inequality, boundary traces of the measure,
jump detection and refinement, maximal spiral sectors, maximum modulus,
growth exponents, and the bounded-ratio experiment.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, InconsistencyError
from .spiral_geometry import (
    SpiralSector,
    arg_lambda,
    principal_angle,
    sector_contains,
    spiral_point,
)

TWO_PI = 2.0 * np.pi

_MONOTONE_TOL = 1e-6


def default_r_schedule(k_min=2, k_max=6):
    """Radii 1 - 10^-k for k in [k_min, k_max]."""
    return tuple(1.0 - 10.0**-k for k in range(int(k_min), int(k_max) + 1))


def golden_section_max(f, a, b, tol=1e-12):
    """Golden-section search for the maximum of a unimodal f on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# -- the continuous spiral argument ------------------------------------------


def _radial_ladder(r, min_steps):
    """Radii 0 = rho_0 < ... < rho_J = r refining geometrically toward r.

    J is at least min_steps and grows by 24 radii per decade of 1 - r.
    """
    gap = 1.0 - r
    J = max(int(min_steps), int(24.0 * np.log10(1.0 / gap)) + 16)
    return 1.0 - gap ** (np.arange(J + 1) / J)


def _arg_lambda_f_over_z(fn, angle, z):
    """Continuous arg_lambda of f(z)/z, pinned to 0 at the disk center.

    log_f_over_z is the branch of log(f/z) that vanishes at 0 and is
    continuous on the disk, so its imaginary part is the continuous argument
    of f/z and its real part is log|f/z|.
    """
    L = fn.log_f_over_z(z)
    return L.imag - angle.tan_lambda * L.real


# -- boundary traces -------------------------------------------------------


@dataclass(frozen=True)
class BetaTrace:
    """Sampled boundary-function estimates beta(t) = t + U_lambda(t).

    beta_values holds the estimate at radius_used (the last schedule entry);
    refinement_record lists (r, max change against the previous r).  Values
    use the analytic branch of log(f/z) that vanishes at the disk center,
    which differs from beta_at's beta(0-) = 0 base by the measure's
    canonical_offset.
    """

    t_samples: np.ndarray
    beta_values: np.ndarray
    radius_used: float
    refinement_record: tuple


class JumpEstimate(NamedTuple):
    jump: float
    location: float
    center: float


def beta_trace(fn, angle=None, t_grid=256, r_schedule=None):
    """Estimate the boundary function on a uniform t grid over [0, 2*pi).

    The estimate at each radius r of the increasing schedule is
    t + Im L - tan(lam) * Re L with L = log(f/z) at z = re^it, the analytic
    branch vanishing at the center; successive radii document convergence
    toward the boundary limit.
    """
    angle = fn.angle if angle is None else angle
    if r_schedule is None:
        r_schedule = default_r_schedule()
    r_schedule = tuple(float(r) for r in r_schedule)
    if not r_schedule or any(not (0.0 < r < 1.0) for r in r_schedule) or any(
        b <= a for a, b in zip(r_schedule, r_schedule[1:])
    ):
        raise DomainError("r_schedule must be nonempty and increase strictly inside (0, 1)")
    t = np.arange(int(t_grid)) * (TWO_PI / int(t_grid))
    z = np.array(r_schedule)[:, None] * np.exp(1j * t)[None, :]
    estimates = t + _arg_lambda_f_over_z(fn, angle, z)
    deltas = np.max(np.abs(np.diff(estimates, axis=0)), axis=1)
    record = [(r_schedule[0], np.nan)]
    record.extend((r, float(d)) for r, d in zip(r_schedule[1:], deltas))
    return BetaTrace(
        t_samples=t,
        beta_values=estimates[-1],
        radius_used=r_schedule[-1],
        refinement_record=tuple(record),
    )


def estimate_max_jump(trace, gap_threshold=None):
    """Largest jump of a boundary trace: (jump, location, center).

    Adjacent-sample increments above gap_threshold are jump candidates; two
    above-threshold increments sharing a sample merge into one jump located
    at that sample (an atom aligned with the grid splits its mass between
    the two neighboring gaps).  Returns jump 0 when nothing exceeds the
    threshold, which defaults to 10 grid spacings of median trace slope.
    """
    t = trace.t_samples
    v = trace.beta_values
    n = len(t)
    gaps = np.diff(np.concatenate((v, [v[0] + TWO_PI])))
    if float(np.min(gaps)) < -_MONOTONE_TOL:
        k = int(np.argmin(gaps))
        raise InconsistencyError(
            f"trace decreases by {-float(np.min(gaps)):.3g} near t = {t[k]:.6f}"
        )
    if gap_threshold is None:
        gap_threshold = max(10.0 * float(np.median(gaps)), 1e-6)
    t_next = np.concatenate((t[1:], [t[0] + TWO_PI]))
    v_next = np.concatenate((v[1:], [v[0] + TWO_PI]))
    best = JumpEstimate(0.0, np.nan, np.nan)
    over = gaps > gap_threshold
    for i in np.flatnonzero(over):
        single = JumpEstimate(
            float(gaps[i]), float(0.5 * (t[i] + t_next[i])), float(0.5 * (v[i] + v_next[i]))
        )
        if single.jump > best.jump:
            best = single
        if over[(i + 1) % n]:
            j = (i + 1) % n
            merged = JumpEstimate(float(gaps[i] + gaps[j]), float(t[j]), float(v[j]))
            if merged.jump > best.jump:
                best = merged
    return best


def refine_jump(fn, bracket, angle=None, r=1.0 - 1e-12, windows=(1e-4, 1e-5, 1e-6)):
    """Sharpened jump estimate at a single boundary point.

    bracket: (t_lo, t_hi) containing exactly one jump.  The trace
    t + arg_lambda(f/z) = arg_lambda(f) increases along circles for
    spirallike f, so bisection locates the jump point (to 1e-10) where the
    trace crosses the midpoint of its bracket values; the two-sided trace
    difference E(w) over shrinking windows w still carries a
    mass ~ jump_density/log(1/w) from any logarithmically divergent density
    next to the atom, so E is extrapolated quadratically in x = 1/log(1/w)
    to window 0.  The windows sit well below 1e-3 because terms of size
    O(w) are exponentially small in x and wreck the polynomial fit when the
    fit's extrapolation leverage (~6x here) amplifies them; r must then be
    close enough to 1 that boundary smoothing stays below the smallest
    window.  Returns (jump, t0).
    """
    angle = fn.angle if angle is None else angle

    def trace_at(ts):
        return ts + _arg_lambda_f_over_z(fn, angle, r * np.exp(1j * ts))

    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    lo, hi = trace_at(np.array([t_lo, t_hi]))
    mid = 0.5 * (lo + hi)
    t0 = 0.5 * (t_lo + t_hi)
    while t_hi - t_lo > 2e-10:
        value = trace_at(t0)
        if value == mid:
            break
        if value < mid:
            t_lo = t0
        else:
            t_hi = t0
        t0 = 0.5 * (t_lo + t_hi)
    w = np.asarray(windows, dtype=float)
    E = trace_at(t0 + w) - trace_at(t0 - w)
    x = 1.0 / np.log(1.0 / w)
    coeffs = np.polyfit(x, E, 2)
    return float(np.polyval(coeffs, 0.0)), float(t0)


# -- pointwise certificates -------------------------------------------------


def spirallikeness_margin(fn, angle=None, r_max=0.999, grid=(48, 512)):
    """Minimum of Re(exp(-i*lam) * zf'/f) over a polar grid, r <= r_max.

    Positive values certify the spirallike condition on the grid.
    """
    angle = fn.angle if angle is None else angle
    if not (0.0 < r_max < 1.0):
        raise DomainError(f"r_max must lie in (0, 1), got {r_max!r}")
    n_r, n_theta = grid
    radii = 1.0 - np.geomspace(1.0, 1.0 - r_max, int(n_r))
    thetas = np.arange(int(n_theta)) * (TWO_PI / int(n_theta))
    z = radii[:, None] * np.exp(1j * thetas)[None, :]
    values = np.exp(-1j * angle.lam) * fn.log_derivative(z)
    return float(np.min(values.real))


def goodman_check(g, grid=(512, 32), r_max=0.999):
    """Max of |arg(g(z)/z)| - 2*arcsin|z| over a polar grid.

    The argument is Im log(g/z) on the analytic branch vanishing at the
    center.  Nonpositive (within roundoff) for every starlike function; the
    grid is n_theta angles times the nonzero radii of a ladder of at least
    n_steps radii refining geometrically toward r_max.
    """
    if not g.starlike_certified:
        raise DomainError("bound applies to certified starlike functions")
    n_theta, n_steps = grid
    thetas = np.arange(int(n_theta)) * (TWO_PI / int(n_theta))
    rho = _radial_ladder(r_max, n_steps)[1:]
    U = _arg_lambda_f_over_z(g, g.angle, rho[None, :] * np.exp(1j * thetas)[:, None])
    excess = np.abs(U) - 2.0 * np.arcsin(rho)[None, :]
    return float(np.max(excess))


def max_modulus(fn, r, coarse=1024):
    """Max of |f| on |z| = r: coarse circle scan plus golden refinement.

    The top three cyclic local maxima of the scan are refined over one
    coarse spacing each; the result is a lower bound tight to the search
    tolerance for peaks that are unimodal at that scale.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"radius must lie in (0, 1), got {r!r}")
    coarse = int(coarse)
    thetas = np.arange(coarse) * (TWO_PI / coarse)
    vals = np.abs(fn.evaluate(r * np.exp(1j * thetas)))
    local = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(local)
    peaks = peaks[np.argsort(vals[peaks])][::-1][:3]
    h = TWO_PI / coarse
    best = float(np.max(vals))

    def profile(theta):
        return float(np.abs(fn.evaluate(r * np.exp(1j * theta))))

    for k in peaks:
        _, fx = golden_section_max(profile, thetas[k] - h, thetas[k] + h)
        best = max(best, fx)
    return best


# -- growth experiments ------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Rows (r, M(r), E(r) = log M / log(1/(1-r))) plus the predicted exponent."""

    rows: tuple
    predicted_q0: float
    a_estimate: float


def growth_exponent(fn, angle=None, r_schedule=None, coarse=1024):
    """Growth table for fn with the jump-based exponent prediction.

    a_estimate comes from the underlying measure's max jump when available,
    else from a declared closed-form jump, else from a boundary-trace
    refinement; predicted_q0 = a_estimate * cos(lam)^2 / pi.
    """
    angle = fn.angle if angle is None else angle
    if r_schedule is None:
        r_schedule = default_r_schedule(2, 8)
    r_schedule = tuple(float(r) for r in r_schedule)
    if len(r_schedule) < 3 or any(b <= a for a, b in zip(r_schedule, r_schedule[1:])):
        raise DomainError("r_schedule must have at least 3 strictly increasing radii")
    rows = []
    for r in r_schedule:
        M = max_modulus(fn, r, coarse=coarse)
        E = np.log(M) / np.log(1.0 / (1.0 - r))
        if not np.isfinite(E):
            raise AccuracyError(f"growth entry overflowed at r = {r}", achieved=M)
        rows.append((r, float(M), float(E)))
    if fn.measure is not None:
        a_estimate = fn.measure.max_jump()
    elif fn.known_max_jump is not None:
        a_estimate = float(fn.known_max_jump)
    else:
        trace = beta_trace(fn, angle)
        guess = estimate_max_jump(trace)
        if guess.jump == 0.0:
            a_estimate = 0.0
        else:
            spacing = TWO_PI / len(trace.t_samples)
            a_estimate, _ = refine_jump(
                fn, (guess.location - spacing, guess.location + spacing), angle
            )
    cos_lam = np.cos(angle.lam)
    return GrowthReport(
        rows=tuple(rows),
        predicted_q0=float(a_estimate * cos_lam * cos_lam / np.pi),
        a_estimate=float(a_estimate),
    )


def hansen_ratio(fn, q0, r_schedule=None, coarse=1024):
    """Ratio sequence (r, M(r, fn) * (1-r)^q0) along the schedule.

    An unbounded increase exhibits failure of the O((1-r)^-q0) bound.
    """
    if q0 < 0:
        raise DomainError(f"q0 must be nonnegative, got {q0!r}")
    if r_schedule is None:
        r_schedule = default_r_schedule(2, 8)
    return [
        (r, max_modulus(fn, r, coarse=coarse) * (1.0 - r) ** q0) for r in r_schedule
    ]


# -- maximal sectors ---------------------------------------------------------


def detect_maximal_sector(
    fn,
    angle=None,
    image_grid=(32, 2048),
    cluster_points=384,
    arg_tol=0.025,
    inner=0.9,
):
    """Maximal spiral sector of the image, from the largest measure atom.

    Returns S_lambda(center, opening) with opening the largest atom's jump
    and center the measure's boundary function there (center-pinned branch),
    or None for an atomless measure.  Sample points of the sector are then
    certified inside the image: each must lie, within arg_tol on the spiral
    argument, on the inward spiral segment of some value of fn on a fine
    disk grid (images of spirallike functions contain these segments).
    """
    angle = fn.angle if angle is None else angle
    measure = fn.measure
    if measure is None:
        raise DomainError("sector detection requires a measure-built function")
    largest = measure.largest_atom()
    if largest is None:
        return None
    t0, jump = largest
    opening = min(jump, TWO_PI)
    center = float(
        principal_angle(measure.beta_at(t0) - measure.canonical_offset())
    )
    sector = SpiralSector(center_angle=center, opening=opening, angle=angle)

    n_r, n_theta = image_grid
    radii = 1.0 - np.geomspace(1e-5, 0.5, int(n_r))
    thetas = [np.arange(int(n_theta)) * (TWO_PI / int(n_theta))]
    offsets = np.geomspace(1e-7, 0.5, int(cluster_points))
    for t_atom, _ in measure.atoms:
        thetas.append(t_atom + offsets)
        thetas.append(t_atom - offsets)
    thetas = np.concatenate(thetas)
    W = fn.evaluate(radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    grid_arg = arg_lambda(W, angle)
    grid_logmod = np.log(np.abs(W))

    phis = center + inner * (opening / 2.0) * np.linspace(-1.0, 1.0, 9)
    t_params = (-3.0, -1.5, 0.0, 1.5, 3.0)
    for phi in phis:
        for t in t_params:
            w = spiral_point(phi, angle, t)
            if not sector_contains(sector, w):
                raise InconsistencyError(
                    f"sample point for spiral argument {phi:.6f} left the sector"
                )
            dist = np.abs(principal_angle(grid_arg - arg_lambda(w, angle)))
            hit = (dist <= arg_tol) & (grid_logmod >= np.log(np.abs(w)) - 1e-9)
            if not np.any(hit):
                raise InconsistencyError(
                    f"sector sample at spiral argument {phi:.6f}, t = {t} "
                    "is not covered by the image grid"
                )
    return sector
