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
    """Golden-section search for the maximum of a unimodal f on [a, b].

    a and b may also be arrays of one shape, each entry the bracket of an
    independent lane.  The lanes run in lockstep: f gets one array of lane
    points per step and returns one value per lane, and a lane freezes once
    its own bracket is within tol (its points are still sampled, inside the
    final bracket, until every lane is done, and the values are discarded).
    Each lane ends exactly where the scalar search on its bracket would.
    Returns (x, f(x)) at the bracket midpoints: floats for scalar brackets,
    else arrays.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    live = (b - a) > tol
    while np.any(live):
        keep_left = fc >= fd
        left, right = live & keep_left, live & ~keep_left
        # left and right lanes are disjoint: the second line reads d and fd
        # where the first left them unchanged
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live = (b - a) > tol
    x = 0.5 * (a + b)
    fx = f(x)
    if x.ndim == 0:
        return float(x), float(fx)
    return x, fx


def _grid_size(n, name):
    """A grid or sample count as an int; DomainError unless it is a whole number >= 1."""
    try:
        count = int(n)
        valid = count >= 1 and count == float(n)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise DomainError(f"{name} must be a whole number at least 1, got {n!r}")
    return count


def _check_unit_radius(r_max):
    """DomainError unless 0 < r_max < 1."""
    if not (0.0 < r_max < 1.0):
        raise DomainError(f"r_max must lie in (0, 1), got {r_max!r}")


def _polar_grid(r_max, grid):
    """Points r*exp(i*theta) of shape grid = (n_r, n_theta), checked like r_max and grid sizes.

    The n_r radii 1 - (1 - r_max)^s for s uniform in [0, 1] run from 0 to
    r_max, refining toward r_max; the n_theta angles are uniform.
    """
    _check_unit_radius(r_max)
    n_r, n_theta = (_grid_size(n, "grid size") for n in grid)
    radii = 1.0 - np.geomspace(1.0, 1.0 - r_max, n_r)
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    return radii[:, None] * np.exp(1j * thetas)[None, :]


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
    n_t = _grid_size(t_grid, "t_grid")
    t = np.arange(n_t) * (TWO_PI / n_t)
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
    if n == 0:
        raise DomainError("the trace has no samples")
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
    values = np.exp(-1j * angle.lam) * fn.log_derivative(_polar_grid(r_max, grid))
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
    _check_unit_radius(r_max)
    n_theta, n_steps = (_grid_size(n, "grid size") for n in grid)
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    rho = _radial_ladder(r_max, n_steps)[1:]
    U = _arg_lambda_f_over_z(g, g.angle, rho[None, :] * np.exp(1j * thetas)[:, None])
    excess = np.abs(U) - 2.0 * np.arcsin(rho)[None, :]
    return float(np.max(excess))


def max_modulus(fn, r, coarse=1024):
    """Max of |f| on |z| = r: coarse circle scan plus golden refinement.

    r is one radius (returns a float) or a 1-d array of radii (returns an
    array, one maximum per radius); every radius is checked before any work.
    One evaluate call scans all the circles at the coarse angles.  The top
    three cyclic local maxima of each scan are refined over one coarse
    spacing each, all of them lanes of one lockstep golden search.  The
    result is a lower bound tight to the search tolerance for peaks that are
    unimodal at that scale.
    """
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1:
        raise DomainError(f"radii must be a scalar or a 1-d array, got shape {radii.shape}")
    rows = np.atleast_1d(radii)
    bad = [x for x in rows.tolist() if not (0.0 < x < 1.0)]
    if bad:
        raise DomainError(f"radius must lie in (0, 1), got {bad[0]!r}")
    coarse = _grid_size(coarse, "coarse")
    thetas = np.arange(coarse) * (TWO_PI / coarse)
    vals = np.abs(fn.evaluate(rows[:, None] * np.exp(1j * thetas)))
    local = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    lane_row, lane_peak = [], []
    for i, row in enumerate(vals):
        peaks = np.flatnonzero(local[i])
        peaks = peaks[np.argsort(row[peaks])][::-1][:3]
        lane_row.extend([i] * len(peaks))
        lane_peak.extend(peaks.tolist())
    h = TWO_PI / coarse
    lane_r = rows[lane_row]
    lane_theta = thetas[lane_peak]

    def profile(theta):
        return np.abs(fn.evaluate(lane_r * np.exp(1j * theta)))

    _, refined = golden_section_max(profile, lane_theta - h, lane_theta + h)
    best = np.max(vals, axis=1).tolist()
    for i, fx in zip(lane_row, refined.tolist()):
        best[i] = max(best[i], fx)
    return best[0] if radii.ndim == 0 else np.array(best)


# -- growth experiments ------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Rows (r, M(r), E(r) = log M / log(1/(1-r))) plus the predicted exponent."""

    rows: tuple
    predicted_q0: float
    a_estimate: float


def growth_exponent(fn, angle=None, r_schedule=None, coarse=1024):
    """Growth table for fn with the jump-based exponent prediction.

    M(r) for the whole schedule comes from one batched max_modulus call.
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
    peaks = max_modulus(fn, np.array(r_schedule), coarse=coarse).tolist()
    rows = []
    for r, M in zip(r_schedule, peaks):
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

    An unbounded increase exhibits failure of the O((1-r)^-q0) bound.  M(r)
    for the whole schedule comes from one batched max_modulus call.
    """
    if not (0.0 <= q0 < np.inf):
        raise DomainError(f"q0 must be finite and nonnegative, got {q0!r}")
    if r_schedule is None:
        r_schedule = default_r_schedule(2, 8)
    r_schedule = tuple(r_schedule)
    peaks = max_modulus(fn, np.array(r_schedule, dtype=float), coarse=coarse).tolist()
    return list(zip(r_schedule, _bound_ratios(r_schedule, peaks, q0)))


def _bound_ratios(radii, peaks, q0):
    """M(r) * (1-r)^q0 for each radius r and its maximum modulus M(r)."""
    return [M * (1.0 - r) ** q0 for r, M in zip(radii, peaks)]


# -- maximal sectors ---------------------------------------------------------


def _sector_image(fn, angle, image_grid, cluster_points):
    """arg_lambda and log|.| of fn's values on the sector detection grid.

    The grid has n_r radii refining toward the circle times n_theta uniform
    angles plus cluster_points angles on each side of every atom, closing in
    geometrically; both arrays are flattened.
    """
    n_r, n_theta = image_grid
    radii = 1.0 - np.geomspace(1e-5, 0.5, n_r)
    thetas = [np.arange(n_theta) * (TWO_PI / n_theta)]
    offsets = np.geomspace(1e-7, 0.5, cluster_points)
    for t_atom, _ in fn.measure.atoms:
        thetas.append(t_atom + offsets)
        thetas.append(t_atom - offsets)
    thetas = np.concatenate(thetas)
    W = fn.evaluate(radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    return arg_lambda(W, angle), np.log(np.abs(W))


def _certify_sector(sector, grid_arg, grid_logmod, arg_tol, inner):
    """Raise InconsistencyError unless the grid covers every sector sample.

    A sample w is covered by a grid value whose spiral argument is within
    arg_tol of w's and whose modulus is at least |w| (so w lies on its inward
    spiral segment).  The grid arguments are reduced to (-pi, pi] and sorted
    once; each sample then applies that test only to the grid values whose
    reduced argument falls in its window, widened by a pad that exceeds the
    rounding of the reductions, and split at the -pi/pi cut.  Every grid
    value the test accepts lies in the window, so the decision is that of a
    scan over the whole grid, at O(N log N + samples x window) cost.
    """
    angle = sector.angle
    reduced = principal_angle(grid_arg)
    order = np.argsort(reduced)
    keys = reduced[order]
    scale = float(np.max(np.abs(grid_arg), where=np.isfinite(grid_arg), initial=0.0))
    phis = sector.center_angle + inner * (sector.opening / 2.0) * np.linspace(-1.0, 1.0, 9)
    for phi in phis:
        for t in (-3.0, -1.5, 0.0, 1.5, 3.0):
            w = spiral_point(phi, angle, t)
            if not sector_contains(sector, w):
                raise InconsistencyError(
                    f"sample point for spiral argument {phi:.6f} left the sector"
                )
            a = arg_lambda(w, angle)
            # each reduction mod 2*pi loses a few ulps of its input's magnitude
            half_width = arg_tol + 1e-9 * (1.0 + scale + abs(a))
            a0 = principal_angle(a)
            lo, hi = a0 - half_width, a0 + half_width
            cand = np.concatenate([
                order[np.searchsorted(keys, lo + s, "left"):np.searchsorted(keys, hi + s, "right")]
                for s in (-TWO_PI, 0.0, TWO_PI)
            ])
            dist = np.abs(principal_angle(grid_arg[cand] - a))
            hit = (dist <= arg_tol) & (grid_logmod[cand] >= np.log(np.abs(w)) - 1e-9)
            if not np.any(hit):
                raise InconsistencyError(
                    f"sector sample at spiral argument {phi:.6f}, t = {t} "
                    "is not covered by the image grid"
                )


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
    disk grid (images of spirallike functions contain these segments).  The
    grid's N spiral arguments are sorted once and each sample looks only at
    the window of those within arg_tol of its own, so certification costs
    O(N log N + samples x window) on top of the grid evaluation.
    """
    angle = fn.angle if angle is None else angle
    image_grid = tuple(_grid_size(n, "image_grid size") for n in image_grid)
    cluster_points = _grid_size(cluster_points, "cluster_points")
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
    grid_arg, grid_logmod = _sector_image(fn, angle, image_grid, cluster_points)
    _certify_sector(sector, grid_arg, grid_logmod, arg_tol, inner)
    return sector
