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


# interior points per lane and step of section_search_max
_SECTION_POINTS = 8


def section_search_max(f, a, b, tol=1e-12):
    """Maximum of a unimodal f on [a, b] by an m-point section search.

    a and b may also be arrays of one shape, each entry the bracket of an
    independent lane.  Each step samples m = _SECTION_POINTS equally spaced
    interior points of every lane in one call: f gets an array of shape
    a.shape + (m,) and returns one value per point.  A lane's bracket then
    shrinks to the two neighbours of its best sample (the bracket ends count
    as neighbours), a factor of about 2/(m + 1) per step.  A lane freezes
    once its bracket is within tol or stops shrinking at float spacing (its
    points are still sampled, inside the final bracket, until every lane is
    done, and the values are discarded), so each lane ends exactly where the
    search on its bracket alone would.  Returns (x, f(x)) at the best point
    sampled: floats for scalar brackets, else arrays.  DomainError unless
    tol is finite and positive and every bracket is finite with a <= b;
    AccuracyError when a lane sampled no finite value.
    """
    if not (0.0 < tol < np.inf):
        raise DomainError(f"search tolerance must be finite and positive, got {tol!r}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and (a <= b).all()):
        raise DomainError("search brackets must be finite with a <= b")
    shape, m = a.shape, _SECTION_POINTS
    a, b = a.ravel(), b.ravel()
    lanes = np.arange(a.size)
    frac = np.arange(1, m + 1) / (m + 1)
    best_x = np.full(a.size, np.nan)
    best_f = np.full(a.size, -np.inf)
    live = np.ones(a.size, dtype=bool)
    while live.any():
        # row i holds lane i's nodes a, x_1 .. x_m, b
        lo, hi = a[:, None], b[:, None]
        nodes = np.concatenate((lo, lo + (hi - lo) * frac, hi), axis=1)
        fx = np.asarray(f(nodes[:, 1:-1].reshape(shape + (m,))), dtype=float).reshape(-1, m)
        k = np.argmax(fx, axis=1)
        top = fx[lanes, k]
        gain = live & (top > best_f)
        best_x = np.where(gain, nodes[lanes, k + 1], best_x)
        best_f = np.where(gain, top, best_f)
        # x_m can round past b; the clamp keeps each bracket inside the last
        lo, hi = nodes[lanes, k], np.minimum(nodes[lanes, k + 2], b)
        live &= hi - lo < b - a
        a, b = np.where(live, lo, a), np.where(live, hi, b)
        live &= b - a > tol
    if not np.isfinite(best_f).all():
        raise AccuracyError("the search sampled no finite value of f")
    if not shape:
        return float(best_x[0]), float(best_f[0])
    return best_x.reshape(shape), best_f.reshape(shape)


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
    DomainError for a threshold that is not finite and nonnegative.
    """
    if gap_threshold is not None and not (0.0 <= gap_threshold < np.inf):
        raise DomainError(f"gap_threshold must be finite and nonnegative, got {gap_threshold!r}")
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
    window.  Returns (jump, t0).  DomainError unless the bracket is finite
    with t_lo < t_hi and windows holds at least 3 distinct values in (0, 1),
    as the quadratic fit needs.
    """
    angle = fn.angle if angle is None else angle
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (-np.inf < t_lo < t_hi < np.inf):
        raise DomainError(f"bracket must be finite with t_lo < t_hi, got {bracket!r}")
    w = np.asarray(windows, dtype=float)
    if w.ndim != 1 or np.unique(w).size < 3 or not ((0.0 < w) & (w < 1.0)).all():
        raise DomainError(f"windows must be at least 3 distinct values in (0, 1), got {windows!r}")

    def trace_at(ts):
        return ts + _arg_lambda_f_over_z(fn, angle, r * np.exp(1j * ts))

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
    """Max of |f| on |z| = r: coarse circle scan plus section-search refinement.

    r is one radius (returns a float) or a 1-d array of radii (returns an
    array, one maximum per radius); every radius is checked before any work.
    One evaluate call scans all the circles at the coarse angles.  The top
    three cyclic local maxima of each scan are refined over one coarse
    spacing each, all of them lanes of one lockstep section_search_max with
    tol 1e-12, one evaluate call per search step (16 steps at the default
    coarse = 1024).  The result is the largest value sampled, a lower bound
    on the maximum: for a peak unimodal at that scale it lies within
    kappa * tol^2 / 8 of it relatively before rounding, kappa =
    |d^2 log|f| / d theta^2| at the peak (2r/(1 - r)^2 for Koebe).
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
        return np.abs(fn.evaluate(lane_r[:, None] * np.exp(1j * theta)))

    _, refined = section_search_max(profile, lane_theta - h, lane_theta + h)
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


def _sector_grid(fn, image_grid, cluster_points):
    """Radii and angles of the sector detection grid.

    n_r radii refine toward the circle; the angles are n_theta uniform ones
    plus cluster_points on each side of every atom, closing in geometrically.
    """
    n_r, n_theta = image_grid
    radii = 1.0 - np.geomspace(1e-5, 0.5, n_r)
    thetas = [np.arange(n_theta) * (TWO_PI / n_theta)]
    offsets = np.geomspace(1e-7, 0.5, cluster_points)
    for t_atom, _ in fn.measure.atoms:
        thetas.append(t_atom + offsets)
        thetas.append(t_atom - offsets)
    return radii, np.concatenate(thetas)


def _sector_image(fn, angle, image_grid, cluster_points):
    """arg_lambda and log|.| of fn's values on the sector detection grid, flattened.

    Both are read off L = log(f/z) at z = r*exp(i*theta) without forming f:
    log|f| is log r + Re L, and theta + Im L is an argument of f, so the
    spiral argument is right modulo 2*pi, which is all that certification
    uses.
    """
    radii, thetas = _sector_grid(fn, image_grid, cluster_points)
    L = fn.log_f_over_z(radii[:, None] * np.exp(1j * thetas)[None, :])
    if not np.isfinite(L).all():
        raise DomainError("spiral argument needs finite points")
    logmod = np.log(radii)[:, None] + L.real
    return (thetas + L.imag - angle.tan_lambda * logmod).ravel(), logmod.ravel()


_SAMPLE_T = (-3.0, -1.5, 0.0, 1.5, 3.0)


def _sector_samples(sector, inner):
    """The sector samples as (9, 5) arrays over (label phi, t in _SAMPLE_T).

    Returns the nine labels, which span the inner part of the opening, and
    the sample points' spiral arguments, log-moduli and sector memberships.
    """
    angle = sector.angle
    phis = sector.center_angle + inner * (sector.opening / 2.0) * np.linspace(-1.0, 1.0, 9)
    w = spiral_point(phis[:, None], angle, np.array(_SAMPLE_T))
    return phis, arg_lambda(w, angle), np.log(np.abs(w)), sector_contains(sector, w)


def _certify_sector(sector, grid_arg, grid_logmod, arg_tol, inner):
    """Raise InconsistencyError unless the grid covers every sector sample.

    The samples are five points (t in _SAMPLE_T) on each of nine spirals
    whose labels phi span the inner part of the opening, computed as (9, 5)
    arrays by _sector_samples.  A sample w is covered by a grid value whose
    spiral argument is within arg_tol of w's and whose modulus is at least
    |w| (so w lies on its inward spiral segment).  The grid arguments are
    reduced to (-pi, pi] and sorted once.  The five samples of one label
    share one window of reduced arguments: the hull of their own windows,
    each widened by a pad that exceeds the rounding of the reductions,
    searched at shifts -2*pi, 0 and 2*pi across the -pi/pi cut (a label
    whose samples reduce to both sides of the cut gets the whole circle).
    The nine windows are located by two searchsorted calls.  The five are
    tested together against the grid values in it, then checked in (phi, t)
    order, sector membership before coverage.  Every grid value the test accepts lies in the window, so
    decisions and messages are those of a scan over the whole grid, at
    O(N log N + labels x samples x window) cost.
    """
    reduced = principal_angle(grid_arg)
    order = np.argsort(reduced)
    keys = reduced[order]
    scale = float(np.max(np.abs(grid_arg), where=np.isfinite(grid_arg), initial=0.0))
    phis, a, logmod, inside = _sector_samples(sector, inner)
    floor = logmod - 1e-9
    # each reduction mod 2*pi loses a few ulps of its input's magnitude
    half_width = arg_tol + 1e-9 * (1.0 + scale + np.abs(a))
    a0 = principal_angle(a)
    shifts = np.array([-TWO_PI, 0.0, TWO_PI])
    starts = np.searchsorted(keys, np.min(a0 - half_width, axis=1)[:, None] + shifts, "left")
    stops = np.searchsorted(keys, np.max(a0 + half_width, axis=1)[:, None] + shifts, "right")
    for i, phi in enumerate(phis):
        cand = np.concatenate([order[lo:hi] for lo, hi in zip(starts[i], stops[i])])
        dist = np.abs(principal_angle(grid_arg[cand] - a[i][:, None]))
        covered = ((dist <= arg_tol) & (grid_logmod[cand] >= floor[i][:, None])).any(axis=1)
        for t, within, hit in zip(_SAMPLE_T, inside[i], covered):
            if not within:
                raise InconsistencyError(
                    f"sample point for spiral argument {phi:.6f} left the sector"
                )
            if not hit:
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
    grid's spiral arguments and log-moduli are read off one log_f_over_z
    call.  Its N spiral arguments are sorted once; the five samples on each
    of the nine sampled spirals share one window, those within arg_tol of
    any of their own, so certification costs O(N log N + samples x window)
    on top of the grid evaluation.
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
