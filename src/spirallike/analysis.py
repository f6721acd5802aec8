"""Numerical verification suite for spirallike functions.

Margins for the defining inequality, boundary traces of the measure,
jump detection and refinement, maximal spiral sectors, maximum modulus,
growth exponents, and the bounded-ratio experiment.

Every kernel value reaches these routines through representation._pointwise,
which raises DomainError where one is not finite, so no routine here checks
them again; only a BetaTrace handed in from outside is checked for finite
entries (estimate_max_jump).
"""

import functools
from typing import NamedTuple

import numpy as np

from .correspondence import starlike_of
from .errors import (
    _MAX_POINTS,
    DomainError,
    InconsistencyError,
    _grid_size,
    _instance,
    _numbers,
    _real_number,
    _scalar,
)
from .representation import SpiralFunction
from .spiral_geometry import (
    TWO_PI,
    SpiralSector,
    _record,
    principal_angle,
)

_MONOTONE_TOL = 1e-6


def default_r_schedule(k_min=2, k_max=6):
    """Radii 1 - 10^-k for whole k in [k_min, k_max].

    DomainError unless 1 <= k_min <= k_max <= 15.  1 - 10^-16 lies one ulp
    below 1.0, and on its circle 103 of the 1,024 scan points z = r e^(it)
    round to |z| = 1, outside the disk.
    """
    k_min, k_max = _grid_size(k_min, "k_min"), _grid_size(k_max, "k_max")
    if k_min > k_max:
        raise DomainError(f"k_min = {k_min} exceeds k_max = {k_max}")
    if k_max > 15:
        raise DomainError(f"k_max = {k_max} exceeds 15: points on |z| = 1 - 10^-{k_max} "
                          "round to |z| = 1")
    return tuple(1.0 - 10.0**-k for k in range(k_min, k_max + 1))


# interior points per lane and step of _section_search.  A step has a
# fixed cost of 35-85 us (bookkeeping plus one kernel call) against 20-130 ns
# per point.  The benchmark's calls run few lanes: 1 (spirallikeness_margin,
# refine_jump), 7 (growth_exponent, hansen_ratio), 18 then 9
# (detect_maximal_sector).  There more points per step cost little and each
# saves steps: at 64 a bracket of two scan spacings (2*2*pi/1024) reaches tol
# 1e-12 in 7 steps.  A circle with many peaks runs a lane per peak, and the
# points dominate: on a 24-atom measure max_modulus over 7 radii runs 167
# lanes (235 ms on a 2-core VM) and the margin 25 (26 ms).
_SECTION_POINTS = 64


def _section_search(f, a, b, tol=1e-12):
    """Maximum of a unimodal f on [a, b] by an m-point section search.

    a and b may also be arrays of one shape, each entry the bracket of an
    independent lane.  Each step samples m = _SECTION_POINTS = 64 equally
    spaced interior points of every lane in one call: f gets an array of
    shape a.shape + (m,), increasing along the last axis, and returns one
    value per point.  A lane's bracket then shrinks to the two neighbours of
    its best sample (the bracket ends count as neighbours), a factor of
    2/(m + 1) per step, so a bracket of width 2*2*pi/1024 reaches tol 1e-12
    in 7 steps.  A lane freezes once its bracket is within tol or stops
    shrinking at float spacing (its points are still sampled, inside the
    final bracket, until every lane is done, and the values are discarded),
    so each lane ends exactly where the search on its bracket alone would.
    Returns (x, f(x)) at the best point sampled, as arrays of the
    brackets' shape (0-d for scalar brackets).  The callers pass a positive
    tol and finite brackets with a <= b, so nothing here checks them.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, m = a.shape, _SECTION_POINTS
    a, b = a.flatten(), b.flatten()
    # row i of a step's nodes holds lane i's a, x_1 .. x_m, b; its best
    # sample x_k and the two neighbours are flat entries i*(m + 2) + k + 0..2
    frac = np.arange(m + 2) / (m + 1)
    around = np.arange(a.size) * (m + 2) + np.arange(3)[:, None]
    sample_rows = np.arange(a.size) * m
    best_x = np.full(a.size, np.nan)
    best_f = np.full(a.size, -np.inf)
    live = np.ones(a.size, dtype=bool)
    while live.any():
        nodes = a[:, None] + (b - a)[:, None] * frac
        nodes[:, 0], nodes[:, -1] = a, b
        fx = np.asarray(f(nodes[:, 1:-1].reshape(shape + (m,))), dtype=float).reshape(-1, m)
        k = np.argmax(fx, axis=1)
        top = fx.ravel()[sample_rows + k]
        lo, x, hi = nodes.ravel()[around + k]
        gain = live & (top > best_f)
        np.copyto(best_x, x, where=gain)
        np.copyto(best_f, top, where=gain)
        # x_m can round past b; the clamp keeps each bracket inside the last
        hi = np.minimum(hi, b)
        width = hi - lo
        move = live & (width < b - a)
        np.copyto(a, lo, where=move)
        np.copyto(b, hi, where=move)
        live = move & (width > tol)
    return best_x.reshape(shape), best_f.reshape(shape)


# room for the fixed scans (_CIRCLE_SCAN and goodman_check's default 512
# angles) and one more size
@functools.lru_cache(maxsize=3)
def _unit_circle(n):
    """The n points exp(i*2*pi*k/n), k = 0..n-1, as a read-only array built once per n."""
    circle = np.exp(1j * (np.arange(n) * (TWO_PI / n)))
    circle.flags.writeable = False
    return circle


# -- boundary traces -------------------------------------------------------


@_record
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


def _radii(r_schedule, default):
    """r_schedule, or default when None, as a tuple of floats.

    DomainError unless it is a nonempty sequence of numbers that increases
    strictly inside (0, 1).
    """
    radii = _numbers(default if r_schedule is None else r_schedule, float, "r_schedule")
    radii = tuple(radii.tolist()) if radii.ndim == 1 else ()
    # 0 < r_1 < ... < r_n < 1, False for a NaN
    if not (radii and all(a < b for a, b in zip((0.0,) + radii, radii + (1.0,)))):
        raise DomainError("r_schedule must be nonempty and strictly increasing inside (0, 1)")
    return radii


def _trace(fn, r, theta):
    """The boundary trace theta + arg_lambda(f/z) at z = r*exp(i*theta).

    arg_lambda(f/z) is the continuous branch vanishing at the center, which
    fn.arg_lambda_f_over_z reads as Im log(g/z) of the starlike partner g;
    the trace is arg_lambda f minus tan(lam) * log r.  r and theta broadcast.
    """
    return theta + fn.arg_lambda_f_over_z(r * np.exp(1j * theta))


def beta_trace(fn, t_grid=256, r_schedule=None):
    """Estimate the boundary function on a uniform t grid over [0, 2*pi).

    The estimate at each radius r of the increasing schedule is the trace
    _trace(fn, r, t); successive radii document convergence toward the
    boundary limit.  DomainError unless fn is a SpiralFunction, t_grid is a
    whole number at least 1 and t_grid times the number of radii is at most
    _MAX_POINTS = 2^24.
    """
    _instance(fn, SpiralFunction, "a function")
    r_schedule = _radii(r_schedule, default_r_schedule())
    n_t = _grid_size(t_grid, "t_grid", _MAX_POINTS // len(r_schedule))
    t = np.arange(n_t) * (TWO_PI / n_t)
    estimates = _trace(fn, np.array(r_schedule)[:, None], t)
    deltas = np.max(np.abs(np.diff(estimates, axis=0)), axis=1)
    record = [(r_schedule[0], np.nan)]
    record.extend((r, float(d)) for r, d in zip(r_schedule[1:], deltas))
    return BetaTrace(
        t_samples=t,
        beta_values=estimates[-1],
        radius_used=r_schedule[-1],
        refinement_record=tuple(record),
    )


def _rising_gaps(t, values):
    """Increments of a trace along the last axis of its values, sampled at angles t rising along it.

    The trace of a spirallike function increases along every circle, so an
    increment below -_MONOTONE_TOL raises InconsistencyError.
    """
    gaps = np.diff(values, axis=-1)
    k = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[k] < -_MONOTONE_TOL:
        raise InconsistencyError(
            f"trace decreases by {-float(gaps[k]):.3g} near t = {float(t[k]):.6f}"
        )
    return gaps


def _trace_gaps(t, values):
    """Increments of a trace sampled at angles t over one turn, the last wrapping by 2*pi.

    InconsistencyError as in _rising_gaps.
    """
    return _rising_gaps(t, np.append(values, values[0] + TWO_PI))


def _invert_trace(fn, r, targets, lo, hi, tol=1e-12):
    """Angles in [lo, hi] where the trace on |z| = r meets targets: (theta, -|trace - target|).

    One lockstep _section_search on -|trace - target|, a lane per
    bracket [lo, hi] and its target (arrays of one shape, or scalars).
    Every row it samples is checked by _rising_gaps, so InconsistencyError
    when one decreases.
    """
    targets = np.asarray(targets)[..., None]

    def closeness(theta):
        values = _trace(fn, r, theta)
        _rising_gaps(theta, values)
        return -np.abs(values - targets)

    return _section_search(closeness, lo, hi, tol)


def estimate_max_jump(trace):
    """Largest jump of a boundary trace: (jump, location, center).

    Adjacent-sample increments above a threshold of 10 median increments
    (at least 1e-6) are jump candidates; two above-threshold increments
    sharing a sample merge into one jump located at that sample (an atom
    aligned with the grid splits its mass between the two neighboring
    gaps).  Returns jump 0 when nothing exceeds the threshold.  So the jump
    is the largest mass that one gap, or two adjacent gaps, hold, the
    density's share of those gaps included: two atoms less than one sample
    spacing apart come back as their sum, two more than two spacings apart
    as the larger atom, and in between either can happen.  An atom within
    about 1e-4 of a sample may lose a few hundredths of its mass, spread
    past that sample at radius_used, to a gap below the threshold.
    DomainError unless trace is a BetaTrace, for an empty trace, for
    t_samples and beta_values that are not 1-d arrays of one length, for a
    non-finite entry, and for angles that do not increase strictly within
    one turn.
    """
    _instance(trace, BetaTrace, "a trace")
    t = np.asarray(trace.t_samples, dtype=float)
    v = np.asarray(trace.beta_values, dtype=float)
    n = t.size
    if n == 0:
        raise DomainError("the trace has no samples")
    if t.ndim != 1 or v.shape != t.shape:
        raise DomainError(f"the trace needs one value per angle, got {t.shape} and {v.shape}")
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise DomainError("the trace has a non-finite angle or value")
    if (np.diff(t) <= 0.0).any() or t[-1] - t[0] >= TWO_PI:
        raise DomainError("the trace angles must increase strictly within one turn")
    gaps = _trace_gaps(t, v)
    gap_threshold = max(10.0 * float(np.median(gaps)), 1e-6)
    over = np.flatnonzero(gaps > gap_threshold)
    if over.size == 0:
        return JumpEstimate(0.0, np.nan, np.nan)
    # candidates with i rising: gap i alone, then merged with gap i + 1 when
    # that one is over too; np.argmax keeps the first largest
    after = (over + 1) % n
    merged_gaps = np.where(gaps[after] > gap_threshold, gaps[over] + gaps[after], -np.inf)
    candidates = np.column_stack((gaps[over], merged_gaps))
    k, merged = divmod(int(np.argmax(candidates)), 2)
    i, j = over[k], after[k]
    if merged:
        return JumpEstimate(float(candidates[k, 1]), float(t[j]), float(v[j]))
    # the gap after the last sample wraps to the first, one turn on
    t_next, v_next = (t[j], v[j]) if j else (t[0] + TWO_PI, v[0] + TWO_PI)
    return JumpEstimate(float(gaps[i]), float(0.5 * (t[i] + t_next)), float(0.5 * (v[i] + v_next)))


# refine_jump's circle and its trace windows.  The windows sit well below
# 1e-3 because terms of size O(w) are exponentially small in x = 1/log(1/w)
# and wreck the quadratic fit in x when its extrapolation leverage (~6x
# here) amplifies them; the radius is then close enough to 1 that boundary
# smoothing stays below the smallest window.
_REFINE_RADIUS = 1.0 - 1e-12
_REFINE_WINDOWS = (1e-4, 1e-5, 1e-6)


def refine_jump(fn, bracket):
    """Sharpened jump estimate at a single boundary point.

    bracket: (t_lo, t_hi) containing exactly one jump.  The trace (_trace)
    increases along circles for spirallike f, so _invert_trace locates the
    jump point (to 2e-10, in 6 steps from a bracket of two 256-grid
    spacings) where the trace crosses the midpoint mid of its bracket
    values; the two-sided trace difference E(w) over the shrinking windows
    w still carries a mass ~ jump_density/log(1/w) from any logarithmically
    divergent density next to the atom, so E is extrapolated quadratically
    in x = 1/log(1/w) to window 0.  Returns (jump, t0).  DomainError unless
    fn is a SpiralFunction and the bracket is a pair of finite numbers with
    t_lo < t_hi; InconsistencyError when the trace decreases by more than
    _MONOTONE_TOL from t_lo to t_hi, along a row the search samples or
    across a window, and when the crossing t0 misses the jump: E stays near
    the jump's size across the windows at a jump but falls about 10x per
    decade of w where the trace is smooth, so E at w = 1e-6 below a tenth of
    E at w = 1e-4 raises, and so does an E of 0 at w = 1e-4, where the
    trace does not rise at all: far out on the t axis (|t| near 1e9 and
    beyond) the windows are finer than the trace resolves.
    """
    _instance(fn, SpiralFunction, "a function")
    try:
        t_lo, t_hi = (float(t) for t in bracket)
        valid = -np.inf < t_lo < t_hi < np.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise DomainError(
            f"bracket must be a pair (t_lo, t_hi), finite with t_lo < t_hi, got {bracket!r}"
        )
    r, w = _REFINE_RADIUS, np.array(_REFINE_WINDOWS)
    ends = np.array([t_lo, t_hi])
    lo, hi = values = _trace(fn, r, ends)
    _rising_gaps(ends, values)
    t0 = float(_invert_trace(fn, r, 0.5 * (lo + hi), t_lo, t_hi, tol=2e-10)[0])
    # one row (t0 - w, t0 + w) per window
    rows = t0 + np.outer(w, (-1.0, 1.0))
    E = _rising_gaps(rows, _trace(fn, r, rows))[:, 0]
    if not (E[0] > 0.0 and E[-1] >= 0.1 * E[0]):
        raise InconsistencyError(f"no jump at t = {t0!r}: the trace rises {E.tolist()} there")
    x = 1.0 / np.log(1.0 / w)
    coeffs = np.polyfit(x, E, 2)
    return float(np.polyval(coeffs, 0.0)), t0


# -- pointwise certificates -------------------------------------------------


def spirallikeness_margin(fn, r_max=0.999):
    """Minimum of Re(exp(-i*lam) * zf'/f) over the disk |z| <= r_max.

    The pairing log(f/z) = mu*log(g/z) makes it cos(lam) times the minimum
    of Re(zg'/g) for the starlike partner g = starlike_of(fn), so no
    rotation is formed.  zg'/g = 1 + z d/dz log(g/z) is analytic on the
    disk, so the real part is harmonic and its minimum lies on the circle
    |z| = r_max: _circle_max takes it there from its _CIRCLE_SCAN =
    1024-angle scan, every scanned local extremum refined.  Positive values
    certify the spirallike condition.  DomainError unless fn is a
    SpiralFunction.
    """
    _instance(fn, SpiralFunction, "a function")
    g = starlike_of(fn)
    return _scalar(fn.angle.cos_lambda * -_circle_max(lambda z: -g.log_derivative(z).real, r_max))


# outer radius of goodman_check's polar grid
_GOODMAN_RADIUS = 0.999


@functools.lru_cache(maxsize=1)
def _goodman_ladder(n_theta, J):
    """goodman_check's grid and bound as read-only arrays, radii-major.

    The (J, n_theta) points rho_j * exp(i*theta) and the (J, 1) bounds
    2*arcsin(rho_j), row j at the radius rho_j = 1 - gap^(j/J), j = 1..J,
    gap = 1 - 0.999.  Only the last grid asked for is kept.
    """
    gap = 1.0 - _GOODMAN_RADIUS
    rho = 1.0 - gap ** (np.arange(1, J + 1) / J)
    grid = rho[:, None] * _unit_circle(n_theta)
    bound = 2.0 * np.arcsin(rho)[:, None]
    grid.flags.writeable = bound.flags.writeable = False
    return grid, bound


# the default n_steps is 24 radii per decade of gap = 1 - 0.999, plus 16.
# 1/gap rounds to 999.99..., so int(24*log10(1/gap)) + 16 is 87, not 88.
def goodman_check(g, grid=(512, 87)):
    """Max of |arg_lambda(f(z)/z)| - 2*arcsin|z| over a polar grid.

    The argument is g.arg_lambda_f_over_z, Im log(g/z) of the starlike
    partner g on the analytic branch vanishing at the center, so every
    inclination checks Goodman's bound |arg(g/z)| <= 2*arcsin|z| in its
    lambda-form, and a handle turned to another inclination gives its
    partner's value.  Nonpositive (within roundoff) for every spirallike
    function.  grid = (n_theta, n_steps): the grid is n_theta angles times
    the radii rho_j = 1 - gap^(j/J), j = 1..J, J = n_steps, gap = 1 - 0.999,
    refining geometrically toward 0.999.  The grid is stored radii-major,
    one row per radius, built once per (n_theta, J) and kept until a call
    with another grid.  DomainError unless g is a SpiralFunction, grid is a
    pair of whole numbers at least 1 and the grid has at most _MAX_POINTS =
    2^24 points.
    """
    _instance(g, SpiralFunction, "a function")
    try:
        n_theta, n_steps = grid
    except (TypeError, ValueError):
        raise DomainError(
            f"grid must be a pair (n_theta, n_steps) of whole numbers at least 1, got {grid!r}"
        ) from None
    n_steps = _grid_size(n_steps, "grid n_steps")
    n_theta = _grid_size(n_theta, "grid n_theta", _MAX_POINTS // n_steps)
    points, bound = _goodman_ladder(n_theta, n_steps)
    excess = np.abs(g.arg_lambda_f_over_z(points))
    excess -= bound
    return float(np.max(excess))


# angles of _circle_max's scan, no knob: from 256 to 4096 angles the margin
# agrees to 7e-13 relative (g0, Koebe, Hansen, 60 random atomic measures)
# and M(r) moves only at the search tolerance (1.5e-11 relative).
_CIRCLE_SCAN = 1024


def _circle_max(values, r):
    """Max of a real function values(z) on |z| = r: a scan plus section-search refinement.

    r is one radius or a 1-d array of radii; the result has r's shape, one
    maximum per radius, and every radius is checked before any work.
    One values call scans all the circles at _CIRCLE_SCAN angles.  Every
    scanned local maximum (a flat run counts once, a constant circle has
    none) is refined over one scan spacing, as a lane of one lockstep
    _section_search (tol 1e-12, 7 steps, one values call each).  The
    result is the largest value sampled, a lower bound on the maximum.
    """
    radii = _numbers(r, float, "radii")
    if radii.ndim > 1:
        raise DomainError(f"radii must be a scalar or a 1-d array, got shape {radii.shape}")
    rows = np.atleast_1d(radii)
    bad = [x for x in rows.tolist() if not (0.0 < x < 1.0)]
    if bad:
        raise DomainError(f"radius must lie in (0, 1), got {bad[0]!r}")

    vals = values(rows[:, None] * _unit_circle(_CIRCLE_SCAN))
    peaks = (vals > np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    lane_row, lane_peak = np.nonzero(peaks)
    h = TWO_PI / _CIRCLE_SCAN
    lane_r = rows[lane_row]
    lane_theta = lane_peak * h

    def profile(theta):
        return values(lane_r[:, None] * np.exp(1j * theta))

    _, refined = _section_search(profile, lane_theta - h, lane_theta + h)
    best = np.max(vals, axis=1)
    np.maximum.at(best, lane_row, refined)
    return best.reshape(radii.shape)


def _log_modulus(fn, z):
    """log|f(z)| = log|z| + Re log(f/z)."""
    return np.log(np.abs(z)) + fn.log_f_over_z(z).real


def max_modulus(fn, r):
    """Max of |f| on |z| = r: a float for one radius, else an array.

    It is exp of _circle_max on log|f| (_log_modulus): the largest value
    sampled, a lower bound on the maximum.  For a peak unimodal at one scan
    spacing it lies within kappa * tol^2 / 8 of it relatively before
    rounding, tol = 1e-12 and kappa = |d^2 log|f| / d theta^2| at the peak
    (2r/(1 - r)^2 for Koebe).  It makes 1 + 7 fn.log_f_over_z calls: the
    scan of _CIRCLE_SCAN = 1024 angles, then one per search step.
    DomainError unless fn is a SpiralFunction.
    """
    _instance(fn, SpiralFunction, "a function")
    return _scalar(np.exp(_circle_max(lambda z: _log_modulus(fn, z), r)))


# -- growth experiments ------------------------------------------------------


@_record
class GrowthReport:
    """Rows (r, M(r), E(r) = log M / log(1/(1-r))) plus the predicted exponent."""

    rows: tuple
    predicted_q0: float
    a_estimate: float


def growth_exponent(fn, r_schedule=None):
    """Growth table for fn with the jump-based exponent prediction.

    log M(r) along the schedule (default_r_schedule(2, 8)) comes from one
    batched _circle_max call on log|f| (_log_modulus), and E = log M /
    log(1/(1-r)).  a_estimate is fn.known_max_jump (a measure's largest
    atom, or a declared closed-form jump); predicted_q0 = a_estimate *
    cos(lam)^2 / pi.  DomainError unless fn is a SpiralFunction, when fn has
    no known jump, for a schedule as in hansen_ratio, and when 1 - r rounds
    to 1 at its first radius r, where log(1/(1-r)) is 0.
    """
    _instance(fn, SpiralFunction, "a function")
    r_schedule = _radii(r_schedule, default_r_schedule(2, 8))
    # the schedule increases, so only its first radius can be that small
    if 1.0 - r_schedule[0] == 1.0:
        raise DomainError(f"1 - r rounds to 1 at r = {r_schedule[0]!r}: E(r) would divide by 0")
    if fn.known_max_jump is None:
        raise DomainError("growth prediction needs the function's known_max_jump")
    a_estimate = float(fn.known_max_jump)
    log_peaks = _circle_max(lambda z: _log_modulus(fn, z), np.array(r_schedule)).tolist()
    rows = tuple(
        (r, float(np.exp(log_m)), float(log_m / np.log(1.0 / (1.0 - r))))
        for r, log_m in zip(r_schedule, log_peaks)
    )
    cos_lam = fn.angle.cos_lambda
    return GrowthReport(
        rows=rows,
        predicted_q0=float(a_estimate * cos_lam * cos_lam / np.pi),
        a_estimate=a_estimate,
    )


def hansen_ratio(fn, q0, r_schedule=None):
    """Ratio sequence (r, M(r, fn) * (1-r)^q0) along the schedule.

    An unbounded increase exhibits failure of the O((1-r)^-q0) bound.  M(r)
    along the schedule (default_r_schedule(2, 8)) comes from one batched
    max_modulus call.  DomainError unless fn is a SpiralFunction and the
    schedule is nonempty and increases strictly inside (0, 1).
    """
    _instance(fn, SpiralFunction, "a function")
    if not (0.0 <= _real_number(q0, "q0") < np.inf):
        raise DomainError(f"q0 must be finite and nonnegative, got {q0!r}")
    r_schedule = _radii(r_schedule, default_r_schedule(2, 8))
    peaks = max_modulus(fn, np.array(r_schedule)).tolist()
    return list(zip(r_schedule, _bound_ratios(r_schedule, peaks, q0)))


def _bound_ratios(radii, peaks, q0):
    """M(r) * (1-r)^q0 for each radius r and its maximum modulus M(r)."""
    return [M * (1.0 - r) ** q0 for r, M in zip(radii, peaks)]


# -- maximal sectors ---------------------------------------------------------

# the circle on which the boundary trace is inverted, its scan, and the
# distance in spiral argument within which an image point covers samples
_SECTOR_RADIUS = 1.0 - 1e-5
_SECTOR_SCAN = 256
_SECTOR_ARG_TOL = 0.025

# the sample spirals span this share of the opening; the samples on each
# sit at these t
_SAMPLE_INNER = 0.9
_SAMPLE_T = (-3.0, -1.5, 0.0, 1.5, 3.0)


def _sector_samples(sector):
    """The sector samples: the nine labels phi and the log-moduli of the t in _SAMPLE_T.

    The labels span the inner _SAMPLE_INNER of the opening.  The sample
    exp(i*phi + exp(i*lam)*t) has spiral argument phi, inside the sector,
    and log-modulus t*cos(lam) on every label.
    """
    half = _SAMPLE_INNER * sector.opening / 2.0
    phis = sector.center_angle + half * np.linspace(-1.0, 1.0, 9)
    return phis, np.array(_SAMPLE_T) * sector.angle.cos_lambda


def _sector_crossings(fn, phis):
    """Angles theta where the circle |z| = _SECTOR_RADIUS meets the spirals phis, and log|f| there.

    The trace (_trace) on the circle is arg_lambda f minus tan(lam) * log r
    and increases by 2*pi in one turn.  A scan of _SECTOR_SCAN angles
    brackets each crossing; _invert_trace locates them.  InconsistencyError
    when the scan or a row the search samples decreases (as in
    estimate_max_jump), and when a located point misses its spiral by more
    than 1e-6.
    """
    r = _SECTOR_RADIUS
    thetas = np.arange(_SECTOR_SCAN + 1) * (TWO_PI / _SECTOR_SCAN)
    scan = _trace(fn, r, thetas[:-1])
    _trace_gaps(thetas[:-1], scan)
    # the trace values of the labels, inside the scanned turn
    targets = scan[0] + np.mod(phis + fn.angle.tan_lambda * np.log(r) - scan[0], TWO_PI)
    k = np.searchsorted(np.append(scan, scan[0] + TWO_PI), targets, "right") - 1
    # an offset just below 2*pi can round up to the end of the turn
    k = np.minimum(k, _SECTOR_SCAN - 1)
    theta, closeness = _invert_trace(fn, r, targets, thetas[k], thetas[k + 1])
    i = int(np.argmin(closeness))
    if closeness.flat[i] < -1e-6:
        miss = f"{phis.flat[i]:.6f} by {-closeness.flat[i]:.3g}"
        raise InconsistencyError(f"the boundary trace misses spiral argument {miss}")
    return theta, _log_modulus(fn, r * np.exp(1j * theta))


def _sector_reach(fn, phis):
    """Highest log|f| on the circle within _SECTOR_ARG_TOL of each spiral phi.

    The trace increases, so those points form the arc between the crossings
    of phi -+ _SECTOR_ARG_TOL: the reach is the larger of log|f| at the
    arc's ends and one lockstep _section_search along it.  A search that
    misses a second peak lowers the reach: it can reject a sample, never
    cover one.
    """
    edges = phis[:, None] + np.array([-_SECTOR_ARG_TOL, _SECTOR_ARG_TOL])
    theta, ends = _sector_crossings(fn, edges)
    # an arc may run across theta = 2*pi
    lo, hi = theta[:, 0], theta[:, 0] + np.mod(theta[:, 1] - theta[:, 0], TWO_PI)
    r = _SECTOR_RADIUS
    reach = _section_search(lambda x: _log_modulus(fn, r * np.exp(1j * x)), lo, hi)[1]
    return np.maximum(reach, np.max(ends, axis=1))


def _certify_sector(phis, logmod, reach):
    """Raise InconsistencyError unless the image covers every sector sample.

    phis and logmod come from _sector_samples, reach from _sector_reach.
    The image contains the inward spiral arc from each of its points, so a
    sample on spiral i counts as covered when its log-modulus is at most
    reach[i] (within 1e-9).  The first uncovered sample in (phi, t) order
    raises.
    """
    covered = np.asarray(reach)[:, None] >= logmod - 1e-9
    failing = np.flatnonzero(~covered)
    if failing.size:
        i, j = divmod(int(failing[0]), len(_SAMPLE_T))
        raise InconsistencyError(
            f"sector sample at spiral argument {phis[i]:.6f}, t = {_SAMPLE_T[j]} "
            "is not covered by the image"
        )


def detect_maximal_sector(fn):
    """Maximal spiral sector of the image, from the largest measure atom.

    Returns S_lambda(center, opening) with opening the largest atom's jump
    and center the measure's boundary function there (center-pinned branch),
    or None for an atomless measure.  Five sample points on each of nine
    spirals phi of the sector, which lie in the sector by construction at
    log-moduli t*cos(lam), are then certified inside the image of |z| <=
    1 - 1e-5, which contains the spiral arc inward from each of its points;
    a point covers the samples within 0.025 of its spiral argument.  So a
    sample is covered when its modulus is at most the highest |f| on the
    arc of that circle between the spirals phi -+ 0.025, whose ends come
    from inverting the boundary trace.  InconsistencyError when a sample is
    not covered, the trace decreases or its inversion misses a spiral;
    DomainError unless fn is a SpiralFunction built from a measure.
    """
    _instance(fn, SpiralFunction, "a function")
    measure = fn.measure
    if measure is None:
        raise DomainError("sector detection requires a measure-built function")
    largest = measure.largest_atom()
    if largest is None:
        return None
    t0, jump = largest
    center = float(principal_angle(measure.beta_at(t0) - measure.canonical_offset()))
    sector = SpiralSector(center_angle=center, opening=min(jump, TWO_PI), angle=fn.angle)
    phis, logmod = _sector_samples(sector)
    _certify_sector(phis, logmod, _sector_reach(fn, phis))
    return sector
