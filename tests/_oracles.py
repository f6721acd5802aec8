"""Independent cross-check routes used by the tests.

continuous_arg_lambda lifts the spiral argument along a sampled path by
summing principal-angle increments (radial continuation).  The package reads
the same branch off the analytic branch of log(f/z) instead; the tests
compare the two.

certify_full_scan is the sector certification the package's inversion of
the boundary trace replaced: it evaluates f on a fine disk grid
(sector_image_from_values) and accepts a sample when some grid value lies
within 0.025 of it in spiral argument and reaches at least its modulus;
the tests compare the decisions of the two.

arg_lambda_from_log is the package's former route to the lam-argument of
f/z, Im L - tan(lam) Re L from the whole L = log(f/z); the package now reads
it as Im log(g/z) from the starlike kernel, and the tests compare the two.

golden_section_max is the one-point-per-step search that the package's
m-point section_search_max replaced; the tests compare maxima found by the
two.

growth_asymptote is log M(r) from a local analysis at each atom, with no
circle search; the tests hold max_modulus to it.

max_jump_by_loop and certify_sector_by_loop are the Python loops that the
array decisions of estimate_max_jump and _certify_sector replaced, with the
same arithmetic; the tests require equal results.
"""

import numpy as np

from spirallike import (
    DomainError,
    InconsistencyError,
    arg_lambda,
    li3,
    principal_angle,
    sector_contains,
    spiral_point,
)

TWO_PI = 2.0 * np.pi


def continuous_arg_lambda(path, angle):
    """Continuous branch of the spiral argument along a discrete path.

    path: complex samples of a curve starting at exactly 1, where the
        branch is pinned to arg_lam = 0.
    Consecutive turning increments must stay below pi in magnitude or the
    branch is ambiguous; then DomainError names the first offending step.
    """
    path = np.asarray(path, dtype=complex)
    if path.ndim != 1 or path.size == 0:
        raise DomainError("path must be a nonempty 1-d array")
    if path[0] != 1:
        raise DomainError("path must start at 1, where the branch is pinned")
    if np.any(path == 0):
        raise DomainError("path passes through the origin")
    inc = np.angle(path[1:] / path[:-1])
    bad = np.abs(inc) >= np.pi
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainError(f"argument step {k}->{k + 1} reaches pi; refine the path")
    arg = np.concatenate(([0.0], np.cumsum(inc)))
    return arg - angle.tan_lambda * np.log(np.abs(path))


def arg_lambda_from_log(fn, z):
    """arg_lambda(f/z) = Im L - tan(lam) Re L, L = fn.log_f_over_z(z)."""
    L = fn.log_f_over_z(z)
    return L.imag - fn.angle.tan_lambda * L.real


def sector_image_from_values(fn):
    """arg_lambda and log|.| of W = f(z) on the sector detection grid, flattened.

    32 radii refine toward the circle |z| = 1 - 1e-5; the angles are 2048
    uniform ones plus 384 on each side of every atom, closing in
    geometrically.
    """
    radii = 1.0 - np.geomspace(1e-5, 0.5, 32)
    thetas = [np.arange(2048) * (TWO_PI / 2048)]
    offsets = np.geomspace(1e-7, 0.5, 384)
    for t_atom, _ in fn.measure.atoms:
        thetas.append(t_atom + offsets)
        thetas.append(t_atom - offsets)
    z = radii[:, None] * np.exp(1j * np.concatenate(thetas))[None, :]
    W = fn.evaluate(z).ravel()
    return arg_lambda(W, fn.angle), np.log(np.abs(W))


def sector_samples(sector, inner=0.9):
    """(phi, t, w) of the sector samples, in certification order."""
    phis = sector.center_angle + inner * (sector.opening / 2.0) * np.linspace(-1.0, 1.0, 9)
    return [
        (phi, t, spiral_point(phi, sector.angle, t))
        for phi in phis
        for t in (-3.0, -1.5, 0.0, 1.5, 3.0)
    ]


def certify_full_scan(sector, grid_arg, grid_logmod, inner=0.9):
    """Test every sector sample against the whole image grid.

    A sample w is covered by a grid value whose spiral argument is within
    0.025 of w's and whose log-modulus is at least log|w| - 1e-9.
    InconsistencyError, with the package's messages, at the first sample in
    (phi, t) order that leaves the sector or is not covered.
    """
    for phi, t, w in sector_samples(sector, inner):
        if not sector_contains(sector, w):
            raise InconsistencyError(
                f"sample point for spiral argument {phi:.6f} left the sector"
            )
        dist = np.abs(principal_angle(grid_arg - arg_lambda(w, sector.angle)))
        hit = (dist <= 0.025) & (grid_logmod >= np.log(np.abs(w)) - 1e-9)
        if not np.any(hit):
            raise InconsistencyError(
                f"sector sample at spiral argument {phi:.6f}, t = {t} is not covered by the image"
            )


def golden_section_max(f, a, b, tol=1e-12):
    """Golden-section search for the maximum of a unimodal f on [a, b].

    a and b may also be arrays of one shape, each entry the bracket of an
    independent lane.  The lanes run in lockstep: f gets one array of lane
    points per step and returns one value per lane, and a lane freezes once
    its own bracket is within tol (its points are still sampled, inside the
    final bracket, until every lane is done, and the values are discarded).
    Each lane ends exactly where the scalar search on its bracket would.
    Returns (x, f(x)) at the bracket midpoints: floats for scalar brackets,
    else arrays.  tol must exceed the float spacing of the brackets, or the
    search never ends.
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


def growth_asymptote(measure, angle, delta):
    """log M(r) at r = 1 - delta for the function of (measure, angle), up to O(delta).

    The measure has atoms at t_k with jumps A_k.  Near t_k, log|f| on
    |z| = r peaks about delta*|tan(lam)| from t_k, and there log|f| =
    q_k log(1/delta) + log C_k + O(delta), with mu = exp(i*lam) cos(lam),
    q_k = A_k cos(lam)^2/pi and
    log C_k = (A_k/pi) cos(lam) (cos(lam) log cos(lam) + lam sin(lam)) + Re(mu R_k).
    R_k is the rest of log(g/z) at the boundary point
    exp(i*t_k): (1/pi) (sum_{j != k} A_j Li_1(exp(i(t_k - t_j)))
    - sum_j sigma_j Li_3(exp(i(t_k - s_j)))), over the other atoms and the
    slope changes sigma_j at s_j.  Li_1(u) is -log(1 - u) in numpy; Li_3
    takes the package's li3 on |u| = 1.  Returns max_k (q_k log(1/delta)
    + log C_k).
    """
    lam = angle.lam
    cos, mu = np.cos(lam), np.exp(1j * lam) * np.cos(lam)
    atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
    t, w = atoms[:, 0], atoms[:, 1]
    s, sigma = measure.slope_changes()
    # the diagonal's 1 - u is 0: an atom's own term is q_k and the first
    # part of log C_k, not a part of R_k
    one_minus_u = 1.0 - np.exp(1j * (t[:, None] - t[None, :]))
    np.fill_diagonal(one_minus_u, 1.0)
    rest = -np.log(one_minus_u) @ w
    if sigma.size:
        rest = rest - li3(np.exp(1j * (t[:, None] - s[None, :]))) @ sigma
    q = w * cos**2 / np.pi
    log_c = (w / np.pi) * cos * (cos * np.log(cos) + lam * np.sin(lam)) + (mu * rest / np.pi).real
    return float(np.max(q * np.log(1.0 / delta) + log_c))


def max_jump_by_loop(t, v, gaps, gap_threshold):
    """(jump, location, center) of the largest candidate, read gap by gap.

    Each gap i over gap_threshold is a candidate alone, then merged with
    gap i + 1 (cyclically) when that one is over too; a candidate wins only
    when it is strictly larger than the best before it.  gaps are the
    trace's increments, the last wrapping by 2*pi.
    """
    n = t.size
    t_next = np.concatenate((t[1:], [t[0] + TWO_PI]))
    v_next = np.concatenate((v[1:], [v[0] + TWO_PI]))
    best = (0.0, np.nan, np.nan)
    over = gaps > gap_threshold
    for i in np.flatnonzero(over):
        single = (
            float(gaps[i]), float(0.5 * (t[i] + t_next[i])), float(0.5 * (v[i] + v_next[i]))
        )
        if single[0] > best[0]:
            best = single
        j = (i + 1) % n
        if over[j]:
            merged = (float(gaps[i] + gaps[j]), float(t[j]), float(v[j]))
            if merged[0] > best[0]:
                best = merged
    return best


def certify_sector_by_loop(phis, logmod, inside, reach, sample_t):
    """The sector decision sample by sample: None, or the message of the first failure.

    Samples go in (phi, t) order, membership before coverage; a sample is
    covered when its log-modulus is at most its spiral's reach within 1e-9.
    """
    for phi, row_logmod, row_inside, top in zip(phis, logmod, inside, reach):
        for t, sample_logmod, within in zip(sample_t, row_logmod, row_inside):
            if not within:
                return f"sample point for spiral argument {phi:.6f} left the sector"
            if not top >= sample_logmod - 1e-9:
                return (
                    f"sector sample at spiral argument {phi:.6f}, t = {t} "
                    "is not covered by the image"
                )
    return None
