"""Independent cross-check routes used by the tests.

continuous_arg_lambda lifts the spiral argument along a sampled path by
summing principal-angle increments (radial continuation).  The package reads
the same branch off the analytic branch of log(f/z) instead; the tests
compare the two.

sector_image_from_values builds the sector detection image from the values
of f, where the package reads it off log(f/z) without forming f.

golden_section_max is the one-point-per-step search that the package's
m-point section_search_max replaced; the tests compare maxima found by the
two.
"""

import numpy as np

from spirallike import DomainError, arg_lambda
from spirallike.analysis import _sector_grid


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


def sector_image_from_values(fn, angle, image_grid, cluster_points):
    """arg_lambda and log|.| of W = f(z) on the sector detection grid, flattened."""
    radii, thetas = _sector_grid(fn, image_grid, cluster_points)
    W = fn.evaluate(radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    return arg_lambda(W, angle), np.log(np.abs(W))


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
