"""The angular threshold Q(theta) and its constant C0 = 2 exp(sup Q).

C0 caps the log-factor coefficient of the counterexample family in
`gallery` (c <= 1/log C0).  This module needs numpy, the package errors and
the angle check of spiral_geometry only, so `spirallike qtheta` loads no
function handle.
"""

import math

import numpy as np

from .errors import DomainError, _grid_size
from .spiral_geometry import _finite_angles

# sup Q, the limit of Q at 0+ (Q(t) = 2 - t^2/2 + O(t^4) decreases on (0, pi/2))
_SUP_Q = 2.0
DEFAULT_C0 = 2.0 * math.exp(_SUP_Q)  # 2 e^2, correctly rounded


def q_function(theta):
    """Q(theta) = ((log cos t)^2 + t^2)/(t tan t + log cos t) on (0, pi/2).

    log cos t is computed as log1p(-2 sin(t/2)^2) so that the limit value 2
    at 0+ is approached without cancellation.
    """
    theta = _finite_angles(theta)
    if not np.all((theta > 0.0) & (theta < np.pi / 2.0)):
        raise DomainError("Q is defined on the open interval (0, pi/2)")
    s = np.sin(0.5 * theta)
    lc = np.log1p(-2.0 * s * s)
    out = (lc * lc + theta * theta) / (theta * np.tan(theta) + lc)
    return out if out.ndim else float(out)


def _q_table(grid):
    """(theta, Q(theta), monotone) on grid interior points of (0, pi/2), grid >= 1000.

    monotone: Q does not increase across the grid, its evidence that _SUP_Q is sup Q.
    """
    grid = _grid_size(grid, "grid")
    if grid < 1000:
        raise DomainError("need at least 1000 grid points")
    theta = np.linspace(0.0, np.pi / 2.0, grid + 2)[1:-1]
    values = q_function(theta)
    return theta, values, bool(np.all(np.diff(values) <= 0.0))
