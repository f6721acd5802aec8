"""The angular threshold Q(theta) and its constant C0 = 2 exp(sup Q).

C0 caps the log-factor coefficient of the counterexample family in
`gallery` (c <= 1/log C0).  This module needs numpy and the package errors
only, so `spirallike qtheta` loads no spiral geometry and no function
handle.
"""

import math

import numpy as np

from .errors import DomainError, _finite_angles, _grid_size, _scalar

# sup Q, the limit of Q at 0+ (Q(t) = 2 - t^2/2 + O(t^4) decreases on (0, pi/2))
_SUP_Q = 2.0
DEFAULT_C0 = 2.0 * math.exp(_SUP_Q)  # 2 e^2, correctly rounded


# below this theta Q(t) = 2 - t^2/2 to the last bit (the next term, 0.0535
# t^4, is below 1e-29), while the closed form loses its digits to
# cancellation: values above 2 from t = 2.9e-8 down, and 0/0 once t^2
# underflows
_SMALL_THETA = 1e-7


def q_function(theta):
    """Q(theta) = ((log cos t)^2 + t^2)/(t tan t + log cos t) on (0, pi/2).

    log cos t is computed as log1p(-2 sin(t/2)^2) so that the limit value 2
    at 0+ is approached without cancellation.  Below theta = 1e-7 Q is its
    expansion 2 - theta^2/2, and the closed form is evaluated at 1e-7
    instead, so no theta gives NaN, a warning or a value above sup Q = 2.
    """
    theta = _finite_angles(theta)
    if not np.all((theta > 0.0) & (theta < np.pi / 2.0)):
        raise DomainError("Q is defined on the open interval (0, pi/2)")
    small = theta < _SMALL_THETA
    # a qtheta grid (theta >= (pi/2)/(10^6 + 1)) takes no extra array
    t = np.maximum(theta, _SMALL_THETA) if small.any() else theta
    s = np.sin(0.5 * t)
    lc = np.log1p(-2.0 * s * s)
    out = np.asarray((lc * lc + t * t) / (t * np.tan(t) + lc))
    out[small] = 2.0 - 0.5 * theta[small] ** 2
    return _scalar(out)


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
