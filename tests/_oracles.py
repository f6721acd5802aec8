"""Independent cross-check routes used by the tests.

continuous_arg_lambda lifts the spiral argument along a sampled path by
summing principal-angle increments (radial continuation).  The package reads
the same branch off the analytic branch of log(f/z) instead; the tests
compare the two.
"""

import numpy as np

from spirallike import DomainError


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
