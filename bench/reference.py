"""Fixed reference computations that time the machine alongside a workload.

On a small shared host the same code runs up to twice as slow for tens of
seconds at a time (measured on a 2-core VM: interpreter-bound scalar calls
took 22 to 44 ms per batch of calls, numpy-bound batch work 0.18 to 0.26 s
per round, with thread CPU time equal to wall time).  Raw times of runs made
minutes apart therefore differ by more than any useful regression bound.
The benchmark times these references right before and after each unit of
work and reports the unit's time as a multiple of the reference time, which
cancels the common slowdown.  The references use numpy and the interpreter
only, never the package, so no change to the package can move them.
"""

import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(0)
_VECTOR = _rng.uniform(-0.9, 0.9, 45_056) + 1j * _rng.uniform(-0.4, 0.4, 45_056)
_ROTATIONS = np.exp(-0.5j * np.pi * np.arange(4))
_SCALARS = [complex(z) for z in _VECTOR[:1000]]


def vector():
    """Seconds for a polylog-like sweep over 45,056 points x 4 rotations.

    It has the shape of a batch call of the measure kernel at the largest
    eval_kernel batch size: a (points, terms) complex temporary (2.9 MB), a
    Horner series and log1p over it and a sum over the terms, so that it
    loads the caches and memory as the batch calls do.
    """
    t0 = time.perf_counter()
    u = _VECTOR[:, None] * _ROTATIONS
    acc = np.zeros_like(u)
    for m in range(6, 0, -1):
        acc = acc * u + 1.0 / m**2
    np.sum(np.log1p(-u), axis=-1)
    return time.perf_counter() - t0


def scalar():
    """Seconds for 1000 scalar round trips through small numpy calls."""
    t0 = time.perf_counter()
    total = 0j
    for z in _SCALARS:
        a = np.asarray(z, dtype=complex)
        if np.any(np.abs(a) >= 1.0):
            raise ValueError("reference point left the disk")
        total += complex(np.log1p(-a))
    return time.perf_counter() - t0


_IMPORT_NUMPY = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


def process(cwd, env=None):
    """(wall seconds, in-process import seconds) of a cold `import numpy`."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_NUMPY], cwd=cwd, env=env, check=True,
                          capture_output=True, timeout=60)
    return time.perf_counter() - t0, float(proc.stdout)
