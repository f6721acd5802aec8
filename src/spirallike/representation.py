"""Spirallike functions built from boundary measures.

The construction is f(z) = z * exp(-(mu/pi) * I(z)) with mu = exp(i*lam)cos(lam)
and I(z) the integral of log(1 - exp(-i*t)z) against d(beta)(t).  Atoms
contribute principal logarithms in closed form.  The piecewise-linear density
part reduces exactly to trilogarithms: integrating the Fourier series of the
kernel against the density leaves sum_j sigma_j * Li_3(z exp(-i*t_j)) over the
density's slope changes sigma_j, so constant densities contribute nothing.
The tests cross-check this closed form against a periodic trapezoid
quadrature of the same integral.
"""

import numpy as np

from .errors import AccuracyError, DomainError
from .polylog import _complex, li2, li3

_ALIAS_TARGET = 1e-12
_MAX_FFT = 1 << 20
# A (terms, points) block holds fewer than 16384 complex values (256 KiB):
# at that size numpy starts to reuse temporaries as outputs, and its
# in-place complex multiply rounds differently from the out-of-place one.
_BLOCK_TERMS = 16383


def _as_disk_points(z):
    """z as a complex array; DomainError unless every point is finite with |z| < 1."""
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z) < 1.0).all():
        raise DomainError("evaluation requires finite z with |z| < 1")
    return z


def _pointwise(kernel, z, block=_BLOCK_TERMS):
    """kernel over the disk-checked, flattened points of z in blocks of block points.

    A scalar z goes through the same array arithmetic as an array and is
    unwrapped once, so z alone and z inside any array get the same bits
    (Python complex and numpy's loops round differently).
    """
    z = _as_disk_points(z)
    flat = z.ravel()
    parts = [kernel(flat[i : i + block]) for i in range(0, max(flat.size, 1), block)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _log1m(u):
    """log(1 - u) for |u| < 1 from real ufuncs, which cost less than complex log1p.

    log|1 - u| is log1p(s)/2 with s = |u|^2 - 2 Re u = |1 - u|^2 - 1, accurate
    relative to |u| near 0, where |1 - u|^2 >= 0.39 keeps log1p well
    conditioned; nearer u = 1 it is log(|1 - u|^2)/2, whose 1 - Re u has
    no rounding error for Re u >= 1/2.
    """
    x, y = u.real, u.imag
    a = 1.0 - x
    yy = y * y
    q = a * a + yy
    re = np.log(q)
    # log1p only where it is used: next to u = 1, s rounds to -1
    np.log1p((x - 2.0) * x + yy, out=re, where=q >= 0.39)
    re *= 0.5
    return _complex(re, np.arctan2(-y, a))


def _term_sum(rows):
    """Sum over the rows of a (terms, points) array, added strictly in row order.

    The running sum adds row k to rows 0..k-1 for any number of points, so a
    point gets the same bits alone as in a batch; rows.sum(axis=0) would sum
    a single point's column pairwise instead.  rows is overwritten.
    """
    return np.add.accumulate(rows, axis=0, out=rows)[-1]


class SpiralFunction:
    """Evaluatable analytic function handle on the unit disk.

    log_f_over_z returns the branch of log(f(z)/z) vanishing at 0,
    log_derivative returns z*f'(z)/f(z), evaluate returns f(z) and f_over_z
    returns f(z)/z.  Each
    takes a scalar or an array of points with |z| < 1; it checks the domain,
    flattens, and evaluates blocks of self._block points.  A MeasureFunction
    lays its terms out term-major, one row of a (terms, points) array per
    atom or slope change, and uses blocks of about 16384/(atoms + slope
    changes) points, so that those temporaries stay in the L2 cache.  Every
    step of a kernel is elementwise or a sum over terms in term order
    (_term_sum), so a point gets the same bits alone as inside any array.
    Subclasses implement _log_f_over_z and _log_derivative on 1-d arrays of
    checked points.
    """

    _block = _BLOCK_TERMS

    def __init__(self, angle, starlike_certified=False, known_max_jump=None, measure=None):
        self.angle = angle
        self.starlike_certified = starlike_certified
        self.known_max_jump = known_max_jump
        self.measure = measure

    def _evaluate(self, z):
        return z * np.exp(self._log_f_over_z(z))

    def _f_over_z(self, z):
        return np.exp(self._log_f_over_z(z))

    def log_f_over_z(self, z):
        return _pointwise(self._log_f_over_z, z, self._block)

    def log_derivative(self, z):
        return _pointwise(self._log_derivative, z, self._block)

    def evaluate(self, z):
        return _pointwise(self._evaluate, z, self._block)

    def f_over_z(self, z):
        return _pointwise(self._f_over_z, z, self._block)

    def taylor_coefficients(self, n_max, radius=0.5):
        """Coefficients a_1..a_n_max of f at 0 via circle sampling.

        The sample count grows until the aliasing bound (n_max + N)*radius^N
        for univalent coefficient growth drops below 1e-12.  AccuracyError
        when n_max is not below the sample count N.
        """
        n_max = int(n_max)
        if n_max < 1:
            raise DomainError("n_max must be at least 1")
        if not (0.0 < radius < 1.0):
            raise DomainError(f"sampling radius must lie in (0, 1), got {radius!r}")
        N = 128
        while (n_max + N) * radius**N > _ALIAS_TARGET:
            N *= 2
            if N > _MAX_FFT:
                raise AccuracyError(
                    "aliasing target unreachable at this radius",
                    achieved=(n_max + N // 2) * radius ** (N // 2),
                )
        if n_max >= N:
            raise AccuracyError(f"n_max = {n_max} is not below the {N} circle samples")
        zs = radius * np.exp(2j * np.pi * np.arange(N) / N)
        coef = np.fft.fft(self.evaluate(zs)) / N
        m = np.arange(1, n_max + 1)
        return coef[1 : n_max + 1] / radius**m


class MeasureFunction(SpiralFunction):
    """The function of a (BoundaryMeasure, SpiralAngle) pair."""

    def __init__(self, measure, angle):
        measure.require_valid()
        super().__init__(
            angle,
            starlike_certified=(angle.lam == 0.0),
            known_max_jump=measure.max_jump(),
            measure=measure,
        )
        atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
        sigma_t, sigma = measure.slope_changes()
        # (terms, 1) columns, so that rot * z is a (terms, points) array
        self._atom_rot = np.exp(-1j * atoms[:, :1])
        self._atom_d = atoms[:, 1:]
        self._sigma_rot = np.exp(-1j * sigma_t)[:, None]
        self._sigma = sigma[:, None]
        self._block = max(1, _BLOCK_TERMS // max(1, len(atoms) + sigma_t.size))

    def _log_f_over_z(self, z):
        # Integral of log(1 - exp(-i*t)z) d(beta)(t) in closed form
        total = np.zeros(z.shape, dtype=complex)
        if self._atom_d.size:
            total += _term_sum(self._atom_d * _log1m(self._atom_rot * z))
        if self._sigma.size:
            total += _term_sum(self._sigma * li3(self._sigma_rot * z))
        return -(self.angle.mu / np.pi) * total

    def _log_derivative(self, z):
        total = np.zeros(z.shape, dtype=complex)
        if self._atom_d.size:
            u = self._atom_rot * z
            total += _term_sum(self._atom_d * u / (1.0 - u))
        if self._sigma.size:
            total -= _term_sum(self._sigma * li2(self._sigma_rot * z))
        return 1.0 + (self.angle.mu / np.pi) * total


class PowerTransform(SpiralFunction):
    """Function with log(f/z) = power * log(base/z) for a complex power."""

    def __init__(self, base, power, angle, starlike_certified=False, known_max_jump=None):
        super().__init__(
            angle,
            starlike_certified=starlike_certified,
            known_max_jump=base.known_max_jump if known_max_jump is None else known_max_jump,
            measure=base.measure,
        )
        self.base = base
        self.power = complex(power)
        self._block = base._block

    def _log_f_over_z(self, z):
        return self.power * self.base._log_f_over_z(z)

    def _log_derivative(self, z):
        return 1.0 + self.power * (self.base._log_derivative(z) - 1.0)
