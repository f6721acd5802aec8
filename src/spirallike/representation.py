"""Spirallike functions built from boundary measures.

The construction is f(z) = z * exp(-(mu/pi) * I(z)) with mu = exp(i*lam)cos(lam)
and I(z) the integral of log(1 - exp(-i*t)z) against d(beta)(t).  Atoms
contribute principal logarithms in closed form.  The piecewise-linear density
part reduces exactly to trilogarithms: integrating the Fourier series of the
kernel against the density leaves sum_j sigma_j * Li_3(z exp(-i*t_j)) over the
density's slope changes sigma_j, so constant densities contribute nothing.
The tests cross-check this closed form against a periodic trapezoid
quadrature of the same integral.

A MeasureFunction evaluates its points in flattened blocks of about
16384/(atoms + slope changes) points, so the (points, terms) temporaries
stay in the L2 cache; every step is elementwise or a row sum, so a point
gets the same bits alone as inside any array.
"""

import numpy as np

from .errors import AccuracyError, DomainError
from .polylog import _complex, li2, li3

_ALIAS_TARGET = 1e-12
_MAX_FFT = 1 << 20
_BLOCK_TERMS = 16384


def _as_disk_points(z):
    """z as a complex array; DomainError unless every point is finite with |z| < 1."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) < 1.0):
        raise DomainError("evaluation requires finite z with |z| < 1")
    return z


class SpiralFunction:
    """Evaluatable analytic function handle on the unit disk.

    Subclasses provide log_f_over_z and log_derivative; both accept scalars
    or arrays of points with |z| < 1.  log_f_over_z returns the branch of
    log(f(z)/z) vanishing at 0; log_derivative returns z*f'(z)/f(z).
    """

    def __init__(self, angle, starlike_certified=False, known_max_jump=None, measure=None):
        self.angle = angle
        self.starlike_certified = starlike_certified
        self.known_max_jump = known_max_jump
        self.measure = measure

    def log_f_over_z(self, z):
        raise NotImplementedError

    def log_derivative(self, z):
        raise NotImplementedError

    def f_over_z(self, z):
        return np.exp(self.log_f_over_z(z))

    def evaluate(self, z):
        out = np.asarray(z, dtype=complex) * self.f_over_z(z)
        return out if out.ndim else complex(out)

    def taylor_coefficients(self, n_max, radius=0.5):
        """Coefficients a_1..a_n_max of f at 0 via circle sampling.

        The sample count grows until the aliasing bound (n_max + N)*radius^N
        for univalent coefficient growth drops below 1e-12.
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
        atom_t = np.array([t for t, _ in measure.atoms], dtype=float)
        self._atom_d = np.array([d for _, d in measure.atoms], dtype=float)
        sigma_t, self._sigma = measure.slope_changes()
        self._atom_rot = np.exp(-1j * atom_t)
        self._sigma_rot = np.exp(-1j * sigma_t)
        self._block = max(1, _BLOCK_TERMS // max(1, atom_t.size + sigma_t.size))

    def _blockwise(self, z, kernel):
        """kernel over the flattened points of z in blocks of self._block."""
        z = _as_disk_points(z)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for start in range(0, flat.size, self._block):
            out[start : start + self._block] = kernel(flat[start : start + self._block])
        return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def _log_f_over_z(self, z):
        # Integral of log(1 - exp(-i*t)z) d(beta)(t) in closed form; an atom
        # term is d (log|1 - u| + i arg(1 - u)) from real ufuncs.
        total = np.zeros(z.shape, dtype=complex)
        if self._atom_d.size:
            v = 1.0 - z[:, None] * self._atom_rot
            d = self._atom_d
            total += _complex(np.sum(d * np.log(np.abs(v)), axis=-1), np.sum(d * np.angle(v), axis=-1))
        if self._sigma.size:
            total += np.sum(self._sigma * li3(z[:, None] * self._sigma_rot), axis=-1)
        return -(self.angle.mu / np.pi) * total

    def _log_derivative(self, z):
        total = np.zeros(z.shape, dtype=complex)
        if self._atom_d.size:
            u = z[:, None] * self._atom_rot
            total += np.sum(self._atom_d * u / (1.0 - u), axis=-1)
        if self._sigma.size:
            total -= np.sum(self._sigma * li2(z[:, None] * self._sigma_rot), axis=-1)
        return 1.0 + (self.angle.mu / np.pi) * total

    def log_f_over_z(self, z):
        return self._blockwise(z, self._log_f_over_z)

    def log_derivative(self, z):
        return self._blockwise(z, self._log_derivative)


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

    # A scalar z goes through the same array arithmetic as an array and is
    # unwrapped once, so evaluating z alone or inside an array gives the
    # same bits (Python complex and numpy's loop round differently).

    def log_f_over_z(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.power * self.base.log_f_over_z(np.atleast_1d(z))
        return complex(out[0]) if z.ndim == 0 else out

    def log_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        out = 1.0 + self.power * (self.base.log_derivative(np.atleast_1d(z)) - 1.0)
        return complex(out[0]) if z.ndim == 0 else out
