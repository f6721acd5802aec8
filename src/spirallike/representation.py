"""Spirallike functions built from boundary measures.

The construction is f(z) = z * exp(-(mu/pi) * I(z)) with mu = exp(i*lam)cos(lam)
and I(z) the integral of log(1 - exp(-i*t)z) against d(beta)(t).  Atoms
contribute principal logarithms in closed form.  The piecewise-linear density
part reduces exactly to trilogarithms: integrating the Fourier series of the
kernel against the density leaves sum_j sigma_j * Li_3(z exp(-i*t_j)) over the
density's slope changes sigma_j, so constant densities contribute nothing.
Inside |z| <= 1/2 a measure with slope changes is one power series in its
moments, atoms included: I(z) = sum_m (S_m/m^3 - A_m/m) z^m with
A_m = sum_k d_k exp(-i*m*t_k) over the atoms and
S_m = sum_j sigma_j exp(-i*m*t_j), computed once per measure; outside it
each atom takes one log(1 - u) and each slope change one li3 (li2 for
z f'/f).  The tests cross-check this closed form against a periodic
trapezoid quadrature of the same integral.
"""

import itertools

import numpy as np

from .analysis import _grid_size
from .errors import AccuracyError, DomainError
from .polylog import _TAIL, _complex, _horner, li2, li3

_MAX_FFT = 1 << 20
# A (terms, points) block holds fewer than 16384 complex values (256 KiB):
# at that size numpy starts to reuse temporaries as outputs, and its
# in-place complex multiply rounds differently from the out-of-place one.
_BLOCK_TERMS = 16383
# radius of the disk where a measure with slope changes is summed as one
# power series of its moments
_SERIES_RADIUS = 0.5


def _as_disk_points(z):
    """z as a complex array; DomainError unless every point is finite with |z| < 1."""
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z) < 1.0).all():
        raise DomainError("evaluation requires finite z with |z| < 1")
    return z


def _pointwise(kernel, z):
    """kernel over the disk-checked, flattened points of z in blocks of _BLOCK_TERMS points.

    A scalar z goes through the same array arithmetic as an array and is
    unwrapped once, so z alone and z inside any array get the same bits
    (Python complex and numpy's loops round differently).
    """
    z = _as_disk_points(z)
    flat = z.ravel()
    parts = [
        kernel(flat[i : i + _BLOCK_TERMS]) for i in range(0, max(flat.size, 1), _BLOCK_TERMS)
    ]
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
    """Sum over the rows of a C-contiguous (terms, points) array, added strictly in row order.

    For two or more points numpy's reduce over axis 0 adds the rows one
    after another, each in one pass over the points.  A single point's
    column is contiguous, and the reduce would sum it pairwise, so one point
    takes the running sum, which adds row k to rows 0..k-1.  Either way a
    point gets the same bits alone as in a batch.  rows may be overwritten.
    """
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0)
    return np.add.accumulate(rows, axis=0, out=rows)[-1]


def _moment_series(atom_t, d, sigma_t, sigma):
    """Power series of the two measure sums inside |z| <= 1/2, keyed by polylog order.

    With u_k = exp(-i*t_k) z over the atoms and v_j = exp(-i*t_j) z over the
    slope changes, key 3 holds c_m = -A_m/m + S_m/m^3 of
    sum_k d_k log(1 - u_k) + sum_j sigma_j Li_3(v_j), and key 2 holds
    c_m = A_m - S_m/m^2 of sum_k d_k u_k/(1 - u_k) - sum_j sigma_j Li_2(v_j),
    in the moments A_m = sum_k d_k exp(-i*m*t_k) and
    S_m = sum_j sigma_j exp(-i*m*t_j).  Each series ends at the first m with
    2^-m/m^p < 2^-56 (the rule of polylog's coefficient tables), p the power
    of its slowest part: 1 and 0 with atoms, 3 and 2 without.  So on
    |z| <= 1/2 the omitted tail is below 2^-M/M^p (sum_k d_k + sum_j |sigma_j|).
    """
    powers = {3: 1, 2: 0} if d.size else {3: 3, 2: 2}
    size = {
        n: next(m for m in itertools.count(1) if _SERIES_RADIUS**m / m**p < _TAIL)
        for n, p in powers.items()
    }
    m = np.arange(1, max(size.values()) + 1)
    A = (np.exp(-1j * np.outer(m, atom_t)) * d).sum(axis=1)
    S = (np.exp(-1j * np.outer(m, sigma_t)) * sigma).sum(axis=1)
    series = {3: -A / m + S / m**3, 2: A - S / m**2}
    return {n: c[: size[n]] for n, c in series.items()}


class SpiralFunction:
    """Analytic function handle on the unit disk: a starlike kernel plus an inclination.

    log_f_over_z returns the branch of log(f(z)/z) vanishing at 0,
    log_derivative returns z*f'(z)/f(z), evaluate returns f(z) and f_over_z
    returns f(z)/z.  Each
    takes a scalar or an array of points with |z| < 1; it checks the domain,
    flattens, and evaluates blocks of _BLOCK_TERMS points.  A MeasureFunction
    lays its terms out term-major, one row of a (terms, points) array per
    atom or slope change, in row blocks of about 16384/(atoms + slope
    changes) points, so that those temporaries stay in the L2 cache; at
    points with |z| <= 1/2 a measure with slope changes instead takes one
    Horner pass over the moment series of the whole measure, atoms and
    slope changes together, on the whole block.  Every step of a kernel is
    elementwise or a sum over terms in term order (_term_sum: one reduce
    over the term axis, a running sum for a single point), and |z| alone
    picks a point's regime, so a point gets the same bits alone as inside
    any array.

    Subclasses implement the kernels of the starlike partner g on 1-d arrays
    of checked points: _log_g_over_z returns log(g/z) and
    _log_derivative_excess returns zg'/g - 1.  This class applies the
    pairing once, with mu = exp(i*lam)cos(lam) from self.angle:
    log(f/z) = mu*log(g/z) and zf'/f = 1 + mu*(zg'/g - 1).  known_max_jump
    is the largest jump of the boundary measure that f and g share, and
    measure that measure, when known.
    """

    def __init__(self, angle, known_max_jump=None, measure=None):
        self.angle = angle
        self.known_max_jump = known_max_jump
        self.measure = measure

    def _log_f_over_z(self, z):
        return self.angle.mu * self._log_g_over_z(z)

    def _log_derivative(self, z):
        return 1.0 + self.angle.mu * self._log_derivative_excess(z)

    def _evaluate(self, z):
        return z * np.exp(self._log_f_over_z(z))

    def _f_over_z(self, z):
        return np.exp(self._log_f_over_z(z))

    def log_f_over_z(self, z):
        return _pointwise(self._log_f_over_z, z)

    def log_derivative(self, z):
        return _pointwise(self._log_derivative, z)

    def evaluate(self, z):
        return _pointwise(self._evaluate, z)

    def f_over_z(self, z):
        return _pointwise(self._f_over_z, z)

    def taylor_coefficients(self, n_max):
        """Coefficients a_1..a_n_max of f at 0 from one FFT on |z| = r = e^(-1/n_max).

        The circle takes N samples, the power of two at or above 40*n_max,
        so r^N <= e^-40 and aliasing adds at most (m + N)*e^-40 to a_m for
        univalent f (|a_k| <= k).  Dividing by r^m >= 1/e raises rounding
        by at most e: the error is about eps*e*max_{|z|=r}|f|, which is
        e*eps*n_max^2 for Koebe.  AccuracyError, before any sampling, when N
        would exceed 2^20 (n_max > 26214).
        """
        n_max = _grid_size(n_max, "n_max")
        N = 1 << (40 * n_max - 1).bit_length()
        if N > _MAX_FFT:
            raise AccuracyError(f"n_max = {n_max} needs {N} circle samples, above {_MAX_FFT}")
        radius = np.exp(-1.0 / n_max)
        k = np.arange(N)
        coef = np.fft.fft(self.evaluate(radius * np.exp(2j * np.pi * k / N))) / N
        return coef[1 : n_max + 1] / radius ** k[1 : n_max + 1]


class MeasureFunction(SpiralFunction):
    """The function of a (BoundaryMeasure, SpiralAngle) pair.

    Its starlike kernels are log(g/z) = -(1/pi) * I(z) and
    zg'/g - 1 = (1/pi) * z I'(z), with I(z) the integral of
    log(1 - exp(-i*t)z) against the measure.

    Outside |z| <= 1/2 atoms take one log(1 - u) each, and the density's
    slope changes sigma_j at t_j enter through
    sum_j sigma_j Li_n(exp(-i*t_j) z), n = 3 for log(g/z) and n = 2 for
    zg'/g, one li3 or li2 per slope change.  Inside it a measure with slope
    changes is one series in its moments (_moment_series), tabulated once
    here: 51 terms for log(g/z) and 57 for zg'/g with atoms, 41 and 46
    without, truncated below 2^-56 (sum_k d_k + sum_j |sigma_j|), so all
    atoms and slope changes together take one Horner pass.  Measures
    without slope changes (atoms only, constant density) have no series:
    for a few atoms the rows cost less than a Horner pass of 51 terms.
    """

    def __init__(self, measure, angle):
        measure.require_valid()
        super().__init__(angle, known_max_jump=measure.max_jump(), measure=measure)
        atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
        sigma_t, sigma = measure.slope_changes()
        # (terms, 1) columns, so that rot * z is a (terms, points) array
        self._atom_rot = np.exp(-1j * atoms[:, :1])
        self._atom_d = atoms[:, 1:]
        self._sigma_rot = np.exp(-1j * sigma_t)[:, None]
        self._sigma = sigma[:, None]
        self._series = {}
        if sigma.size:
            self._series = _moment_series(atoms[:, 0], atoms[:, 1], sigma_t, sigma)
        self._row_block = max(1, _BLOCK_TERMS // max(1, len(atoms) + sigma_t.size))

    def _log_g_over_z(self, z):
        # Integral of log(1 - exp(-i*t)z) d(beta)(t) in closed form
        return self._measure_sum(z, self._log_rows, 3) * (-1.0 / np.pi)

    def _log_derivative_excess(self, z):
        return (1.0 / np.pi) * self._measure_sum(z, self._derivative_rows, 2)

    def _log_rows(self, z):
        """sum_k d_k log(1 - u_k) + sum_j sigma_j Li_3(v_j), one row per term."""
        total = np.zeros(z.shape, dtype=complex)
        if self._atom_d.size:
            total += _term_sum(self._atom_d * _log1m(self._atom_rot * z))
        if self._sigma.size:
            total += _term_sum(self._sigma * li3(self._sigma_rot * z))
        return total

    def _derivative_rows(self, z):
        """sum_k d_k u_k/(1 - u_k) - sum_j sigma_j Li_2(v_j), one row per term."""
        total = np.zeros(z.shape, dtype=complex)
        if self._atom_d.size:
            u = self._atom_rot * z
            total += _term_sum(self._atom_d * u / (1.0 - u))
        if self._sigma.size:
            total -= _term_sum(self._sigma * li2(self._sigma_rot * z))
        return total

    def _measure_sum(self, z, rows, n):
        """The measure sum of polylog order n at z: the series inside |z| <= 1/2, else rows.

        |z| alone picks a point's route.  The split is made once per block,
        and a block that lies in one regime pays no take/put copies.
        """
        series = self._series.get(n)
        if series is None:
            return self._in_row_blocks(rows, z)
        inner = np.abs(z) <= _SERIES_RADIUS
        if inner.all():
            return _horner(series, z) * z
        if not inner.any():
            return self._in_row_blocks(rows, z)
        near = np.flatnonzero(inner)
        far = np.flatnonzero(~inner)
        out = np.empty_like(z)
        zn = z.take(near)
        out.put(near, _horner(series, zn) * zn)
        out.put(far, self._in_row_blocks(rows, z.take(far)))
        return out

    def _in_row_blocks(self, rows, z):
        """rows over z in blocks of self._row_block points."""
        block = self._row_block
        if z.size <= block:
            return rows(z)
        out = np.empty_like(z)
        for i in range(0, z.size, block):
            out[i : i + block] = rows(z[i : i + block])
        return out
