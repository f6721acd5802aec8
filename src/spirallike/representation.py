"""Spirallike functions built from boundary measures.

f(z) = z * exp(mu * log(g(z)/z)) with mu = exp(i*lam)cos(lam).  For a
measure of atoms (t_k, d_k) plus a piecewise-linear density the starlike
log(g/z), -(1/pi) times the integral of log(1 - exp(-i*t)z) d(beta)(t), is
one weighted sum of polylogarithms over orders n,

    log(g/z) = (1/pi) sum_n sum_k w_k Li_n(exp(-i*t_k) z),

the atoms at n = 1 with w_k = d_k and the density's slope changes sigma_j
at n = 3 with w_j = -sigma_j (integrating the Fourier series of the kernel
against the density leaves trilogarithms, so a constant density adds
nothing); zg'/g - 1 is the same sum one order down.  The tests cross-check
this closed form against a periodic trapezoid quadrature of the same
integral.
"""

import itertools

import numpy as np

from .analysis import _grid_size
from .errors import AccuracyError, DomainError
from .polylog import _TAIL, _horner, _li

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


def _moment_series(terms, shift):
    """Power series inside |z| <= 1/2 of sum_n sum_k w_k Li_(n - shift)(exp(-i*t_k) z).

    terms maps each polylog order n to its (angles t_k, weights w_k).  The
    coefficients are c_m = sum_n M_(n,m)/m^(n - shift) in the moments
    M_(n,m) = sum_k w_k exp(-i*m*t_k).  The series ends at the first m with
    2^-m/m^p < 2^-56 (the rule of polylog's coefficient tables), p the
    lowest power min_n (n - shift), so on |z| <= 1/2 the omitted tail is
    below 2^-M/M^p sum_k |w_k|.
    """
    p = min(terms) - shift
    size = next(m for m in itertools.count(1) if _SERIES_RADIUS**m / m**p < _TAIL)
    m = np.arange(1, size + 1)
    return sum(
        (np.exp(-1j * np.outer(m, t)) * w).sum(axis=1) / m ** (n - shift)
        for n, (t, w) in terms.items()
    )


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

    Its terms are stored by polylog order, and one measure sum serves both
    starlike kernels: log(g/z) at shift 0 and zg'/g - 1 at shift 1, where an
    order-n term enters as Li_(n - shift).  Outside |z| <= 1/2 each term
    takes one row (_rows).  Inside it a measure with slope changes is one
    series in its moments (_moment_series), tabulated once here: 51 terms
    for log(g/z) and 57 for zg'/g with atoms, 41 and 46 without, so all
    terms together take one Horner pass.  Measures without slope changes
    (atoms only, constant density) have no series: for a few atoms the rows
    cost less than a Horner pass of 51 terms.
    """

    def __init__(self, measure, angle):
        measure.require_valid()
        super().__init__(angle, known_max_jump=measure.max_jump(), measure=measure)
        atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
        sigma_t, sigma = measure.slope_changes()
        terms = {1: (atoms[:, 0], atoms[:, 1]), 3: (sigma_t, -sigma)}
        terms = {n: (t, w) for n, (t, w) in terms.items() if w.size}
        # (terms, 1) columns, so that rot * z is a (terms, points) array
        self._terms = {n: (np.exp(-1j * t)[:, None], w[:, None]) for n, (t, w) in terms.items()}
        self._series = {shift: _moment_series(terms, shift) for shift in (0, 1) if 3 in terms}
        self._row_block = max(1, _BLOCK_TERMS // max(1, len(atoms) + sigma.size))

    def _log_g_over_z(self, z):
        return (1.0 / np.pi) * self._measure_sum(z, 0)

    def _log_derivative_excess(self, z):
        return (1.0 / np.pi) * self._measure_sum(z, 1)

    def _rows(self, z, shift):
        """sum_n sum_k w_k Li_(n - shift)(exp(-i*t_k) z), one row per term.

        Evaluated in blocks of self._row_block points, so that the
        (terms, points) temporaries stay in the L2 cache.
        """
        block = self._row_block
        out = np.zeros_like(z)
        for i in range(0, z.size, block):
            zb, ob = z[i : i + block], out[i : i + block]
            for n, (rot, w) in self._terms.items():
                ob += _term_sum(w * _li(n - shift, rot * zb))
        return out

    def _measure_sum(self, z, shift):
        """The measure sum at z: the series inside |z| <= 1/2, else the rows.

        |z| alone picks a point's route.  The split is made once per block,
        and a block that lies in one regime pays no take/put copies.
        """
        series = self._series.get(shift)
        if series is None:
            return self._rows(z, shift)
        inner = np.abs(z) <= _SERIES_RADIUS
        if inner.all():
            return _horner(series, z) * z
        if not inner.any():
            return self._rows(z, shift)
        near = np.flatnonzero(inner)
        far = np.flatnonzero(~inner)
        out = np.empty_like(z)
        zn = z.take(near)
        out.put(near, _horner(series, zn) * zn)
        out.put(far, self._rows(z.take(far), shift))
        return out
