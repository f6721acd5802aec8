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

The continuous lam-argument of f/z, arg(f/z) - tan(lam) log|f/z|, is
Im G for every lam, G = log(g/z): log(f/z) = mu*G and Im(mu*G) -
tan(lam) Re(mu*G) = Im G.  arg_lambda_f_over_z reads it from the imaginary
part of the same sum, where an atom's term is one arctan2,
Im Li_1(u) = arg(1/(1 - u)), and no real part is formed.
"""

import itertools

import numpy as np

from .errors import AccuracyError, DomainError, _grid_size, _instance, _numbers, _scalar
from .polylog import _TAIL, _horner, _li, _li_imag
from .spiral_geometry import SpiralAngle

_MAX_FFT = 1 << 20
# A (terms, points) block holds fewer than 16384 complex values (256 KiB):
# at that size numpy starts to reuse temporaries as outputs, and its
# in-place complex multiply rounds differently from the out-of-place one.
_BLOCK_TERMS = 16383
# radius of the disk where a measure with slope changes is summed as one
# power series of its moments
_SERIES_RADIUS = 0.5


def _as_disk_points(z):
    """z as a complex array; DomainError unless every point is a finite number with |z| < 1."""
    z = _numbers(z, complex, "points")
    if not (np.abs(z) < 1.0).all():
        raise DomainError("evaluation requires finite z with |z| < 1")
    return z


def _pointwise(kernel, z):
    """kernel over the disk-checked, flattened points of z in blocks of _BLOCK_TERMS points.

    A scalar z goes through the same array arithmetic as an array and is
    unwrapped once, to a Python complex or, from a real kernel, a float, so
    z alone and z inside any array get the same bits (Python complex and
    numpy's loops round differently).  This is the package's one gate for
    kernel values: DomainError, naming the first such point, when a value
    is not finite, so no caller checks them again.
    """
    z = _as_disk_points(z)
    flat = z.ravel()
    parts = [
        kernel(flat[i : i + _BLOCK_TERMS]) for i in range(0, max(flat.size, 1), _BLOCK_TERMS)
    ]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if not np.isfinite(out).all():
        bad = flat[~np.isfinite(out)][0].item()
        raise DomainError(f"the function is not finite at z = {bad!r}")
    return _scalar(out.reshape(z.shape))


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
    log_derivative returns z*f'(z)/f(z), evaluate returns f(z) and
    arg_lambda_f_over_z returns the continuous lam-argument of f(z)/z, 0 at
    the center, as a real array (a float for a scalar z).  Each takes a
    scalar or an array of points with |z| < 1; it checks the domain,
    flattens, evaluates blocks of _BLOCK_TERMS points and raises
    DomainError where a value is not finite (_pointwise).  A
    MeasureFunction lays its terms out term-major, one row of a
    (terms, points) array per atom or slope change, and each polylog order
    in its own row blocks of _BLOCK_TERMS // (that order's term count)
    points, so that those temporaries stay in the L2 cache; at points with
    |z| <= 1/2 a measure with slope changes instead takes one Horner pass
    over the moment series of the whole measure, atoms and slope changes
    together, on the whole block.  Every step of a kernel is
    elementwise or a sum over terms in term order (_term_sum: one reduce
    over the term axis, a running sum for a single point), and |z| alone
    picks a point's regime, so a point gets the same bits alone as inside
    any array.

    Subclasses implement the kernels of the starlike partner g on 1-d arrays
    of checked points: _log_g_over_z returns log(g/z) and
    _log_derivative_excess returns zg'/g - 1.  This class applies the
    pairing once, with mu = exp(i*lam)cos(lam) from self.angle:
    log(f/z) = mu*log(g/z) and zf'/f = 1 + mu*(zg'/g - 1).  The
    lam-argument of f/z needs no pairing, as it is arg(g/z) = Im log(g/z)
    for every lam: _arg_g_over_z takes the imaginary part of _log_g_over_z,
    and a subclass may replace it by a kernel that forms no real part.
    known_max_jump is the largest jump of the boundary measure that f and g
    share, and measure that measure, when known.  DomainError unless angle
    is a SpiralAngle.
    """

    def __init__(self, angle, known_max_jump=None, measure=None):
        self.angle = _instance(angle, SpiralAngle, "an inclination")
        self.known_max_jump = known_max_jump
        self.measure = measure

    def _log_f_over_z(self, z):
        return self.angle.mu * self._log_g_over_z(z)

    def _log_derivative(self, z):
        return 1.0 + self.angle.mu * self._log_derivative_excess(z)

    def _evaluate(self, z):
        # exp can turn a non-finite log into a finite value (exp(-inf + inf*i)
        # is 0), so it takes only the finite logs and leaves NaN at the others
        log = self._log_f_over_z(z)
        return z * np.exp(log, out=np.full_like(log, np.nan), where=np.isfinite(log))

    def _arg_g_over_z(self, z):
        return self._log_g_over_z(z).imag

    def log_f_over_z(self, z):
        return _pointwise(self._log_f_over_z, z)

    def log_derivative(self, z):
        return _pointwise(self._log_derivative, z)

    def evaluate(self, z):
        return _pointwise(self._evaluate, z)

    def arg_lambda_f_over_z(self, z):
        """Continuous lam-argument of f(z)/z, 0 at the center: Im log(g/z).

        This is the branch the boundary traces need.
        """
        return _pointwise(self._arg_g_over_z, z)

    def taylor_coefficients(self, n_max):
        """Coefficients a_1..a_n_max of f at 0 from one FFT on |z| = r = e^(-1/n_max).

        The circle takes N samples, the power of two at or above 40*n_max,
        so r^N <= e^-40 and aliasing adds at most (m + N)*e^-40 to a_m for
        univalent f (|a_k| <= k).  Dividing by r^m >= 1/e raises rounding
        by at most e: the error is about eps*e*max_{|z|=r}|f|, which is
        e*eps*n_max^2 for Koebe.  AccuracyError, before any sampling, when N
        would exceed 2^20 (n_max > 26214).
        """
        n_max = _grid_size(n_max, "n_max", most=None)
        N = 1 << (40 * n_max - 1).bit_length()
        if N > _MAX_FFT:
            raise AccuracyError(f"n_max = {n_max} needs {N} circle samples, above {_MAX_FFT}")
        radius = np.exp(-1.0 / n_max)
        k = np.arange(N)
        coef = np.fft.fft(self.evaluate(radius * np.exp(2j * np.pi * k / N))) / N
        return coef[1 : n_max + 1] / radius ** k[1 : n_max + 1]


class MeasureFunction(SpiralFunction):
    """The function of a (BoundaryMeasure, SpiralAngle) pair.

    Its terms are stored by polylog order, and one measure sum serves the
    three starlike kernels: log(g/z) at shift 0 and zg'/g - 1 at shift 1,
    where an order-n term enters as Li_(n - shift), and arg(g/z) at shift 0
    with Im Li_n in place of Li_n, so that an atom's row is one real
    arctan2.  Outside |z| <= 1/2 each term takes one row (_rows), and the
    rows of each order go in blocks of _BLOCK_TERMS // (that order's term
    count) points, so each polylog call takes as many points as the cache
    bound allows (24 atoms and 12 slope changes: 682-point Li_1 and
    1365-point Li_3 blocks).  Inside it a measure with slope changes is one
    series in its moments (_moment_series), tabulated once here: 51 terms
    for log(g/z) and 57 for zg'/g with atoms, 41 and 46 without, so all
    terms together take one Horner pass.  Measures without slope changes
    (atoms only, constant density) have no series: for a few atoms the rows
    cost less than a Horner pass of 51 terms.
    """

    def __init__(self, measure, angle):
        # here, not at module level: the g0 and hansen handles use no BoundaryMeasure
        from .boundary_measure import BoundaryMeasure

        _instance(measure, BoundaryMeasure, "a measure")
        super().__init__(angle, known_max_jump=measure.max_jump(), measure=measure)
        atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
        sigma_t, sigma = measure.slope_changes()
        terms = {1: (atoms[:, 0], atoms[:, 1]), 3: (sigma_t, -sigma)}
        terms = {n: (t, w) for n, (t, w) in terms.items() if w.size}
        # (terms, 1) columns, so that rot * z is a (terms, points) array
        self._terms = {n: (np.exp(-1j * t)[:, None], w[:, None]) for n, (t, w) in terms.items()}
        self._series = {shift: _moment_series(terms, shift) for shift in (0, 1) if 3 in terms}

    def _log_g_over_z(self, z):
        return (1.0 / np.pi) * self._measure_sum(z, 0)

    def _log_derivative_excess(self, z):
        return (1.0 / np.pi) * self._measure_sum(z, 1)

    def _arg_g_over_z(self, z):
        return (1.0 / np.pi) * self._measure_sum(z, 0, imag=True)

    def _rows(self, z, shift, imag):
        """sum_n sum_k w_k Li_(n - shift)(exp(-i*t_k) z), one row per term.

        With imag, each row is the real Im Li_(n - shift) (_li_imag), which
        for an atom is one arctan2.  Each order is evaluated in its own row
        blocks of _BLOCK_TERMS // (its term count) points, so that its
        (terms, points) temporaries stay in the L2 cache and each polylog
        call takes as many points as that allows.  A point still adds its
        orders in term order, so its value does not depend on the blocks.
        """
        term = _li_imag if imag else _li
        out = np.zeros(z.shape, dtype=float if imag else complex)
        for n, (rot, w) in self._terms.items():
            block = max(1, _BLOCK_TERMS // rot.shape[0])
            for i in range(0, z.size, block):
                out[i : i + block] += _term_sum(w * term(n - shift, rot * z[i : i + block]))
        return out

    def _measure_sum(self, z, shift, imag=False):
        """The measure sum at z: the series inside |z| <= 1/2, else the rows.

        With imag, only its imaginary part, from Im Li_n rows.  |z| alone
        picks a point's route.  The split is made once per block, and a
        block that lies in one regime pays no take/put copies.
        """
        series = self._series.get(shift)
        if series is None:
            return self._rows(z, shift, imag)

        def series_sum(zs):
            value = _horner(series, zs) * zs
            return value.imag if imag else value

        inner = np.abs(z) <= _SERIES_RADIUS
        if inner.all():
            return series_sum(z)
        if not inner.any():
            return self._rows(z, shift, imag)
        near = np.flatnonzero(inner)
        far = np.flatnonzero(~inner)
        inside = series_sum(z.take(near))
        out = np.empty(z.shape, dtype=inside.dtype)
        out.put(near, inside)
        out.put(far, self._rows(z.take(far), shift, imag))
        return out
