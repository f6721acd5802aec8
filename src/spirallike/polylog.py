"""The polylogarithms Li_0..Li_3 on the closed unit disk, vectorized.

Every kernel of the package is a weighted sum of Li_n(u) = sum_m u^m/m^n at
u = exp(-i*t)z: an atom adds Li_1 = -log(1 - u) to log(g/z) and
Li_0 = u/(1 - u) to zg'/g, a density slope change Li_3 and Li_2, and g0 and
the log-factor family are functions of Li_1(z).  li2 and li3 take one route
with two regimes, split at |log u| = 1:

- near, |w| <= 1 with w = log u: the expansion of Li_n(e^w) about w = 0,
  sum_k zeta(n - k) w^k/k! with the logarithmic k = n - 1 term written
  out.  zeta vanishes at the negative even integers, so past k = n the
  regular part is w^(n-1) times a series in w^2.
- far, the rest of the disk: the series in x = Li_1(u) with Bernoulli
  coefficients ('t Hooft & Veltman 1979), Li_2 = sum_k B_k x^(k+1)/(k+1)!
  and Li_3 from dLi_3/dx = Li_2/(e^x - 1).  There |x| <= 1.0717 (the
  maximum is at u = e^(+-i)) and |1 - u|^2 >= 0.39.

The tables are float literals.  Each coefficient is an exact fraction
(Bernoulli numbers B_0..B_22 only) rounded once, and each table ends before
its first nonzero term c_k with |c_k| R^k < 2^-56 on its regime's radius R,
relative to its leading term; tests/test_polylog.py rebuilds every table
from exact rationals and checks both.
Both series converge with ratio |w|/(2 pi) or |x|/(2 pi) < 0.18.
Logarithms, log(1 - u) and principal ones alike, come from real ufuncs
(abs, angle, arctan2, log, log1p), which cost a small fraction of numpy's
complex log.  Every operation is elementwise, so a point's value does not
depend on the array it arrives in.  The module needs numpy only.
"""

import math

import numpy as np

from .errors import DomainError, _numbers, _scalar

_ABS_TOL = 1e-12
_TAIL = 2.0**-56
_FAR_RADIUS = 1.0717

_ZETA = {2: math.pi**2 / 6.0, 3: 1.2020569031595942}


# Li_n(e^w) = sum_{k < n-1} zeta(n-k) w^k/k!
#             + w^(n-1) [(H_{n-1} - log(-w))/(n-1)! + zeta(0) w/n! + w^2 P_n(w^2)],
# P_n(s) = sum_j c_j s^j with c_j = zeta(-1 - 2j)/(n + 1 + 2j)!
_NEAR = {
    2: np.array([
        -0.013888888888888888, 6.944444444444444e-05, -7.873519778281683e-07,
        1.1482216343327455e-08, -1.8978869988971e-10, 3.387301370953521e-12,
        -6.372636443183181e-14, 1.2462059912950672e-15, -2.5105444608999545e-17,
    ]),
    3: np.array([
        -0.003472222222222222, 1.1574074074074073e-05, -9.841899722852104e-08,
        1.1482216343327454e-09, -1.5815724990809165e-11, 2.4195009792525154e-13,
        -3.982897776989488e-15, 6.92336661830593e-17,
    ]),
}
# Li_n(u) = x F_n(x), x = -log(1 - u), F_n(x) = sum_k c_k x^k with
# c_k = B_k/(k + 1)! for n = 2 and sum_j B_j B_(k-j)/((j + 1)! (k - j)!)/(k + 1)
# for n = 3
_FAR = {
    2: np.array([
        1.0, -0.25, 0.027777777777777776, 0.0, -0.0002777777777777778, 0.0,
        4.72411186696901e-06, 0.0, -9.185773074661964e-08, 0.0, 1.8978869988971e-09,
        0.0, -4.0647616451442256e-11, 0.0, 8.921691020456452e-13, 0.0,
        -1.9939295860721074e-14, 0.0, 4.518980029619918e-16, 0.0, -1.0356517612181247e-17,
    ]),
    3: np.array([
        1.0, -0.375, 0.0787037037037037, -0.008680555555555556, 0.00012962962962962963,
        8.101851851851852e-05, -3.4193571608537595e-06, -1.328656462585034e-06,
        8.660871756109851e-08, 2.52608759553204e-08, -2.144694468364065e-09,
        -5.140110622012979e-10, 5.24958211460083e-11, 1.0887754406636318e-11,
        -1.2779396094493695e-12, -2.369824177308745e-13, 3.104357887965462e-14,
        5.261758629912506e-15, -7.538479549949265e-16, -1.1862322577752286e-16,
        1.8316979965491384e-17,
    ]),
}
# F_n(x) = E_n(x^2) + x O_n(x^2); the odd part of F_2 is the single -1/4
_FAR_PARTS = {n: (t[0::2], np.trim_zeros(t[1::2], "b")) for n, t in _FAR.items()}
_HARMONIC = {2: 1.0, 3: 1.5}


def _horner(coefs, x):
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        acc = acc * x + c
    return acc


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _log(v):
    """Principal log of v from its modulus and its argument."""
    return _complex(np.log(np.abs(v)), np.arctan2(v.imag, v.real))


def _li0(u):
    return u / (1.0 - u)


def _li1(u):
    """-log(1 - u) for |u| <= 1, u != 1.

    log|1 - u| is log1p(s)/2 with s = |u|^2 - 2 Re u, accurate relative to
    |u| near 0, where |1 - u|^2 >= 0.39 keeps log1p well conditioned; nearer
    u = 1 it is log(|1 - u|^2)/2, whose 1 - Re u is exact for Re u >= 1/2.
    """
    x, y = _parts(u)
    a = 1.0 - x
    yy = y * y
    q = a * a + yy
    re = np.log(q)
    # log1p only where it is used: next to u = 1, s rounds to -1
    np.log1p((x - 2.0) * x + yy, out=re, where=q >= 0.39)
    re *= -0.5
    return _complex(re, np.arctan2(y, a))


def _li1_arg(u):
    """Im Li_1(u) = arg(1/(1 - u)) for |u| <= 1, u != 1, without the modulus."""
    x, y = _parts(u)
    return np.arctan2(y, 1.0 - x)


def _parts(u):
    """Re u and Im u as contiguous copies.

    The views u.real and u.imag step over a complex array, which keeps
    numpy's SIMD loops from reading them; the copies hold the same values,
    so every result keeps its bits.
    """
    return np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)


def _near(n, lr, th):
    """Li_n(e^w) for w = lr + i th, 0 < |w| <= 1."""
    w = _complex(lr, th)
    inv_fact = 1.0 / math.factorial(n - 1)
    log_mw = _log(-w)
    s = w * w
    acc = _horner(_NEAR[n], s) * s
    acc = acc + (_HARMONIC[n] * inv_fact - inv_fact * log_mw) + w * (-0.5 / math.factorial(n))
    for k in range(n - 2, -1, -1):
        acc = acc * w + _ZETA[n - k] / math.factorial(k)
    return acc


def _far(n, u):
    """Li_n(u) through x = -log(1 - u) = Li_1(u)."""
    x = _li1(u)
    s = x * x
    even, odd = _FAR_PARTS[n]
    return (_horner(even, s) + x * _horner(odd, s)) * x


def _polylog(n, u):
    u = _numbers(u, complex, "arguments")
    flat = u.ravel()
    r = np.abs(flat)
    if not np.all(r <= 1.0 + _ABS_TOL):
        raise DomainError("polylogarithms evaluated only for finite u with |u| <= 1")
    # |u| < 1/4 gives |log u| > log 4 > 1, so clamping there keeps log finite
    # without moving any point across the seam.
    lr = np.log(np.maximum(r, 0.25))
    th = np.angle(flat)
    w2 = lr * lr + th * th
    # index arrays: gathering and scattering by index is several times
    # cheaper than by a boolean mask; u = 1 keeps the initial zeta(n)
    near = np.flatnonzero((w2 <= 1.0) & (flat != 1.0))
    far = np.flatnonzero(w2 > 1.0)
    out = np.full_like(flat, _ZETA[n])
    if near.size:
        out.put(near, _near(n, lr.take(near), th.take(near)))
    if far.size:
        out.put(far, _far(n, flat.take(far)))
    return _scalar(out.reshape(u.shape))


def _li(n, u):
    """Li_n(u), n = 0..3, on an array; li2 and li3 are looked up at each call."""
    return (_li0, _li1, li2, li3)[n](u)


def _li_imag(n, u):
    """Im Li_n(u), n = 0..3, on an array; Im Li_1 is _li1_arg, which forms no modulus."""
    return _li1_arg(u) if n == 1 else _li(n, u).imag


def li2(u):
    """Dilogarithm, sum of u^m / m^2, for |u| <= 1."""
    return _polylog(2, u)


def li3(u):
    """Trilogarithm, sum of u^m / m^3, for |u| <= 1."""
    return _polylog(3, u)
