"""Independent oracles for the benchmark's checks.

The oracles never call the package's numerical routines: closed forms and
the polylogarithm sums are evaluated in mpmath at 30 digits, with the slope
changes of the density recomputed from its knots.
"""

import math

import mpmath as mp

TWO_PI = 2.0 * math.pi
UNIT_ROUNDOFF = 2.0**-53
# Relative-error limit of a kernel output.  Forming u = z*exp(-i*t) costs a
# relative error of one rounding in u, which 1 - u amplifies by at most
# 1/(1 - |z|) <= 1e6; with atom weights |mu|*d/pi <= 2 that stays below 5e-10.
KERNEL_TOL = 1e-9

mp.mp.dps = 30


def _mu(lam):
    lam = mp.mpf(lam)
    return mp.exp(1j * lam) * mp.cos(lam)


def _slope_changes(knots):
    t = [k[0] for k in knots]
    v = [k[1] for k in knots]
    n = len(t)
    if n < 2:
        return []
    slopes = []
    for j in range(n):
        t_next = t[(j + 1) % n] + (TWO_PI if j == n - 1 else 0.0)
        slopes.append((mp.mpf(v[(j + 1) % n]) - v[j]) / (mp.mpf(t_next) - t[j]))
    return [(t[j], slopes[j] - slopes[j - 1]) for j in range(n)]


def oracle(spec, z):
    """(log(f/z), z f'/f, f) at the double z, in 30-digit arithmetic."""
    kind = spec[0]
    z = mp.mpc(complex(z))
    if kind == "measure":
        measure, lam = spec[1], spec[2]
        integral = mp.mpc(0)
        deriv = mp.mpc(0)
        for t, d in measure.atoms:
            u = z * mp.exp(-1j * mp.mpf(t))
            integral += d * mp.log(1 - u)
            deriv += d * u / (1 - u)
        for t, sigma in _slope_changes(measure.density_knots):
            u = z * mp.exp(-1j * mp.mpf(t))
            integral += sigma * mp.polylog(3, u)
            deriv -= sigma * mp.polylog(2, u)
        mu = _mu(lam)
        L = -(mu / mp.pi) * integral
        D = 1 + (mu / mp.pi) * deriv
    elif kind == "koebe":
        mu = _mu(spec[1])
        L = -2 * mu * mp.log(1 - z)
        D = 1 + mu * 2 * z / (1 - z)
    elif kind == "g0":
        w = -mp.log(1 - z)
        L = w + mp.log(w / z) if z != 0 else mp.mpc(0)
        D = z / (1 - z) + (z / ((1 - z) * w) if z != 0 else 1)
    elif kind == "hansen":
        _, alpha, beta_exp, c, lam = spec
        mu = _mu(lam)
        w = -mp.log(1 - z)
        base = 1 + c * w
        L = mu * (-alpha * mp.log(1 - z) + beta_exp * mp.log(base))
        D = 1 + mu * (alpha * z / (1 - z) + beta_exp * c * z / ((1 - z) * base))
    else:
        raise ValueError(kind)
    return complex(L), complex(D), complex(z * mp.exp(L))


def kernel_error(method, value, expected):
    """Relative error of one kernel output against the oracle triple.

    For log(f/z) the absolute error is used: it equals the relative error of
    f/z = exp(log(f/z)) to first order.
    """
    L, D, f = expected
    if method == "log_f_over_z":
        return abs(value - L)
    if method == "log_derivative":
        return abs(value - D) / abs(D)
    return abs(value - f) / abs(f) if f != 0 else abs(value)


def digits(max_error):
    """-log10 of a relative error, floored at the unit roundoff."""
    return -math.log10(max(max_error, UNIT_ROUNDOFF))
