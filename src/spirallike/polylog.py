"""Vectorized dilogarithm and trilogarithm on the closed unit disk.

Piecewise-linear density parts of a boundary measure integrate against
log(1 - exp(-i*t)z) in closed form through Li_2 and Li_3 evaluated at
points u with |u| <= 1.  Two regimes: the defining power series for
|u| <= 1/2, and the zeta-series expansion of Li_n(exp(w)) around w = 0
otherwise (|w| = |Log u| <= sqrt(log(2)^2 + pi^2) < 2*pi, so the
expansion converges geometrically with ratio below 0.52).

The expansion coefficients zeta(n - k)/k! need zeta(2), zeta(3) and zeta at
the non-positive integers; the latter are exact rationals in the Bernoulli
numbers, built once at import with exact fractions, so every coefficient is
the correctly rounded double.  The module needs numpy only.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

_DIRECT_TERMS = 56
_EXPANSION_TERMS = 72
_ABS_TOL = 1e-12

_ZETA = {2: math.pi**2 / 6.0, 3: 1.2020569031595942}


def _bernoulli_numbers(n):
    """Exact B_0..B_n (B_1 = -1/2) from sum_k C(m+1, k) B_k = 0 over k = 0..m."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        # odd Bernoulli numbers past B_1 vanish, so only k = 0, 1 and even k add
        acc = sum(math.comb(m + 1, k) * b[k] for k in range(m) if k < 2 or k % 2 == 0)
        b.append(-acc / (m + 1))
    return b


def _expansion_coefficients(n, bernoulli):
    """Coefficients c_k = zeta(n - k)/k! of Li_n(e^w), skipping k = n - 1."""
    coefs = np.zeros(_EXPANSION_TERMS + 1)
    for k in range(_EXPANSION_TERMS + 1):
        s = n - k
        if s >= 2:
            coefs[k] = _ZETA[s] / math.factorial(k)
        elif s <= 0:
            # zeta(-m) = (-1)^m B_{m+1} / (m+1), rounded once at the end
            m = -s
            coefs[k] = float((-1) ** m * bernoulli[m + 1] / ((m + 1) * math.factorial(k)))
    return coefs


_BERNOULLI = _bernoulli_numbers(_EXPANSION_TERMS)
_COEFS = {n: _expansion_coefficients(n, _BERNOULLI) for n in (2, 3)}
_HARMONIC = {2: 1.0, 3: 1.5}
_FACT = {2: 1.0, 3: 2.0}


def _direct_series(n, u):
    acc = np.zeros_like(u)
    for m in range(_DIRECT_TERMS, 0, -1):
        acc = acc * u + 1.0 / m**n
    return acc * u


def _zeta_expansion(n, u):
    w = np.log(u)
    acc = np.zeros_like(w)
    coefs = _COEFS[n]
    for k in range(_EXPANSION_TERMS, -1, -1):
        acc = acc * w + coefs[k]
    # The k = n - 1 term carries the logarithmic singularity at u = 1.
    acc = acc + w ** (n - 1) / _FACT[n] * (_HARMONIC[n] - np.log(-w))
    return acc


def _polylog(n, u):
    u = np.asarray(u, dtype=complex)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(np.abs(u) > 1.0 + _ABS_TOL):
        raise DomainError("polylogarithms evaluated only for |u| <= 1")
    out = np.empty_like(u)
    at_one = u == 1.0
    small = (np.abs(u) <= 0.5) & ~at_one
    large = ~small & ~at_one
    if np.any(small):
        out[small] = _direct_series(n, u[small])
    if np.any(large):
        out[large] = _zeta_expansion(n, u[large])
    if np.any(at_one):
        out[at_one] = _ZETA[n]
    return complex(out[0]) if scalar else out


def li2(u):
    """Dilogarithm, sum of u^m / m^2, for |u| <= 1."""
    return _polylog(2, u)


def li3(u):
    """Trilogarithm, sum of u^m / m^3, for |u| <= 1."""
    return _polylog(3, u)
