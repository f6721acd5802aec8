"""Dilogarithm / trilogarithm on the closed unit disk.

Oracle: mpmath.polylog at 30 digits, evaluated on a deterministic grid that
exercises both evaluation regimes (direct series for |u| <= 0.5, zeta-type
expansion about u = 1 for the annulus 0.5 < |u| <= 1) plus the boundary
circle, where the series would converge too slowly to be usable.  The
expansion coefficients zeta(n - k)/k! are checked one by one against the
same oracle.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import DomainError, li2, li3
from spirallike.polylog import _COEFS

mpmath.mp.dps = 30


def oracle(n, u):
    v = mpmath.polylog(n, mpmath.mpc(u))
    return complex(v)


def deterministic_grid():
    rng = np.random.default_rng(20240817)
    radii = np.concatenate([rng.uniform(0.0, 0.5, 12), rng.uniform(0.5, 0.999, 12), [1.0] * 12])
    phases = rng.uniform(-math.pi, math.pi, radii.size)
    pts = radii * np.exp(1j * phases)
    # pin the awkward spots: regime seam, both axes, near u = 1
    extra = np.array(
        [0.5, -0.5, 0.5j, 0.499999, 0.500001, -1.0, 1j, -1j, 0.999999,
         np.exp(0.001j), np.exp(-0.001j), 1.0 - 1e-9 + 0j]
    )
    return np.concatenate([pts, extra])


@pytest.mark.parametrize("n,fn", [(2, li2), (3, li3)])
def test_against_mpmath_grid(n, fn):
    pts = deterministic_grid()
    got = fn(pts)
    want = np.array([oracle(n, u) for u in pts])
    err = np.max(np.abs(got - want))
    assert err < 5e-15, f"max polylog error {err:.3e}"


@pytest.mark.parametrize("n", [2, 3])
def test_expansion_coefficients_against_mpmath(n):
    # c_k = zeta(n - k)/k!, with the k = n - 1 slot (the pole of zeta at 1)
    # left at zero; zeta vanishes at the negative even integers.
    for k, got in enumerate(_COEFS[n]):
        if k == n - 1:
            assert got == 0.0
            continue
        want = mpmath.zeta(n - k) / mpmath.factorial(k)
        if want == 0:
            assert got == 0.0, f"c_{k} = {got!r}, want 0"
        else:
            rel = abs((got - want) / want)
            assert rel < 1e-15, f"c_{k}: relative error {float(rel):.3e}"


def test_special_values():
    ln2 = math.log(2.0)
    z2 = math.pi**2 / 6.0
    z3 = float(mpmath.zeta(3))
    assert li2(0.5) == pytest.approx(z2 / 2 - ln2**2 / 2, abs=1e-14)
    assert li3(0.5) == pytest.approx(7 * z3 / 8 - z2 * ln2 / 2 + ln2**3 / 6, abs=1e-14)
    assert li2(1.0) == pytest.approx(z2, abs=1e-14)
    assert li3(1.0) == pytest.approx(z3, abs=1e-14)
    assert li2(-1.0) == pytest.approx(-z2 / 2, abs=1e-14)
    assert li2(0.0) == 0.0 and li3(0.0) == 0.0


def test_landen_identity():
    # Li2(u) + Li2(u/(u-1)) = -log(1-u)^2 / 2 for Re u < 1/2; an identity
    # independent of the evaluation route, so it cross-checks both regimes.
    for u in [0.3 + 0.2j, -0.7 + 0.4j, 0.45j, -0.99]:
        lhs = li2(u) + li2(u / (u - 1.0))
        rhs = -np.log(1.0 - u) ** 2 / 2.0
        assert abs(lhs - rhs) < 1e-13


def test_derivative_relation():
    # u * d/du Li3(u) = Li2(u), checked with a central difference well
    # inside the disk where the quotient is smooth.
    h = 1e-6
    for u in [0.4 + 0.1j, -0.6 + 0.55j, 0.2 - 0.7j]:
        d = (li3(u * (1 + h)) - li3(u * (1 - h))) / (2 * h)
        assert abs(d - li2(u)) < 1e-8


def test_domain_error_outside_disk():
    with pytest.raises(DomainError):
        li2(1.0 + 1e-6)
    with pytest.raises(DomainError):
        li3(np.array([0.5, 1.5j]))


def test_vectorization_and_scalars():
    u = np.array([0.1, 0.9j, -1.0])
    assert li2(u).shape == (3,)
    assert isinstance(li2(0.25 + 0.25j), complex)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_conjugation_symmetry(r, phi):
    # Li_n(conj u) = conj Li_n(u): coefficients are real, so any asymmetry
    # is an evaluation artifact (e.g. a branch slip in the expansion).
    u = r * np.exp(1j * phi)
    assert abs(li2(np.conj(u)) - np.conj(li2(u))) < 1e-13
    assert abs(li3(np.conj(u)) - np.conj(li3(u))) < 1e-13
