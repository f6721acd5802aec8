"""The polylogarithms Li_0..Li_3 on the closed unit disk.

Oracle: mpmath.polylog at 30 digits, evaluated on a deterministic grid that
exercises both evaluation regimes (the expansion of Li_n(e^w) about w = 0
for |w| = |log u| <= 1, the Bernoulli series in x = -log(1 - u) elsewhere)
plus the boundary circle, where the defining series would converge too
slowly to be usable.  Points on both sides of the seam |log u| = 1 go
through each regime directly; tiny |u| checks relative accuracy on both
axes.  Every coefficient of both regimes' tables is rebuilt from exact
rationals (Bernoulli numbers from their recurrence) and must equal its
exact value rounded once; the same rationals fix the bound at which each
table stops, and are checked against mpmath's zeta and Bernoulli numbers.
Li_0 = u/(1 - u) and Li_1 = -log(1 - u) are checked against the same oracle
on the grid and at tiny |u|.  mpmath is a test extra: each oracle check
imports it through pytest.importorskip, so a numpy-only run skips those
checks and runs the rest.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import DomainError, li2, li3
from spirallike import polylog


def oracle(n, u, dps=30):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        return complex(mpmath.polylog(n, mpmath.mpc(u)))


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
    assert err < 2e-15, f"max polylog error {err:.3e}"


@pytest.mark.parametrize("n", [0, 1])
def test_li0_li1_against_mpmath(n):
    # Li_0 = u/(1 - u) and Li_1 = -log(1 - u) on the grid plus tiny |u| on
    # both axes and both signs; relative, since Li_0 reaches 1e9 next to u = 1.
    # 1 - u keeps u = 1e-300 only at 300+ digits
    tiny = [10.0**e * d for e in range(-300, 0, 3) for d in (1, -1, 1j, -1j)]
    pts = np.concatenate([deterministic_grid(), tiny])
    got = polylog._li(n, pts)
    want = np.array([oracle(n, u, dps=330) for u in pts])
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 4 * np.finfo(float).eps, f"relative error {rel.max():.3e}"


@functools.cache
def bernoulli(m):
    """Exact B_m (B_1 = -1/2) from sum_k C(m+1, k) B_k = 0 over k = 0..m."""
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2:
        return Fraction(0)
    return -sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m)) / (m + 1)


def near_exact(n, k):
    # coefficient of w^(n-1) s^(k+1), s = w^2, in Li_n(e^w): zeta(n - m)/m!
    # at m = n + 1 + 2k, with zeta(-1 - 2k) = -B_(2k+2)/(2k + 2)
    m = n + 1 + 2 * k
    return -bernoulli(2 * k + 2) / ((2 * k + 2) * math.factorial(m))


def far_exact(n, k):
    # coefficient of x^(k+1) in Li_n(1 - e^(-x)); Li_3 from dLi_3/dx = Li_2/(e^x - 1)
    if n == 2:
        return bernoulli(k) / math.factorial(k + 1)
    return sum(
        bernoulli(j) * bernoulli(k - j) / (math.factorial(j + 1) * math.factorial(k - j))
        for j in range(k + 1)
    ) / (k + 1)


def near_mpmath(n, k):
    mpmath = pytest.importorskip("mpmath")
    m = n + 1 + 2 * k
    return mpmath.zeta(n - m) / mpmath.factorial(m)


def far_mpmath(n, k):
    mpmath = pytest.importorskip("mpmath")
    b, f = mpmath.bernoulli, mpmath.factorial
    if n == 2:
        return b(k) / f(k + 1)
    return mpmath.fsum(b(j) * b(k - j) / (f(j + 1) * f(k - j)) for j in range(k + 1)) / (k + 1)


def assert_table(table, exact, radius):
    # every coefficient is its exact fraction rounded once
    assert table.dtype == np.float64
    for k, got in enumerate(table):
        assert got == float(exact(k)), f"c_{k} = {got!r}, want {float(exact(k))!r}"
    # the table ends at its last term not below 2^-56 on its radius; the
    # next nonzero term is below
    last = len(table) - 1
    assert exact(last) != 0
    assert abs(exact(last)) * Fraction(radius) ** last >= Fraction(2) ** -56
    k = last + 1
    while exact(k) == 0:
        k += 1
    assert abs(exact(k)) * Fraction(radius) ** k < Fraction(2) ** -56


@pytest.mark.parametrize("n", [2, 3])
def test_near_coefficients_are_exact(n):
    assert_table(polylog._NEAR[n], lambda k: near_exact(n, k), 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_far_coefficients_are_exact(n):
    assert_table(polylog._FAR[n], lambda k: far_exact(n, k), polylog._FAR_RADIUS)


def assert_rationals_match(exact, oracle):
    # the rational formulas agree with mpmath's zeta and Bernoulli numbers
    # at 30 digits, past the end of every table
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for k in range(24):
            want, got = oracle(k), exact(k)
            if want == 0:
                assert got == 0, f"c_{k} = {got}, want 0"
            else:
                rel = abs((mpmath.mpf(got.numerator) / got.denominator - want) / want)
                assert rel < 1e-25, f"c_{k}: relative error {float(rel):.3e}"


@pytest.mark.parametrize("n", [2, 3])
def test_near_coefficients_against_mpmath(n):
    assert_rationals_match(lambda k: near_exact(n, k), lambda k: near_mpmath(n, k))


@pytest.mark.parametrize("n", [2, 3])
def test_far_coefficients_against_mpmath(n):
    assert_rationals_match(lambda k: far_exact(n, k), lambda k: far_mpmath(n, k))


def test_far_radius_covers_far_regime():
    # max |log(1 - u)| over |u| <= 1 with |log u| >= 1 is attained at
    # u = e^(+-i), a corner of the region
    mpmath = pytest.importorskip("mpmath")
    phi = np.linspace(np.pi / 2, 3 * np.pi / 2, 2001)
    seam = np.exp(np.exp(1j * phi))
    with mpmath.workdps(30):
        corner = abs(mpmath.log(1 - mpmath.expj(1)))
        assert corner <= polylog._FAR_RADIUS < corner + 1e-4
        assert np.max(np.abs(np.log(1.0 - seam))) <= corner + 1e-15


@pytest.mark.parametrize("n,fn", [(2, li2), (3, li3)])
def test_relative_accuracy_at_tiny_modulus(n, fn):
    # both axes and both signs, |u| = 1e-300 .. 1e-1: Li_n(u) ~ u, so the
    # error must be small relative to |u|, not only absolutely
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for e in range(-300, 0, 3):
            for d in (1, -1, 1j, -1j):
                u = 10.0**e * d
                want = mpmath.polylog(n, mpmath.mpc(u))
                worst = max(worst, float(abs(mpmath.mpc(fn(u)) - want) / abs(want)))
    assert worst < 1e-15, f"relative error {worst:.3e}"


@pytest.mark.parametrize("n,fn", [(2, li2), (3, li3)])
@pytest.mark.parametrize("u", [1.0 - 1e-15, np.exp(1e-12j), np.exp(-1e-12j)])
def test_next_to_one(n, fn, u):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = mpmath.polylog(n, mpmath.mpc(u))
        assert float(abs(mpmath.mpc(fn(u)) - want) / abs(want)) < 1e-15


def test_zero():
    for fn in (li2, li3):
        assert fn(0.0) == 0.0
        assert fn(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("side", [1.0 - 1e-13, 1.0 + 1e-13])
def test_both_regimes_at_the_seam(n, side):
    # |log u| = 1 -/+ 1e-13: each regime on its own, and the public route,
    # agree with the oracle on either side of the split
    phi = np.linspace(np.pi / 2, 3 * np.pi / 2, 9)
    u = np.exp(side * np.exp(1j * phi))
    w = np.log(u)
    want = np.array([oracle(n, x) for x in u])
    near = polylog._near(n, w.real, w.imag)
    far = polylog._far(n, u)
    for got in (near, far, polylog._polylog(n, u)):
        assert np.max(np.abs(got - want)) < 2e-15


def test_special_values():
    ln2 = math.log(2.0)
    z2 = math.pi**2 / 6.0
    z3 = 1.2020569031595942  # Apery's constant zeta(3) = 1.20205690315959428540..., rounded once
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


@pytest.mark.parametrize("bad", [np.nan, complex(0.5, np.nan), np.inf])
def test_domain_error_for_non_finite(bad):
    with pytest.raises(DomainError):
        li2(bad)
    with pytest.raises(DomainError):
        li3(np.array([bad, 0.5]))


def parent_li1(u):
    # Li_1 as computed on the strided views u.real and u.imag
    x, y = u.real, u.imag
    a = 1.0 - x
    yy = y * y
    q = a * a + yy
    re = np.log(q)
    np.log1p((x - 2.0) * x + yy, out=re, where=q >= 0.39)
    re *= -0.5
    out = np.empty(u.shape, dtype=complex)
    out.real = re
    out.imag = np.arctan2(u.imag, 1.0 - u.real)
    return out


def li1_inputs():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 2.0 * math.pi, 5)
    z = rng.uniform(0.0, 0.999, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    z[:4] = [0.0, 0.999999, -0.999, 1e-300j]
    product = np.exp(-1j * t)[:, None] * z
    return {
        "product": product,
        "slice": product[::2, 1::3],
        "one-point": z[1:2],
    }


@pytest.mark.parametrize("name", ["product", "slice", "one-point"])
def test_li1_on_contiguous_parts_keeps_bits(name):
    u = li1_inputs()[name]
    want = parent_li1(u)
    got = polylog._li1(u)
    assert got.shape == u.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    arg = polylog._li1_arg(u)
    assert np.array_equal(arg.view(np.uint64), want.imag.copy().view(np.uint64))


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
