"""Spirallike <-> starlike pairing: log(f/z) = mu * log(g/z).

Oracle relations checked pointwise:
  * roundtrip starlike_of(spirallike_of(g)) returns g's log exactly,
  * continuous arg(g(z)/z) equals the continuous lam-argument drift of
    f(z)/z divided through by the pairing (checked along radii),
  * |log|f/z| - cos^2(lam) log|g/z|| = |sin(lam)cos(lam)| |arg(g/z)|,
    so Goodman's bound |arg(g/z)| <= pi caps the modulus transfer error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import (
    STARLIKE,
    BoundaryMeasure,
    DomainError,
    G0Function,
    HansenParams,
    MeasureFunction,
    SpiralAngle,
    hansen_build,
    koebe_power,
    spirallike_of,
    starlike_of,
)

PI = math.pi

lams_nonzero = st.floats(min_value=-1.3, max_value=1.3).filter(lambda x: abs(x) > 1e-3)


def starlike_example():
    m = BoundaryMeasure.from_atoms([(0.3, 1.0), (2.0, 2.0), (5.5, 0.5)])
    return MeasureFunction(m, STARLIKE)


def mixed_measure():
    """Atoms 1 at 0.3 and 2 at 2.0 plus a 4-knot density, total mass 2*pi."""
    values = np.array([0.1, 0.3, 0.5, 0.2])
    values *= (2.0 * PI - 3.0) / (0.5 * PI * values.sum())
    knots = tuple(zip((np.arange(4) * PI / 2).tolist(), values.tolist()))
    return BoundaryMeasure(atoms=((0.3, 1.0), (2.0, 2.0)), density_knots=knots)


# points across both regimes of the density sum, the center included
_rng = np.random.default_rng(4)
POINTS = np.concatenate((
    [0.0, 0.5, -0.5j],
    0.5 * np.sqrt(_rng.uniform(0, 1, 100)) * np.exp(2j * PI * _rng.uniform(0, 1, 100)),
    (1.0 - 10.0 ** _rng.uniform(-6, -0.3, 100)) * np.exp(2j * PI * _rng.uniform(0, 1, 100)),
))


def assert_same_values(f, g):
    """f and g carry one inclination and give the same bits in all three methods."""
    assert f.angle == g.angle
    for name in ("log_f_over_z", "log_derivative", "evaluate"):
        got, want = getattr(f, name)(POINTS), getattr(g, name)(POINTS)
        assert got.tobytes() == want.tobytes(), name


def test_lam_zero_returns_equal_values():
    g = starlike_example()
    assert_same_values(spirallike_of(g, STARLIKE), g)
    assert_same_values(starlike_of(g), g)


def test_requires_certified_starlike_input():
    f = MeasureFunction(BoundaryMeasure.single_atom(), SpiralAngle(0.5))
    with pytest.raises(DomainError):
        spirallike_of(f, SpiralAngle(0.5))


def test_roundtrip_unwraps_exactly():
    g = starlike_example()
    a = SpiralAngle(PI / 4)
    f = spirallike_of(g, a)
    back = starlike_of(f)
    assert_same_values(back, g)


@settings(max_examples=30, deadline=None)
@given(lams_nonzero)
def test_roundtrip_log_agreement(lam):
    g = starlike_example()
    a = SpiralAngle(lam)
    rng = np.random.default_rng(11)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * PI * rng.uniform(0, 1, 100))
    f = spirallike_of(g, a)
    back = starlike_of(f)
    assert np.max(np.abs(back.log_f_over_z(z) - g.log_f_over_z(z))) < 1e-12
    # forward pairing is the mu-scaled log
    assert np.max(np.abs(f.log_f_over_z(z) - a.mu * g.log_f_over_z(z))) < 1e-12


def test_pairing_preserves_measure_and_flags():
    g = starlike_example()
    a = SpiralAngle(-0.8)
    f = spirallike_of(g, a)
    assert f.measure is g.measure
    assert f.known_max_jump == g.known_max_jump
    assert f._terms is g._terms
    assert f.angle == a
    assert not f.angle.is_starlike
    h = starlike_of(f)
    assert h.angle.is_starlike
    assert h.measure is g.measure


def test_spirallike_koebe_matches_measure_route():
    # applying the pairing to the koebe function reproduces the direct
    # single-atom construction at the same inclination, bit for bit
    a = SpiralAngle(0.9)
    via_pairing = spirallike_of(koebe_power(), a)
    direct = MeasureFunction(BoundaryMeasure.single_atom(), a)
    assert_same_values(via_pairing, direct)


STARLIKE_HANDLES = {
    "mixed": lambda: MeasureFunction(mixed_measure(), STARLIKE),
    "koebe_power": lambda: koebe_power(1.5),
    "g0": G0Function,
    "hansen": lambda: hansen_build(HansenParams(1.3, 2.0, 0.2)),
}


@pytest.mark.parametrize("lam", [0.7, -1.2, 1.4])
@pytest.mark.parametrize("make", STARLIKE_HANDLES.values(), ids=STARLIKE_HANDLES.keys())
def test_one_route_per_inclination(make, lam):
    # a handle is a starlike kernel plus an inclination: the measure route
    # and the pairing build the same function, and either way back to
    # inclination 0 gives the starlike handle's bits
    g = make()
    a = SpiralAngle(lam)
    f = spirallike_of(g, a)
    assert_same_values(starlike_of(f), g)
    if g.measure is not None:
        direct = MeasureFunction(g.measure, a)
        assert_same_values(f, direct)
        assert_same_values(starlike_of(direct), g)


@pytest.mark.parametrize("lam", [0.4, -0.9, 1.2])
def test_argument_transfer_along_radii(lam):
    # continuation along a radius: arg_lam of f/z accumulated from the
    # center equals Im(mu * log(g/z)) - tan(lam)*log|f/z| pointwise, and
    # both equal cos^2(lam) * local arg(g/z) after the spiral correction;
    # agreement of the two independent routes is the check.
    g = starlike_example()
    a = SpiralAngle(lam)
    f = spirallike_of(g, a)
    for k in range(8):
        phi = 2 * PI * k / 8 + 0.1
        z = np.linspace(1e-6, 0.97, 300) * np.exp(1j * phi)
        lf = f.log_f_over_z(z)
        lg = g.log_f_over_z(z)
        # arg_lam(f/z) with the branch from the center, minus spiral drift
        u = lf.imag - a.tan_lambda * lf.real
        assert np.max(np.abs(u - lg.imag)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(lams_nonzero, st.floats(min_value=0.1, max_value=0.97))
def test_modulus_transfer_bound(lam, r):
    g = starlike_example()
    a = SpiralAngle(lam)
    f = spirallike_of(g, a)
    z = r * np.exp(1j * np.linspace(0, 2 * PI, 64, endpoint=False))
    lf = f.log_f_over_z(z)
    lg = g.log_f_over_z(z)
    lhs = np.abs(lf.real - a.cos_lambda**2 * lg.real)
    # |arg(g/z)| <= pi for starlike g (Goodman), so the cross term is capped
    bound = PI * abs(math.sin(lam) * math.cos(lam))
    assert np.max(lhs) <= bound + 1e-9
