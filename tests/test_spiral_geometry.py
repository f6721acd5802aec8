"""Geometry layer: spiral arguments, sectors, the radial-continuation oracle and object type checks.

Oracle for the frozen arg_lambda value: a point w = R*exp(i*phi) lies on
the spiral through exp(i*theta0) iff phi = theta0 + t*sin(lam) and
log R = t*cos(lam) for some t, so theta0 = phi - tan(lam)*log R.  With
w = e*i and lam = pi/4 this gives theta0 = pi/2 - 1, worked by hand.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import (
    STARLIKE,
    BoundaryMeasure,
    DomainError,
    HansenFunction,
    MeasureFunction,
    SpiralAngle,
    SpiralSector,
    arg_lambda,
    beta_trace,
    detect_maximal_sector,
    estimate_max_jump,
    goodman_check,
    growth_exponent,
    hansen_ratio,
    max_modulus,
    principal_angle,
    refine_jump,
    sector_contains,
    spiral_point,
    spirallike_of,
    spirallikeness_margin,
    starlike_of,
)

from _oracles import continuous_arg_lambda

TWO_PI = 2.0 * math.pi

lams = st.floats(min_value=-1.4, max_value=1.4, allow_nan=False)
angles_st = lams.map(SpiralAngle)
nonzero_complex = st.builds(
    complex,
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
).filter(lambda w: 1e-6 < abs(w) < 1e6)


def wrap_dist(a, b):
    """Distance between angles modulo 2*pi."""
    return abs(principal_angle(a - b))


# -- principal_angle ---------------------------------------------------------


def test_principal_angle_passthrough_is_exact():
    xs = np.array([0.0, 1.0, -1.0, math.pi, -math.pi + 1e-9, 3.0])
    assert np.all(principal_angle(xs) == xs)


def test_principal_angle_wraps():
    assert principal_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert principal_angle(-math.pi) == pytest.approx(math.pi)
    assert principal_angle(7 * math.pi) == pytest.approx(math.pi)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_principal_angle_range_and_congruence(x):
    r = principal_angle(x)
    assert -math.pi < r <= math.pi
    assert abs((x - r) / TWO_PI - round((x - r) / TWO_PI)) < 1e-7


# -- SpiralAngle -------------------------------------------------------------


def test_spiral_angle_domain():
    for bad in (math.pi / 2, -math.pi / 2, 2.0, math.nan):
        with pytest.raises(DomainError):
            SpiralAngle(bad)


def test_spiral_angle_constants():
    a = SpiralAngle(0.7)
    c, s = math.cos(0.7), math.sin(0.7)
    assert a.mu == pytest.approx(complex(c * c, s * c), abs=1e-15)
    assert a.tan_lambda == pytest.approx(math.tan(0.7))
    assert a.cos_lambda == pytest.approx(c)
    assert not a.is_starlike
    assert STARLIKE.is_starlike and STARLIKE.mu == 1.0


# -- arg_lambda --------------------------------------------------------------


def test_arg_lambda_frozen_value():
    # theta0 = pi/2 - tan(pi/4) * log(e) = pi/2 - 1, derived in the module
    # docstring from the spiral's defining 2x2 linear system.
    got = arg_lambda(math.e * 1j, SpiralAngle(math.pi / 4))
    assert got == pytest.approx(math.pi / 2 - 1.0, abs=1e-14)


def test_arg_lambda_zero_rejected():
    with pytest.raises(DomainError):
        arg_lambda(0.0, STARLIKE)
    with pytest.raises(DomainError):
        arg_lambda(np.array([1.0, 0.0]), STARLIKE)


@given(nonzero_complex)
def test_arg_lambda_starlike_is_angle(w):
    assert arg_lambda(w, STARLIKE) == np.angle(w)


@given(nonzero_complex, nonzero_complex, angles_st)
def test_arg_lambda_product_law(w1, w2, a):
    # arg_lam is a homomorphism modulo 2*pi: both Arg and log|.| add.
    lhs = arg_lambda(w1 * w2, a)
    rhs = arg_lambda(w1, a) + arg_lambda(w2, a)
    assert wrap_dist(lhs, rhs) < 1e-8


@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    angles_st,
)
def test_arg_lambda_constant_on_spirals(theta0, t, a):
    w = spiral_point(theta0, a, t)
    assert wrap_dist(arg_lambda(w, a), theta0) < 1e-9


@given(nonzero_complex, st.floats(min_value=0.05, max_value=20), angles_st)
def test_arg_lambda_dilation_covariance(w, rho, a):
    lhs = arg_lambda(rho * w, a)
    rhs = arg_lambda(w, a) - a.tan_lambda * math.log(rho)
    assert wrap_dist(lhs, rhs) < 1e-8


def test_arg_lambda_vectorized():
    ws = np.array([1.0 + 0j, 1j, -1.0 + 0j])
    out = arg_lambda(ws, STARLIKE)
    assert out.shape == (3,)
    assert np.allclose(out, [0.0, math.pi / 2, math.pi])


# -- spiral sampling ---------------------------------------------------------


def test_spiral_point_t_zero_is_unit_circle():
    a = SpiralAngle(0.3)
    w = spiral_point(1.1, a, 0.0)
    assert abs(w) == pytest.approx(1.0)
    assert np.angle(w) == pytest.approx(1.1)


@pytest.mark.parametrize(
    "lam,t",
    [(0.0, 1000.0), (1.5, -1e6), (0.3, [0.0, -800.0])],
    ids=["overflow", "underflow", "array"],
)
def test_spiral_point_outside_the_float_range_raises(lam, t):
    # exp(1000) once came back as inf with an overflow warning, and a
    # modulus that underflows as -0-0j, which arg_lambda then refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="is not a normal float"):
            spiral_point(0.0, SpiralAngle(lam), np.array(t))


def test_spiral_point_at_the_ends_of_the_float_range():
    # the largest and smallest t on a ray that keep the modulus normal
    top, bottom = np.log(np.finfo(float).max), np.log(np.finfo(float).tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(spiral_point(0.0, STARLIKE, top))
        assert abs(spiral_point(0.0, STARLIKE, bottom)) >= np.finfo(float).tiny


# -- sectors -----------------------------------------------------------------


def test_sector_validation():
    with pytest.raises(DomainError):
        SpiralSector(0.0, 0.0, STARLIKE)
    with pytest.raises(DomainError):
        SpiralSector(0.0, TWO_PI + 0.1, STARLIKE)
    with pytest.raises(DomainError):
        SpiralSector(math.inf, 1.0, STARLIKE)


_KOEBE = MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE)


@pytest.mark.parametrize("angle", [0.5, None], ids=["float", "none"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: MeasureFunction(BoundaryMeasure.single_atom(), a),
        lambda a: spirallike_of(_KOEBE, a),
        lambda a: SpiralSector(0.0, 1.0, a),
        lambda a: arg_lambda(0.5, a),
        lambda a: spiral_point(0.0, a, 1.0),
    ],
    ids=["MeasureFunction", "spirallike_of", "SpiralSector", "arg_lambda", "spiral_point"],
)
def test_an_angle_that_is_no_spiral_angle_raises_domain_error(call, angle):
    # refused where it enters, not as a raw AttributeError on a later .mu
    # or .tan_lambda
    with pytest.raises(DomainError, match="must be a SpiralAngle"):
        call(angle)


@pytest.mark.parametrize(
    "call",
    [
        beta_trace,
        estimate_max_jump,
        lambda x: refine_jump(x, (0.0, 1.0)),
        spirallikeness_margin,
        goodman_check,
        lambda x: max_modulus(x, 0.5),
        growth_exponent,
        lambda x: hansen_ratio(x, 1.0),
        detect_maximal_sector,
        lambda x: spirallike_of(x, STARLIKE),
        starlike_of,
        lambda x: MeasureFunction(x, STARLIKE),
        HansenFunction,
        lambda x: sector_contains(x, 0.5),
    ],
    ids=["beta_trace", "estimate_max_jump", "refine_jump", "spirallikeness_margin",
         "goodman_check", "max_modulus", "growth_exponent", "hansen_ratio",
         "detect_maximal_sector", "spirallike_of", "starlike_of", "MeasureFunction",
         "HansenFunction", "sector_contains"],
)
def test_an_object_of_the_wrong_type_raises_domain_error(call):
    # a function, trace, measure, Hansen parameter set or sector argument is
    # checked where it enters, not left to a raw AttributeError further in
    for wrong in (3, None):
        with pytest.raises(DomainError, match=f"must be a [A-Za-z]+, got {wrong!r}$"):
            call(wrong)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpiralAngle(np.array([0.1, 0.2])),
        lambda: SpiralSector(0.0, np.array([1.0, 2.0]), STARLIKE),
        lambda: SpiralSector(np.array([0.0, 1.0]), 1.0, STARLIKE),
    ],
    ids=["angle", "opening", "center"],
)
def test_angles_of_angle_and_sector_are_scalars(build):
    with pytest.raises(DomainError, match="must be a scalar"):
        build()


def test_sector_contains_halfplane():
    # opening pi about center 0 at lam = 0 is the open right half plane
    sec = SpiralSector(0.0, math.pi, STARLIKE)
    assert sector_contains(sec, 1.0 + 1j)
    assert not sector_contains(sec, -1.0 + 1e-3j)
    assert not sector_contains(sec, 1j)  # boundary is excluded
    got = sector_contains(sec, np.array([0.5, -0.5 + 0j]))
    assert got.tolist() == [True, False]


@given(angles_st, st.floats(min_value=-3, max_value=3), st.floats(min_value=-2, max_value=-0.01))
def test_sector_contains_spiral_interior(a, theta0, t):
    sec = SpiralSector(theta0, 0.5, a)
    assert sector_contains(sec, spiral_point(theta0, a, t))
    assert not sector_contains(sec, spiral_point(theta0 + math.pi, a, t))


# -- continuous branch continuation ------------------------------------------


def test_continuous_arg_lambda_matches_pointwise_mod_2pi():
    a = SpiralAngle(0.6)
    s = np.linspace(0.0, 6.0, 400)
    path = np.exp((0.9j - 0.13) * s)  # smooth curve from 1, winds just under a turn
    lift = continuous_arg_lambda(path, a)
    point = arg_lambda(path, a)
    assert np.all(np.abs(principal_angle(lift - point)) < 1e-12)
    # the lift is continuous: no 2*pi gaps between neighbors
    assert np.max(np.abs(np.diff(lift))) < 0.1


def test_continuous_arg_lambda_counts_windings():
    s = np.linspace(0.0, 2.0, 1001)
    path = np.exp(2j * math.pi * s)  # two full turns
    lift = continuous_arg_lambda(path, STARLIKE)
    assert lift[-1] == pytest.approx(4 * math.pi, abs=1e-9)


def test_continuous_arg_lambda_requires_fine_grid():
    # a half-turn step has ambiguous winding; any larger step aliases below
    # pi under the principal angle, so the half turn is the detectable case
    path = np.array([1.0, 1j, -1j])
    with pytest.raises(DomainError, match=r"step 1->2"):
        continuous_arg_lambda(path, STARLIKE)


def test_continuous_arg_lambda_validation():
    with pytest.raises(DomainError):
        continuous_arg_lambda([0.5, 1.0], STARLIKE)  # must start at 1
    with pytest.raises(DomainError):
        continuous_arg_lambda([1.0, 0.0, 1.0], STARLIKE)
    with pytest.raises(DomainError):
        continuous_arg_lambda([], STARLIKE)


@settings(max_examples=25)
@given(angles_st, st.floats(min_value=-2.5, max_value=2.5), st.integers(min_value=50, max_value=200))
def test_continuous_arg_lambda_spiral_lift_is_linear(a, t_end, n):
    # along the spiral labeled 0, the lift of arg_lam stays 0 while the
    # plain argument drifts by t*sin(lam)
    t = np.linspace(0.0, t_end, n)
    path = spiral_point(0.0, a, t)
    lift = continuous_arg_lambda(path, a)
    assert np.max(np.abs(lift)) < 1e-9
