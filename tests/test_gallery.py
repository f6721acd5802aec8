"""Example functions and constants: g0, koebe powers, Q/C0, slow-log family.

Closed-form oracles, worked by hand:
  * g0 = (1/(1-z)) log(1/(1-z)): g0(1/2) = 2 log 2, Taylor coefficients
    are the harmonic numbers H_n, boundary jump pi at t = 0
  * the correction term G(z) = -z/((1-z) log(1-z)) has G(0) = 1 and
    approaches 1/(2 log 2) at z = -1
  * Q(theta) -> 2 at 0+ and -> 0 at pi/2-, giving C0 = 2 e^2
  * g = z(1-z)^(-alpha)(1+c log(1/(1-z)))^beta: log(g(1/2)/z) =
    alpha log 2 + beta log(1 + c log 2), margin >= 1 - alpha/2 -
    beta/(2/c - 2 log 2)
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spirallike import (
    DEFAULT_C0,
    STARLIKE,
    BetaTrace,
    BoundaryMeasure,
    DomainError,
    G0Function,
    HansenFunction,
    HansenParams,
    MeasureFunction,
    MeasureValidationError,
    ParameterError,
    SpiralAngle,
    SpiralSector,
    arg_lambda,
    beta_trace,
    counterexample_for,
    estimate_max_jump,
    g0_correction,
    hansen_build,
    hansen_ratio,
    koebe_power,
    lemma_c_margins,
    li2,
    max_modulus,
    q_function,
    refine_jump,
    sector_contains,
    spiral_point,
    spirallike_of,
    spirallikeness_margin,
)
from spirallike.gallery import DEFAULT_C
from spirallike.threshold import _SUP_Q, _q_table
from spirallike.polylog import _li1

PI = math.pi
TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)


# -- g0 ------------------------------------------------------------------------


def test_g0_closed_form_values():
    g0 = G0Function()
    assert g0.evaluate(0.0) == 0.0
    assert abs(g0.evaluate(0.5) - 2.0 * LN2) < 1e-14
    z = np.array([0.3 + 0.4j, -0.8j, -0.95])
    want = np.log(1.0 / (1.0 - z)) / (1.0 - z)
    assert np.max(np.abs(g0.evaluate(z) - want)) < 1e-13


def test_g0_taylor_coefficients_are_harmonic_numbers():
    a = G0Function().taylor_coefficients(50)
    H = np.cumsum(1.0 / np.arange(1, 51))
    assert np.max(np.abs(a - H)) < 1e-8


def test_g0_log_derivative_consistent_with_evaluate():
    g0 = G0Function()
    h = 1e-6
    for z in (0.4 + 0.2j, -0.7 + 0.1j, 0.05j):
        num = (np.log(g0.evaluate(z * (1 + h))) - np.log(g0.evaluate(z * (1 - h)))) / (2 * h)
        assert abs(g0.log_derivative(z) - num) < 1e-7


def test_g0_correction_limits():
    assert abs(g0_correction(0.0) - 1.0) < 1e-12
    # G(-1) = 1/(2 log 2) is the infimum of Re G on the disk
    assert abs(g0_correction(-0.999999) - 1 / (2 * LN2)) < 1e-5


def test_g0_correction_series_seam():
    # _w_over_z is one formula for every z; near zero, on both sides of
    # |z| = 1e-4, it matches the direct -z/((1-z)log(1-z)) through log1p
    for z in (0.99e-4 * np.exp(0.3j), 1.01e-4 * np.exp(0.3j), 1e-5, -1e-5 + 1e-6j):
        direct = z / ((1.0 - z) * -np.log1p(-z))
        assert abs(g0_correction(z) - direct) < 1e-10


def test_g0_closed_forms_against_mpmath_near_zero():
    # with w = log(1/(1-z)): log(g0/z) = w + log(w/z), G = z/((1-z)w) and
    # zg0'/g0 = z/(1-z) + G; small |z| is where a complex log1p loses digits
    z = np.concatenate([r * np.exp(2j * PI * np.arange(16) / 16) for r in (1.01e-4, 1e-3, 1e-2)])
    z = np.append(z, 0.0)
    want = {"log_f_over_z": [0j] * z.size, "log_derivative": [1 + 0j] * z.size}
    want["g0_correction"] = list(want["log_derivative"])
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for k, p in enumerate(z[:-1]):
            zm = mpmath.mpc(p)
            w = -mpmath.log(1 - zm)
            G = zm / ((1 - zm) * w)
            want["log_f_over_z"][k] = complex(w + mpmath.log(w / zm))
            want["log_derivative"][k] = complex(zm / (1 - zm) + G)
            want["g0_correction"][k] = complex(G)
    g0 = G0Function()
    got = {
        "log_f_over_z": g0.log_f_over_z(z),
        "log_derivative": g0.log_derivative(z),
        "g0_correction": g0_correction(z),
    }
    for name, values in got.items():
        err = float(np.max(np.abs(values - np.array(want[name]))))
        assert err < 1e-14, f"{name}: {err:.3g}"


def test_g0_log_derivative_decomposition():
    log_derivative = G0Function().log_derivative
    z = 0.3 + 0.2j
    assert abs(log_derivative(z) - (z / (1 - z) + g0_correction(z))) < 1e-14
    assert abs(log_derivative(0.0) - 1.0) < 1e-12


def test_g0_flags():
    g0 = G0Function()
    assert g0.angle.is_starlike
    assert g0.known_max_jump == pytest.approx(PI)
    assert g0.measure is None


@pytest.mark.parametrize("bad", [np.nan, complex(0.2, np.nan), np.inf, 1.0, -1j])
def test_closed_forms_reject_points_off_the_open_disk(bad):
    # non-finite points are rejected like |z| >= 1, never returned as NaN
    handles = [G0Function(), koebe_power(1.5), counterexample_for(SpiralAngle(PI / 4), PI)]
    for f in handles:
        for name in ("evaluate", "log_f_over_z", "log_derivative", "arg_lambda_f_over_z"):
            with pytest.raises(DomainError):
                getattr(f, name)(bad)
            with pytest.raises(DomainError):
                getattr(f, name)(np.array([0.5, bad]))
    for fn in (g0_correction, G0Function().log_derivative):
        with pytest.raises(DomainError):
            fn(bad)


# -- argument contracts ------------------------------------------------------------

# refine_jump's bracket around g0's jump at t = 0
SPACING = TWO_PI / 256


@pytest.mark.parametrize(
    "call",
    [
        lambda: lemma_c_margins(np.nan),
        lambda: lemma_c_margins(np.inf),
        lambda: lemma_c_margins(2.0),
        lambda: q_function(np.nan),
        lambda: _q_table("x"),
        lambda: beta_trace(koebe_power(), t_grid=np.nan),
        lambda: hansen_ratio(koebe_power(), q0=np.nan),
        lambda: estimate_max_jump(BetaTrace(np.array([]), np.array([]), 0.99, ())),
        lambda: arg_lambda(np.nan, STARLIKE),
        lambda: arg_lambda(np.array([0.5, complex(0.1, np.inf)]), SpiralAngle(0.3)),
        lambda: spiral_point(np.nan, STARLIKE, 0.0),
        lambda: spiral_point(0.5, SpiralAngle(0.3), np.array([-1.0, np.nan])),
        lambda: koebe_power().taylor_coefficients(np.nan),
        lambda: koebe_power().taylor_coefficients(np.inf),
        lambda: koebe_power().taylor_coefficients("x"),
        lambda: koebe_power().taylor_coefficients(2.5),
        lambda: refine_jump(G0Function(), (SPACING, -SPACING)),
        lambda: refine_jump(G0Function(), (-SPACING, -SPACING)),
        lambda: refine_jump(G0Function(), (-np.inf, SPACING)),
        lambda: refine_jump(G0Function(), (np.nan, SPACING)),
        lambda: refine_jump(G0Function(), 0.1),
        lambda: refine_jump(G0Function(), None),
        lambda: refine_jump(G0Function(), (0.1,)),
        lambda: refine_jump(G0Function(), (0.1, 0.2, 0.3)),
        lambda: li2("x"),
        lambda: MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE).evaluate("x"),
        lambda: MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE).log_derivative(["x"]),
        lambda: arg_lambda("x", STARLIKE),
        lambda: sector_contains(SpiralSector(0.0, 1.0, STARLIKE), "x"),
        lambda: max_modulus(koebe_power(), "x"),
        lambda: spirallikeness_margin(koebe_power(), "x"),
        lambda: beta_trace(koebe_power(), r_schedule=[0.5, "x"]),
        lambda: hansen_ratio(koebe_power(), "x"),
        lambda: lemma_c_margins("x"),
    ],
    ids=[
        "lemma_c-nan",
        "lemma_c-inf",
        "lemma_c-C2",
        "q-nan",
        "c0-grid-str",
        "beta_trace-t_grid-nan",
        "hansen_ratio-q0-nan",
        "max_jump-empty-trace",
        "arg_lambda-nan",
        "arg_lambda-inf",
        "spiral_point-theta0-nan",
        "spiral_point-t-nan",
        "taylor-n_max-nan",
        "taylor-n_max-inf",
        "taylor-n_max-str",
        "taylor-n_max-fraction",
        "refine_jump-reversed",
        "refine_jump-empty",
        "refine_jump-inf",
        "refine_jump-nan",
        "refine_jump-float",
        "refine_jump-none",
        "refine_jump-one-entry",
        "refine_jump-three-entries",
        "li2-str",
        "evaluate-str",
        "log_derivative-str-list",
        "arg_lambda-str",
        "sector_contains-str",
        "max_modulus-r-str",
        "margin-r_max-str",
        "beta_trace-r_schedule-str",
        "hansen_ratio-q0-str",
        "lemma_c-str",
    ],
)
def test_bad_arguments_raise_domain_error(call):
    # never a raw numpy or Python exception, a warning or a NaN result
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: koebe_power("x"), ParameterError),
        (lambda: koebe_power(None), ParameterError),
        (lambda: HansenFunction(HansenParams("x", 1.0, 0.2)), ParameterError),
        (lambda: counterexample_for(SpiralAngle(0.5), "x"), ParameterError),
        (lambda: BoundaryMeasure(atoms=(("a", 1.0),)), MeasureValidationError),
        (lambda: BoundaryMeasure(atoms=5), MeasureValidationError),
        (lambda: BoundaryMeasure.single_atom("x"), ParameterError),
        (lambda: BoundaryMeasure.single_atom(None), ParameterError),
        (lambda: BoundaryMeasure.single_atom([1, 2]), ParameterError),
    ],
    ids=["koebe_power-str", "koebe_power-none", "hansen-alpha-str", "counterexample-A-str",
         "measure-atom-str", "measure-atoms-int", "single_atom-str", "single_atom-none",
         "single_atom-list"],
)
def test_non_numeric_parameters_raise_package_error(call, error):
    # a constructor refuses a parameter that is no number with its own
    # package error, not Python's ValueError or TypeError
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "pairs",
    [[(np.nan, 1.0)], [(0.5, np.inf)], [(0.5, 1.0), (np.inf, 2.0)], [("a", 1.0)],
     None, [(0, 1, 2)], [1]],
    ids=["position-nan", "weight-inf", "position-inf", "position-str",
         "none", "triple", "not-a-pair"],
)
def test_bad_atoms_raise_parameter_error(pairs):
    # rejected when the measure is built, not when it is first used; entries
    # that are not (position, weight) pairs raise no TypeError or ValueError
    with pytest.raises(ParameterError):
        BoundaryMeasure.from_atoms(pairs)


# -- koebe powers -----------------------------------------------------------------


def test_koebe_power_default_is_koebe():
    f = koebe_power()
    assert f.measure.max_jump() == TWO_PI
    assert abs(f.evaluate(0.5) - 2.0) < 1e-14
    assert f.measure.atoms == ((0.0, TWO_PI),)
    assert f.measure.density_knots == ()


def test_koebe_power_intermediate():
    f = koebe_power(1.0)
    z = 0.3 - 0.4j
    assert abs(f.evaluate(z) - z / (1 - z)) < 1e-14
    # measure: atom pi at 0 plus constant density 1/2, total mass 2*pi
    assert f.measure.atoms == ((0.0, PI),)
    assert f.measure.density_at(2.0) == pytest.approx(0.5)
    assert f.measure.total_mass() == pytest.approx(TWO_PI)
    assert spirallikeness_margin(f) > 0.4


@pytest.mark.parametrize("e", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_koebe_power_closed_form(e):
    # the MeasureFunction of an atom pi*e plus a constant density is
    # log(f/z) = -e log(1-z), zf'/f = 1 + e z/(1-z)
    f = koebe_power(e)
    rng = np.random.default_rng(3)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * PI * rng.uniform(0, 1, 200))
    assert np.max(np.abs(f.log_f_over_z(z) + e * np.log(1 - z))) < 1e-14
    assert np.max(np.abs(f.log_derivative(z) - (1 + e * z / (1 - z)))) < 1e-13


def test_koebe_power_zero_is_identity():
    f = koebe_power(0.0)
    assert f.measure.atoms == ()
    assert abs(f.evaluate(0.7j) - 0.7j) < 1e-15
    assert f.known_max_jump == 0.0


def test_koebe_power_exponent_validation():
    with pytest.raises(ParameterError):
        koebe_power(-0.1)
    with pytest.raises(ParameterError):
        koebe_power(2.000001)


# -- Q(theta) and C0 -----------------------------------------------------------------


def test_q_function_limits():
    assert 2.0 - 1e-3 <= q_function(1e-6) <= 2.0
    assert q_function(PI / 2 - 1e-6) <= 1e-2


def test_q_function_near_zero_is_its_expansion():
    # below 1e-7 Q is 2 - theta^2/2, its expansion to the last bit.  The
    # closed form gave NaN with a warning below about 1.6e-162, where theta^2
    # underflows to 0/0, and values above sup Q = 2 from 2.9e-8 down
    theta = np.geomspace(5e-324, 1e-7, 2000, endpoint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = q_function(theta)
        one = q_function(1e-170)
    assert np.isfinite(values).all() and (values <= 2.0).all()
    assert values.tolist() == (2.0 - 0.5 * theta**2).tolist()
    assert one == 2.0


def test_q_function_matches_naive_formula_midrange():
    th = 0.7
    naive = (math.log(math.cos(th)) ** 2 + th * th) / (
        th * math.tan(th) + math.log(math.cos(th))
    )
    assert q_function(th) == pytest.approx(naive, abs=1e-12)


def test_q_function_domain():
    for bad in (0.0, PI / 2, -0.3, 2.0):
        with pytest.raises(DomainError):
            q_function(bad)
    out = q_function(np.array([0.3, 1.0]))
    assert out.shape == (2,)


def test_c0_constant_values():
    # sup Q is the limit 2 at 0+, not a search, and C0 = 2 exp(sup Q); Q
    # falls across every grid
    assert _SUP_Q == 2.0
    assert DEFAULT_C0 == 2.0 * math.exp(_SUP_Q)
    for grid in (1000, 100000):
        theta, values, monotone = _q_table(grid)
        assert monotone is True
        assert theta.shape == values.shape == (grid,)
        assert values.tolist() == q_function(theta).tolist()
    # the family's default c, min(0.3, 0.99/log C0)
    assert DEFAULT_C == 0.3
    # DEFAULT_C0 is 2 e^2 correctly rounded
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert DEFAULT_C0 == float(2 * mpmath.exp(2))


def mp_q(t):
    """Q(t) from its defining formula, at the working mpmath precision."""
    mpmath = pytest.importorskip("mpmath")
    t = mpmath.mpf(t)
    lc = mpmath.log(mpmath.cos(t))
    return (lc * lc + t * t) / (t * mpmath.tan(t) + lc)


def test_q_function_against_mpmath():
    # the worst measured error is 4.1 eps, at t = 1.5
    theta = np.concatenate([np.geomspace(1e-9, 1e-2, 40), np.linspace(1e-2, 1.5, 60)])
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t, q in zip(theta, q_function(theta)):
            want = mp_q(t)
            assert abs(q - want) <= 8 * np.finfo(float).eps * abs(want), t


def test_q_series_at_zero():
    # Q(t) = 2 - t^2/2 + O(t^4), so sup Q is the limit 2 at 0+; the t^4
    # coefficient is -1/36
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for t in np.geomspace(1e-6, 0.1, 60):
            tm = mpmath.mpf(t)
            assert abs(mp_q(t) - (2 - tm * tm / 2)) <= tm**4 / 30, t


def test_c0_constant_grid_stability():
    # each grid's largest Q, at its first angle, approaches sup Q from below
    sup1 = float(np.max(_q_table(100000)[1]))
    sup2 = float(np.max(_q_table(200000)[1]))
    assert abs(sup1 - sup2) < 1e-9
    assert _SUP_Q - 1e-9 < sup1 <= sup2 <= _SUP_Q


def test_c0_constant_validation():
    with pytest.raises(DomainError):
        _q_table(999)


def test_lemma_c_margins():
    m1, m2 = lemma_c_margins(DEFAULT_C0)
    assert m1 > 0.0 and m2 > 0.0
    # far above the threshold both inequalities hold with visible slack
    m1, m2 = lemma_c_margins(100.0)
    assert m1 > 0.0 and m2 > 0.0
    with pytest.raises(DomainError):
        lemma_c_margins(1.5)


# -- the slow-logarithmic-factor family ------------------------------------------------


def test_hansen_params_constants():
    p = HansenParams(1.0, 1.0, 0.3)
    assert p.violations() == []
    want = 1.0 - 0.5 - 1.0 / (2.0 / 0.3 - 2.0 * LN2)
    assert p.margin_lower_bound() == pytest.approx(want, abs=1e-12)


def test_hansen_params_violations_name_each_inequality():
    assert "0 < alpha < 2" in HansenParams(2.5, 1.0, 0.3).violations()[0]
    assert "beta_exp > 0" in HansenParams(1.0, -1.0, 0.3).violations()[0]
    assert "c > 0" in HansenParams(1.0, 1.0, -0.1).violations()[0]
    assert "1/log(C0)" in HansenParams(1.0, 1.0, 0.5).violations()[0]
    combined = HansenParams(1.9, 1.0, 0.3).violations()
    assert any("alpha + c*beta_exp" in v for v in combined)


def test_hansen_build_raises_with_named_inequality():
    with pytest.raises(ParameterError) as exc:
        hansen_build(HansenParams(1.0, 1.0, 0.9))
    assert str(exc.value) == "c = 0.9 violates c <= 1/log(C0) = 0.371313"
    f = hansen_build(HansenParams(1.0, 1.0, 0.3))
    assert f.angle.is_starlike
    assert f.known_max_jump == pytest.approx(PI)


def test_hansen_closed_form_value():
    f = hansen_build(HansenParams(1.0, 1.0, 0.3))
    want = LN2 + math.log(1.0 + 0.3 * LN2)
    assert abs(f.log_f_over_z(0.5) - want) < 1e-14


def test_hansen_log_derivative_identity():
    # zg'/g = 1 + alpha z/(1-z) + beta c z/((1-z)(1 + c log(1/(1-z))))
    f = hansen_build(HansenParams(1.3, 2.0, 0.2))
    h = 1e-6
    for z in (0.5, -0.4 + 0.3j, 0.8j, -0.9):
        num = (f.log_f_over_z(z * (1 + h)) - f.log_f_over_z(z * (1 - h))) / (2 * h)
        assert abs((f.log_derivative(z) - 1.0) - num) < 1e-8


def test_hansen_inadmissible_parameters_raise_at_construction():
    # c = 5 would put the base 1 + c log(1/(1-z)) = 1 - 5 log 1.99 < 0 at
    # z = -0.99, where the principal power jumps branches: every route to a
    # handle refuses the parameters before any evaluation
    bad = HansenParams(alpha=1.0, beta_exp=1.0, c=5.0)
    builds = [
        lambda: HansenFunction(bad),
        lambda: hansen_build(bad),
        lambda: counterexample_for(SpiralAngle(PI / 4), PI, c=5.0),
        lambda: spirallike_of(HansenFunction(bad), SpiralAngle(PI / 4)),
    ]
    for build in builds:
        with pytest.raises(ParameterError, match=r"1/log\(C0\)"):
            build()


C_CAP = 1.0 / math.log(DEFAULT_C0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=C_CAP, exclude_min=True),
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=16).map(lambda k: 1.0 - 10.0**-k),
    ),
    st.one_of(
        st.floats(min_value=-PI, max_value=PI),
        st.floats(min_value=1e-16, max_value=0.1).map(lambda d: PI - d),
    ),
)
@example(C_CAP, 1.0 - 1e-16, PI)
@example(C_CAP, 0.999999, PI - 1e-8)
def test_hansen_base_stays_in_right_half_plane(c, r, theta):
    # Re log(1/(1-z)) > -log 2 on the disk, so admissible c (at most
    # 1/log C0) keeps Re(1 + c*Li_1(z)) >= 1 - c log 2 > 0.74: HansenFunction
    # checks its parameters once and its kernels need no per-call check
    z = np.array([r * complex(math.cos(theta), math.sin(theta))])
    base = 1.0 + c * _li1(z)[0]
    assert base.real >= 1.0 - c * LN2 - 1e-15
    assert base.real > 0.74


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1.5),
    st.floats(min_value=0.25, max_value=2.0),
    st.floats(min_value=0.05, max_value=0.37),
)
def test_hansen_margin_respects_proven_bound(alpha, beta_exp, c):
    p = HansenParams(alpha, beta_exp, c)
    if p.violations():
        return
    f = hansen_build(p)
    margin = spirallikeness_margin(f)
    assert margin >= p.margin_lower_bound() - 1e-6


def test_counterexample_for_wiring():
    a = SpiralAngle(PI / 4)
    f = counterexample_for(a, PI)
    assert f.angle == a
    assert not f.angle.is_starlike
    assert f.known_max_jump == pytest.approx(PI)
    # log pairing: the spirallike partner scales the starlike log by mu
    g = hansen_build(HansenParams(1.0, 1.0, min(0.3, 0.99 / math.log(DEFAULT_C0))))
    z = 0.4 - 0.2j
    assert abs(f.log_f_over_z(z) - a.mu * g.log_f_over_z(z)) < 1e-13


def test_counterexample_for_validation():
    a = SpiralAngle(PI / 4)
    with pytest.raises(ParameterError):
        counterexample_for(a, 0.0)
    with pytest.raises(ParameterError):
        counterexample_for(a, TWO_PI)
    with pytest.raises(ParameterError) as exc:
        counterexample_for(a, 1.9 * PI)  # combined-growth constraint fails
    assert "alpha + c*beta_exp" in str(exc.value)
