"""Boundary traces, jump estimation, certificates, growth, sectors.

Oracles:
  * identity (uniform measure): trace equals t, margin exactly 1, E -> 0
  * koebe: M(r) = r/(1-r)^2, E -> 2, boundary jump 2*pi at t = 0, image
    sector is the full plane minus a ray (opening 2*pi, center 0)
  * two-atom + uniform-density measure: beta_at supplies the exact trace
    and jump values through the measure's canonical offset
  * max_modulus is cross-checked against a 2^16-point dense scan, and its
    batched form against the per-radius scalar route it replaced
  * lockstep golden-search lanes equal scalar searches bit for bit
  * sorted-window sector certification makes the decisions of a scan of
    the whole image grid
  * the continuous arg_lambda of f/z read off the analytic branch of
    log(f/z) equals the radial lift of continuous_arg_lambda
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import (
    STARLIKE,
    BetaTrace,
    BoundaryMeasure,
    DomainError,
    G0Function,
    InconsistencyError,
    JumpEstimate,
    MeasureFunction,
    SpiralAngle,
    SpiralSector,
    arg_lambda,
    beta_trace,
    counterexample_for,
    default_r_schedule,
    detect_maximal_sector,
    estimate_max_jump,
    golden_section_max,
    goodman_check,
    growth_exponent,
    hansen_ratio,
    max_modulus,
    principal_angle,
    refine_jump,
    sector_contains,
    spirallike_of,
    spirallikeness_margin,
    spiral_point,
)
from spirallike.analysis import _arg_lambda_f_over_z, _certify_sector, _sector_image

from _oracles import continuous_arg_lambda

PI = math.pi
TWO_PI = 2.0 * math.pi


def koebe(angle=STARLIKE):
    return MeasureFunction(BoundaryMeasure.single_atom(), angle)


def identity():
    return MeasureFunction(BoundaryMeasure.uniform(), STARLIKE)


def two_atom():
    return MeasureFunction(BoundaryMeasure.from_atoms([(0.0, 1.0), (PI, 1.0)]), STARLIKE)


def crit4_measure():
    return BoundaryMeasure.from_atoms(
        [(0.0, 1.0), (PI / 2, 0.5)], uniform_density_mass=PI / 2
    )


# -- scalar helpers -----------------------------------------------------------


def test_default_r_schedule():
    assert default_r_schedule() == (0.99, 0.999, 0.9999, 0.99999, 0.999999)
    assert default_r_schedule(1, 3) == (0.9, 0.99, 0.999)


def test_golden_section_max_oracle():
    # x is only sqrt(eps)-accurate at a smooth peak (f is numerically flat
    # there); the value itself is full precision
    x, fx = golden_section_max(math.sin, 0.0, PI)
    assert x == pytest.approx(PI / 2, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-12)
    # quartic with interior max at 1/sqrt(2) on [0, 1]
    x, fx = golden_section_max(lambda u: u * u - u**4, 0.0, 1.0)
    assert x == pytest.approx(1 / math.sqrt(2), abs=1e-7)
    assert fx == pytest.approx(0.25, abs=1e-12)
    assert type(x) is float and type(fx) is float


def test_golden_section_lanes_match_scalar_searches():
    # brackets of widths 2.9 .. 5e-13 take different step counts; the last
    # is within tol from the start and never moves
    a = np.array([0.1, 0.5, 0.9, 1.2, 1.0, 2.0])
    b = np.array([3.0, 1.5, 2.9, 1.2 + 1e-3, 1.0 + 1e-11, 2.0 + 5e-13])
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.sin(x) * np.exp(-0.3 * x)

    xs, fxs = golden_section_max(f, a, b)
    lockstep_calls = len(calls)
    assert all(shape == a.shape for shape in calls)
    steps = []
    for i in range(len(a)):
        calls.clear()
        x, fx = golden_section_max(f, a[i], b[i])
        steps.append(len(calls))
        assert x == xs[i] and fx == fxs[i]
    assert len(set(steps)) == len(steps)
    assert lockstep_calls == max(steps)


# -- beta traces ----------------------------------------------------------------


def test_beta_trace_identity_is_t():
    tr = beta_trace(identity(), t_grid=64)
    assert np.max(np.abs(tr.beta_values - tr.t_samples)) < 1e-10
    assert tr.radius_used == 0.999999
    assert math.isnan(tr.refinement_record[0][1])
    assert all(d < 1e-10 for _, d in tr.refinement_record[1:])


def test_beta_trace_koebe_staircase():
    tr = beta_trace(koebe())
    # jump centered at t = 0: value 0 there, flat pi elsewhere
    assert tr.beta_values[0] == pytest.approx(0.0, abs=1e-6)
    interior = tr.beta_values[5:-5]
    assert np.max(np.abs(interior - PI)) < 2e-3


def test_beta_trace_schedule_validation():
    with pytest.raises(DomainError):
        beta_trace(identity(), r_schedule=(0.9, 0.5))
    with pytest.raises(DomainError):
        beta_trace(identity(), r_schedule=(0.9, 1.5))


def test_beta_trace_matches_beta_at_with_offset():
    m = crit4_measure()
    for lam in (0.0, 0.7):
        f = MeasureFunction(m, SpiralAngle(lam))
        tr = beta_trace(f)
        want = m.beta_at(tr.t_samples) - m.canonical_offset()
        err = np.abs(tr.beta_values - want)
        # compare away from the two atoms, where the finite-radius trace
        # smooths the step over a few samples
        t = tr.t_samples
        away = np.ones_like(t, dtype=bool)
        for pos in (0.0, PI / 2):
            away &= np.minimum(np.abs(t - pos), TWO_PI - np.abs(t - pos)) > 0.15
        assert np.max(err[away]) < 2e-3


def test_beta_trace_rejects_empty_schedule():
    with pytest.raises(DomainError):
        beta_trace(identity(), r_schedule=())


# -- the analytic branch against radial continuation ------------------------------


def branch_vs_lift(fn, thetas):
    """Largest gap between the branch helper and the lifted radial argument.

    Each ray runs from the center to r = 1 - 1e-6 on a path refining
    geometrically toward the circle (about 67 radii per decade); returns the gap
    and the largest |arg(f/z)| met, which shows whether the ray winds.
    """
    rho = 1.0 - np.geomspace(1.0, 1e-6, 401)
    gap = turn = 0.0
    for theta in thetas:
        z = rho * np.exp(1j * theta)
        path = np.concatenate(([1.0], fn.f_over_z(z[1:])))
        lift = continuous_arg_lambda(path, fn.angle)
        branch = _arg_lambda_f_over_z(fn, fn.angle, z)
        gap = max(gap, float(np.max(np.abs(lift - branch))))
        turn = max(turn, float(np.max(np.abs(fn.log_f_over_z(z).imag))))
    return gap, turn


RAYS = np.arange(12) * (TWO_PI / 12) + 0.01


@pytest.mark.parametrize(
    "make, winds",
    [
        (koebe, False),
        (G0Function, False),
        (lambda: counterexample_for(SpiralAngle(PI / 4), PI), True),
        (lambda: spirallike_of(koebe(), SpiralAngle(0.7)), True),
    ],
    ids=["koebe", "g0", "hansen_counterexample", "spirallike_koebe"],
)
def test_branch_equals_radial_lift_gallery(make, winds):
    gap, turn = branch_vs_lift(make(), np.concatenate((RAYS, [1e-4, -1e-4])))
    assert gap <= 1e-12
    # where arg(f/z) leaves (-pi, pi] the equality holds without reduction
    # mod 2*pi
    assert (turn > PI) == winds


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([0.0, 0.7]),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.2), st.floats(min_value=0.1, max_value=3.0)
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda kv: round(kv[0], 2),
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.2), st.floats(min_value=0.0, max_value=2.0)
        ),
        min_size=2,
        max_size=5,
        unique_by=lambda kv: round(kv[0], 2),
    ),
)
def test_branch_equals_radial_lift_measures(lam, atoms, knots):
    raw = BoundaryMeasure(atoms=sorted(atoms), density_knots=sorted(knots))
    scale = TWO_PI / raw.total_mass()
    m = BoundaryMeasure(
        atoms=tuple((t, scale * d) for t, d in raw.atoms),
        density_knots=tuple((t, scale * v) for t, v in raw.density_knots),
    )
    f = MeasureFunction(m, SpiralAngle(lam))
    near_atoms = [t + s for t, _ in m.atoms for s in (1e-4, -1e-4)]
    gap, _ = branch_vs_lift(f, np.concatenate((RAYS, near_atoms)))
    assert gap <= 1e-12


# -- jump estimation --------------------------------------------------------------


def test_estimate_max_jump_identity_is_zero():
    est = estimate_max_jump(beta_trace(identity()))
    assert est.jump == 0.0
    assert math.isnan(est.location) and math.isnan(est.center)


def test_estimate_max_jump_koebe_merges_grid_aligned_atom():
    # the atom sits exactly on a grid sample, so its mass splits between
    # the two adjacent gaps; the estimator must merge them back
    est = estimate_max_jump(beta_trace(koebe()))
    assert est.jump == pytest.approx(TWO_PI, abs=0.01)
    assert est.location == pytest.approx(0.0, abs=1e-12)
    assert est.center == pytest.approx(0.0, abs=1e-6)


def test_estimate_max_jump_crit4():
    m = crit4_measure()
    f = MeasureFunction(m, SpiralAngle(0.7))
    est = estimate_max_jump(beta_trace(f))
    assert est.jump == pytest.approx(PI, abs=0.02)
    assert est.location == pytest.approx(0.0, abs=1e-12)
    # center = beta_at(0) - canonical offset = pi/2 - 5*pi/8
    assert est.center == pytest.approx(-PI / 8, abs=1e-3)


def test_estimate_max_jump_synthetic_staircase():
    # hand-built trace: unit slope with a 1.0 jump across one gap
    t = np.arange(64) * (TWO_PI / 64)
    v = t * (TWO_PI - 1.0) / TWO_PI + np.where(t > 3.0, 1.0, 0.0)
    tr = BetaTrace(t, v, 0.999, ())
    est = estimate_max_jump(tr)
    assert est.jump == pytest.approx(1.0 + (TWO_PI - 1.0) / 64, rel=1e-6)
    lo = t[t <= 3.0][-1]
    assert est.location == pytest.approx(lo + PI / 64, abs=1e-12)


def test_estimate_max_jump_rejects_decreasing_trace():
    t = np.arange(32) * (TWO_PI / 32)
    v = t.copy()
    v[10] -= 0.5
    with pytest.raises(InconsistencyError) as exc:
        estimate_max_jump(BetaTrace(t, v, 0.999, ()))
    assert "decreases" in str(exc.value)


def test_refine_jump_measure_oracle():
    m = crit4_measure()
    f = MeasureFunction(m, SpiralAngle(0.7))
    spacing = TWO_PI / 256
    jump, t0 = refine_jump(f, (-spacing, spacing))
    assert jump == pytest.approx(PI, abs=0.005)
    assert t0 == pytest.approx(0.0, abs=1e-4)


def test_refine_jump_koebe_full_turn():
    spacing = TWO_PI / 256
    jump, t0 = refine_jump(koebe(), (-spacing, spacing))
    assert jump == pytest.approx(TWO_PI, abs=0.002)
    assert t0 == pytest.approx(0.0, abs=1e-6)


# -- certificates -------------------------------------------------------------------


def test_margin_identity_is_one():
    assert spirallikeness_margin(identity()) == pytest.approx(1.0, abs=1e-12)


def test_margin_koebe_positive_but_small():
    margin = spirallikeness_margin(koebe())
    assert 0.0 < margin < 0.01  # boundary point z = -r nearly kills Re


def test_margin_detects_wrong_inclination():
    # koebe is starlike, not 1.2-spirallike: assessed against the wrong
    # angle the margin goes strongly negative near the boundary
    assert spirallikeness_margin(koebe(), angle=SpiralAngle(1.2)) < -1.0


@settings(max_examples=15, deadline=None)
@given(
    st.floats(min_value=-1.2, max_value=1.2),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.2),
            st.floats(min_value=0.1, max_value=3.0),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda kv: round(kv[0], 3),
    ),
)
def test_margin_positive_for_measure_functions(lam, pairs):
    # every function built from a measure is genuinely lam-spirallike
    f = MeasureFunction(BoundaryMeasure.from_atoms(pairs), SpiralAngle(lam))
    assert spirallikeness_margin(f, grid=(16, 128), r_max=0.99) > 0.0


def test_goodman_identity_and_koebe():
    assert goodman_check(identity()) < -0.1
    excess = goodman_check(koebe())
    assert excess <= 1e-9
    assert excess > -1e-6  # koebe attains the bound along the unit circle


def test_goodman_rejects_uncertified():
    f = koebe(SpiralAngle(0.4))
    with pytest.raises(DomainError):
        goodman_check(f)


# -- max modulus and growth -----------------------------------------------------------


def test_max_modulus_koebe_closed_form():
    assert max_modulus(koebe(), 0.9) == pytest.approx(90.0, rel=1e-12)
    assert max_modulus(koebe(), 0.5) == pytest.approx(2.0, rel=1e-12)


def test_max_modulus_against_dense_scan():
    f = MeasureFunction(crit4_measure(), SpiralAngle(0.3))
    th = np.arange(1 << 16) * (TWO_PI / (1 << 16))
    scan = float(np.max(np.abs(f.evaluate(0.95 * np.exp(1j * th)))))
    got = max_modulus(f, 0.95)
    assert got >= scan - 1e-12
    assert got <= scan * (1.0 + 1e-5)


def test_max_modulus_validation():
    with pytest.raises(DomainError):
        max_modulus(koebe(), 1.0)
    with pytest.raises(DomainError, match="got 1.0"):
        max_modulus(koebe(), np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        max_modulus(koebe(), np.full((2, 2), 0.5))


def test_max_modulus_scalar_and_array_radii():
    f = koebe()
    got = max_modulus(f, 0.9)
    assert type(got) is float
    both = max_modulus(f, np.array([0.5, 0.9]))
    assert both.shape == (2,)
    assert both.tolist() == [max_modulus(f, 0.5), got]


def scalar_max_modulus(fn, r, coarse=1024):
    """Per-radius oracle: the scalar route max_modulus took before batching."""
    coarse = int(coarse)
    thetas = np.arange(coarse) * (TWO_PI / coarse)
    vals = np.abs(fn.evaluate(r * np.exp(1j * thetas)))
    local = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(local)
    peaks = peaks[np.argsort(vals[peaks])][::-1][:3]
    h = TWO_PI / coarse
    best = float(np.max(vals))

    def profile(theta):
        return float(np.abs(fn.evaluate(r * np.exp(1j * theta))))

    for k in peaks:
        _, fx = golden_section_max(profile, thetas[k] - h, thetas[k] + h)
        best = max(best, fx)
    return best


@pytest.mark.parametrize(
    "make",
    [lambda: koebe(SpiralAngle(0.7)), lambda: counterexample_for(SpiralAngle(PI / 4), PI)],
    ids=["koebe_l07", "hansen_counterexample"],
)
def test_growth_and_ratio_match_per_radius_oracle(make):
    fn = make()
    schedule = default_r_schedule(2, 8)
    want = [scalar_max_modulus(fn, r) for r in schedule]
    rows = growth_exponent(fn, r_schedule=schedule).rows
    assert rows == tuple(
        (r, M, float(np.log(M) / np.log(1.0 / (1.0 - r)))) for r, M in zip(schedule, want)
    )
    ratios = hansen_ratio(fn, 0.5, r_schedule=schedule)
    assert ratios == [(r, M * (1.0 - r) ** 0.5) for r, M in zip(schedule, want)]


def test_growth_exponent_koebe():
    rep = growth_exponent(koebe())
    r, M, E = rep.rows[-1]
    assert r == 1.0 - 1e-8
    assert M == pytest.approx(r / (1 - r) ** 2, rel=1e-9)
    assert E == pytest.approx(2.0, abs=1e-6)
    assert rep.a_estimate == pytest.approx(TWO_PI)
    assert rep.predicted_q0 == pytest.approx(2.0)


def test_growth_exponent_identity_is_flat():
    rep = growth_exponent(identity())
    assert abs(rep.rows[-1][2]) < 1e-6
    assert rep.a_estimate == 0.0
    assert rep.predicted_q0 == 0.0


def test_growth_exponent_spirallike_scaling():
    # E -> 2*cos(lam)^2 for the single-atom measure at inclination lam; the
    # bounded spiral prefactor leaves an O(1/log(1/(1-r))) correction, about
    # 0.024 at r = 1-1e-8
    lam = PI / 4
    rep = growth_exponent(koebe(SpiralAngle(lam)))
    assert rep.rows[-1][2] == pytest.approx(2 * math.cos(lam) ** 2, abs=0.05)
    assert rep.predicted_q0 == pytest.approx(2 * math.cos(lam) ** 2, abs=1e-9)


def test_growth_exponent_validation():
    with pytest.raises(DomainError):
        growth_exponent(koebe(), r_schedule=(0.9, 0.99))


def test_hansen_ratio_koebe_is_r():
    rows = hansen_ratio(koebe(), 2.0)
    vals = [v for _, v in rows]
    assert vals == pytest.approx([r for r, _ in rows], rel=1e-9)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + 1e-9


def test_hansen_ratio_validation():
    with pytest.raises(DomainError):
        hansen_ratio(koebe(), -0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: beta_trace(f, t_grid=0),
        lambda f: spirallikeness_margin(f, grid=(0, 512)),
        lambda f: spirallikeness_margin(f, grid=(48, 0)),
        lambda f: goodman_check(f, grid=(0, 32)),
        lambda f: goodman_check(f, grid=(512, 0)),
        lambda f: max_modulus(f, 0.9, coarse=0),
        lambda f: max_modulus(f, 0.9, coarse=-4),
        lambda f: growth_exponent(f, coarse=0),
        lambda f: hansen_ratio(f, 2.0, coarse=0),
        lambda f: detect_maximal_sector(f, image_grid=(0, 2048)),
        lambda f: detect_maximal_sector(f, image_grid=(32, 0)),
        lambda f: detect_maximal_sector(f, cluster_points=0),
    ],
    ids=[
        "beta_trace-t_grid",
        "margin-n_r",
        "margin-n_theta",
        "goodman-n_theta",
        "goodman-n_steps",
        "max_modulus-coarse0",
        "max_modulus-coarse-4",
        "growth-coarse",
        "hansen-coarse",
        "sector-n_r",
        "sector-n_theta",
        "sector-cluster",
    ],
)
def test_grid_sizes_below_one_raise_domain_error(call):
    with pytest.raises(DomainError, match="at least 1"):
        call(koebe())


# -- sector detection ------------------------------------------------------------------


def test_sector_koebe_full_plane_cut():
    sec = detect_maximal_sector(koebe())
    assert abs(sec.center_angle) <= 1e-6
    assert sec.opening == pytest.approx(TWO_PI)
    assert sec.angle.lam == 0.0


def test_sector_two_atoms():
    m = BoundaryMeasure.from_atoms([(0.0, 1.0), (PI, 1.0)])
    sec = detect_maximal_sector(MeasureFunction(m, STARLIKE))
    assert sec.opening == pytest.approx(PI, abs=0.02)
    assert sec.center_angle == pytest.approx(0.0, abs=1e-6)


def test_sector_spirallike_koebe():
    sec = detect_maximal_sector(koebe(SpiralAngle(PI / 4)))
    assert sec.opening == pytest.approx(TWO_PI, abs=0.02)
    assert sec.angle.lam == pytest.approx(PI / 4)


def test_sector_atomless_is_none():
    assert detect_maximal_sector(identity()) is None


def test_sector_requires_measure():
    with pytest.raises(DomainError):
        detect_maximal_sector(G0Function())


def test_sector_inconsistent_function_is_caught():
    # identity disk image with a koebe measure attached: the sector samples
    # leave the image, so certification must fail loudly
    class Lying(MeasureFunction):
        def _log_f_over_z(self, z):
            return np.zeros(z.shape, dtype=complex)

        def _log_derivative(self, z):
            return np.ones(z.shape, dtype=complex)

    with pytest.raises(InconsistencyError):
        detect_maximal_sector(Lying(BoundaryMeasure.single_atom(), STARLIKE))


# -- sector certification against a full scan -------------------------------------

SECTOR_GRID = ((32, 2048), 384)


def sector_samples(sector, inner=0.9):
    """(phi, t, w) of the sector samples, in certification order."""
    phis = sector.center_angle + inner * (sector.opening / 2.0) * np.linspace(-1.0, 1.0, 9)
    return [
        (phi, t, spiral_point(phi, sector.angle, t))
        for phi in phis
        for t in (-3.0, -1.5, 0.0, 1.5, 3.0)
    ]


def certify_full_scan(sector, grid_arg, grid_logmod, arg_tol, inner=0.9):
    """Oracle: test every sample against the whole image grid."""
    for phi, t, w in sector_samples(sector, inner):
        if not sector_contains(sector, w):
            raise InconsistencyError(
                f"sample point for spiral argument {phi:.6f} left the sector"
            )
        dist = np.abs(principal_angle(grid_arg - arg_lambda(w, sector.angle)))
        hit = (dist <= arg_tol) & (grid_logmod >= np.log(np.abs(w)) - 1e-9)
        if not np.any(hit):
            raise InconsistencyError(
                f"sector sample at spiral argument {phi:.6f}, t = {t} "
                "is not covered by the image grid"
            )


def decision(certify, *args):
    """None when certification passes, else the raised message."""
    try:
        certify(*args)
    except InconsistencyError as exc:
        return str(exc)
    return None


def expected_sector(fn):
    t0, jump = fn.measure.largest_atom()
    center = principal_angle(fn.measure.beta_at(t0) - fn.measure.canonical_offset())
    return SpiralSector(center_angle=center, opening=min(jump, TWO_PI), angle=fn.angle)


def assert_sector_decisions_match(fn, tols):
    sector = expected_sector(fn)
    grid_arg, grid_logmod = _sector_image(fn, fn.angle, *SECTOR_GRID)
    outcomes = []
    for tol in tols:
        got = decision(_certify_sector, sector, grid_arg, grid_logmod, tol, 0.9)
        assert got == decision(certify_full_scan, sector, grid_arg, grid_logmod, tol)
        outcomes.append(got)
    if outcomes[0] is None:
        assert detect_maximal_sector(fn) == sector
    return sector, outcomes


@pytest.mark.parametrize(
    "make, crosses_cut",
    [
        (koebe, False),
        (lambda: koebe(SpiralAngle(PI / 4)), False),
        (two_atom, False),
        # rotated Koebe: the sample at spiral argument pi - 0.01 has a window
        # across the -pi/pi cut
        (lambda: MeasureFunction(BoundaryMeasure.single_atom(1.0106), STARLIKE), True),
    ],
    ids=["koebe", "koebe_pi4", "two_atom", "rotated_koebe"],
)
def test_sector_windows_match_full_scan(make, crosses_cut):
    sector, outcomes = assert_sector_decisions_match(make(), (0.025, 1e-5))
    assert outcomes[0] is None
    # at tolerance 1e-5 the grid no longer covers every sample
    assert outcomes[1] is not None
    args = np.array([arg_lambda(w, sector.angle) for _, _, w in sector_samples(sector)])
    assert (np.max(np.abs(principal_angle(args))) + 0.025 > PI) == crosses_cut


@settings(max_examples=6, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.2), st.floats(min_value=0.2, max_value=3.0)
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda kv: round(kv[0], 2),
    )
)
def test_sector_windows_match_full_scan_atomic_measures(pairs):
    f = MeasureFunction(BoundaryMeasure.from_atoms(pairs), STARLIKE)
    assert_sector_decisions_match(f, (0.025, 1e-3))


EDGE_VALUE = st.tuples(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    st.floats(min_value=-1e-12, max_value=1e-12),
    st.integers(min_value=-10**8, max_value=10**8),
)


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(st.floats(min_value=-PI, max_value=PI), st.sampled_from([PI - 0.01, -PI + 0.01])),
    st.sampled_from([0.0, 0.7, -1.2]),
    st.floats(min_value=0.1, max_value=TWO_PI),
    st.lists(
        st.tuples(EDGE_VALUE, st.floats(min_value=0.0, max_value=1.0)), min_size=45, max_size=45
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=44),
            EDGE_VALUE,
            st.floats(min_value=-1.0, max_value=1.0),
        ),
        max_size=40,
    ),
)
def test_sector_windows_match_full_scan_at_window_edges(center, lam, opening, own, extra):
    # every sample gets one grid value at or near an edge of its window
    # (shifted by up to 1e8 turns, where a reduction mod 2*pi loses 1e-7),
    # plus values of other samples with log-moduli on either side; a center
    # next to -pi/pi puts the middle samples' windows across the cut
    sector = SpiralSector(center_angle=center, opening=opening, angle=SpiralAngle(lam))
    samples = sector_samples(sector)
    tol = 0.025
    entries = [(j, edge, excess) for j, (edge, excess) in enumerate(own)] + extra
    grid_arg = np.array([
        arg_lambda(samples[j][2], sector.angle) + side * tol * (1.0 + tiny) + TWO_PI * k
        for j, (side, tiny, k), _ in entries
    ])
    grid_logmod = np.array([math.log(abs(samples[j][2])) + excess for j, _, excess in entries])
    assert decision(_certify_sector, sector, grid_arg, grid_logmod, tol, 0.9) == decision(
        certify_full_scan, sector, grid_arg, grid_logmod, tol
    )
