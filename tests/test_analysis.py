"""Boundary traces, jump estimation, certificates, growth, sectors.

Oracles:
  * identity (uniform measure): trace equals t, margin exactly 1, E -> 0
  * koebe: M(r) = r/(1-r)^2, E -> 2, boundary jump 2*pi at t = 0, image
    sector is the full plane minus a ray (opening 2*pi, center 0)
  * two-atom + uniform-density measure: beta_at supplies the exact trace
    and jump values through the measure's canonical offset
  * max_modulus is cross-checked against a 2^16-point dense scan, its
    batched form against per-radius searches (bit for bit), its section
    search against the golden-section oracle (within the bound that the
    shared 1e-12 bracket leaves), and log max_modulus on atomic and mixed
    measures against the growth asymptote (within K * (1 - r))
  * lockstep search lanes, of the package's section search and of the
    golden-section oracle it replaced, equal single-lane searches bit for
    bit; both searches find the same maxima within their shared tolerance
  * sector certification by inverting the boundary trace rejects no
    sample that a full scan of an image grid covers; where it covers a
    sample the scan rejects, a value of f on the circle covers the sample
    by the scan's own rule; the crossings it locates lie on their spirals
    and each label's reach is the highest value of f in its window
  * the continuous arg_lambda of f/z read off the analytic branch of
    log(f/z) equals the radial lift of continuous_arg_lambda
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import (
    STARLIKE,
    BetaTrace,
    BoundaryMeasure,
    DomainError,
    G0Function,
    HansenFunction,
    HansenParams,
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
    goodman_check,
    growth_exponent,
    hansen_ratio,
    koebe_power,
    max_modulus,
    principal_angle,
    refine_jump,
    sector_contains,
    spirallike_of,
    spirallikeness_margin,
    starlike_of,
)
from spirallike import analysis
from spirallike.analysis import (
    _CIRCLE_SCAN,
    _SAMPLE_T,
    _SECTION_POINTS,
    _SECTOR_ARG_TOL,
    _SECTOR_RADIUS,
    _certify_sector,
    _sector_crossings,
    _trace_gaps,
    _sector_reach,
    _sector_samples,
    _section_search,
)

from _families import close_pairs
from _oracles import (
    certify_full_scan,
    certify_sector_by_loop,
    continuous_arg_lambda,
    golden_section_max,
    growth_asymptote,
    max_jump_by_loop,
    sector_image_from_values,
    sector_samples,
    tables_of_mass_2pi,
)

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
    assert default_r_schedule(4, 4) == (0.9999,)
    assert default_r_schedule(13, 15) == (0.9999999999999, 0.99999999999999, 0.999999999999999)


def test_default_r_schedule_last_radius_is_usable():
    # on |z| = 1 - 10^-15 every scanned point stays inside the disk
    report = growth_exponent(koebe_power(), default_r_schedule(13, 15))
    assert [E for _, _, E in report.rows] == pytest.approx([2.0] * 3, abs=1e-12)


@pytest.mark.parametrize(
    "k_min,k_max",
    [(math.nan, 6), (2, math.inf), (5, 2), (2.5, 4), (2, 4.5), (0, 3), (-1, 2), (14, 17), (14, 18),
     (2, 16)],
)
def test_default_r_schedule_rejects_bad_exponents(k_min, k_max):
    # whole numbers >= 1 with k_min <= k_max <= 15 only: no raw ValueError, no
    # empty schedule, no silent truncation, and no radius whose circle holds
    # points rounded to |z| = 1 (1 - 10^-16 is one ulp below 1.0)
    with pytest.raises(DomainError):
        default_r_schedule(k_min, k_max)



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


def test_section_search_max_values():
    # the best sample lies within tol/2 of the peak, so its value is full
    # precision and its location sqrt(eps)-accurate (f is flat there)
    x, fx = _section_search(np.sin, 0.0, PI)
    assert x == pytest.approx(PI / 2, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-15)
    x, fx = _section_search(lambda u: u * u - u**4, 0.0, 1.0)
    assert x == pytest.approx(1 / math.sqrt(2), abs=1e-7)
    assert fx == pytest.approx(0.25, abs=1e-15)
    # scalar brackets give 0-d arrays; the public routines unwrap their results
    assert np.shape(x) == np.shape(fx) == ()
    # a peak at a bracket end
    x, fx = _section_search(lambda u: -u, 2.0, 5.0)
    assert 2.0 <= x <= 2.0 + 1e-12 and fx == -x


def test_section_search_lanes_match_scalar_searches():
    # widths 3 .. 1e-10 take 9, 8, 6, 4 and 2 steps; the last two are within
    # tol from the start and take one step
    a = np.array([0.1, 0.5, 0.9, 1.2, 1.0, 2.0, 2.5])
    b = np.array([3.1, 0.6, 0.901, 1.2 + 1e-6, 1.0 + 1e-10, 2.0 + 5e-13, 2.5])
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.sin(x) * np.exp(-0.3 * x)

    xs, fxs = _section_search(f, a, b)
    lockstep_calls = len(calls)
    assert all(shape == a.shape + (_SECTION_POINTS,) for shape in calls)
    steps = []
    for i in range(len(a)):
        calls.clear()
        x, fx = _section_search(f, a[i], b[i])
        steps.append(len(calls))
        assert x == xs[i] and fx == fxs[i]
        assert a[i] <= x <= b[i]
    assert len(set(steps)) == 6 and steps[-2:] == [1, 1]
    assert lockstep_calls == max(steps)


def capped(f, cap=200):
    """f that counts its calls and raises on call cap + 1, so a search that never ends fails."""
    calls = []

    def wrapped(x):
        calls.append(1)
        if len(calls) > cap:
            raise RuntimeError(f"search still running after {cap} calls")
        return f(x)

    return wrapped, calls


def test_section_search_steps_from_one_coarse_spacing():
    # a bracket of two spacings of _circle_max's 1024-angle scan shrinks by
    # 2/(m + 1) = 2/65 per step: 7 steps, one call each, reach tol 1e-12
    f, calls = capped(np.sin)
    _section_search(f, 1.0 - TWO_PI / 1024, 1.0 + TWO_PI / 1024)
    assert len(calls) == 7


@pytest.mark.parametrize("tol", [1e-20, 5e-324])
def test_section_search_ends_below_float_spacing(tol):
    # the bracket cannot shrink below float spacing, so the lanes stop when
    # it stops shrinking; the golden oracle never ends on these inputs
    f, calls = capped(np.sin)
    x, fx = _section_search(f, 0.0, 3.0, tol=tol)
    assert len(calls) < 60
    assert fx == pytest.approx(1.0, abs=1e-15) and x == pytest.approx(PI / 2, abs=1e-7)
    calls.clear()
    xs, fxs = _section_search(f, [0.0, 1e300, -1e-300], [3.0, 2e300, 1e-300], tol=tol)
    assert len(calls) < 200 and (fxs <= 1.0).all()


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
        path = np.concatenate(([1.0], np.exp(fn.log_f_over_z(z[1:]))))
        lift = continuous_arg_lambda(path, fn.angle)
        branch = fn.arg_lambda_f_over_z(z)
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
    m = BoundaryMeasure(*tables_of_mass_2pi(sorted(atoms), sorted(knots)))
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


@pytest.mark.parametrize(
    "spacings, merged", [(0.05, True), (0.95, True), (2.05, False), (4.0, False)]
)
def test_estimate_max_jump_of_two_close_atoms(spacings, merged):
    # a pair of atoms, spacings sample spacings apart: less than one spacing
    # apart it comes back as its sum, more than two apart as its larger atom,
    # each within 0.02 (the density of two gaps adds 0.0155); a pair with an
    # atom within 1e-4 of a sample is left out, as the docstring allows it
    # to lose part of that atom past the sample
    h = TWO_PI / 256
    rng = np.random.default_rng(38)
    checked = 0
    for _ in range(40):
        t = rng.uniform(0.0, TWO_PI - 5 * h)
        w = rng.uniform(1.0, 2.5, 2)
        m = BoundaryMeasure.from_atoms([(t, w[0]), (t + spacings * h, w[1])], 2.0)
        (t1, d1), (t2, d2) = m.atoms
        if min(abs((x / h + 0.5) % 1.0 - 0.5) * h for x in (t1, t2)) < 1e-4:
            continue
        est = estimate_max_jump(beta_trace(MeasureFunction(m, STARLIKE)))
        assert est.jump == pytest.approx(d1 + d2 if merged else max(d1, d2), abs=0.02)
        checked += 1
    assert checked >= 35


def test_estimate_max_jump_synthetic_staircase():
    # hand-built trace: unit slope with a 1.0 jump across one gap
    t = np.arange(64) * (TWO_PI / 64)
    v = t * (TWO_PI - 1.0) / TWO_PI + np.where(t > 3.0, 1.0, 0.0)
    tr = BetaTrace(t, v, 0.999, ())
    est = estimate_max_jump(tr)
    assert est.jump == pytest.approx(1.0 + (TWO_PI - 1.0) / 64, rel=1e-6)
    lo = t[t <= 3.0][-1]
    assert est.location == pytest.approx(lo + PI / 64, abs=1e-12)


def test_estimate_max_jump_keeps_the_first_of_equal_candidates():
    # candidates are read gap i alone, then gaps i and i + 1 merged, with i
    # rising, and the first largest wins.  Dyadic gaps on 256 angles make
    # the ties exact; the wrap gap (about 0.35) is a smaller candidate.
    t = np.arange(256) * (TWO_PI / 256)

    def estimate(jumps):
        gaps = np.full(255, 2.0**-6)
        gaps[list(jumps)] = list(jumps.values())
        v = np.concatenate(([0.0], np.cumsum(gaps)))
        return estimate_max_jump(BetaTrace(t, v, 0.999, ()))

    # a single gap of 1 before a merged pair 0.5 + 0.5, then the reverse
    assert estimate({10: 1.0, 100: 0.5, 101: 0.5}) == (1.0, 0.5 * (t[10] + t[11]), 0.65625)
    assert estimate({10: 0.5, 11: 0.5, 100: 1.0}) == (1.0, t[11], 0.65625)
    # three gaps over in a row: the pairs (50, 51) and (51, 52) tie
    assert estimate({50: 0.5, 51: 1.0, 52: 0.5}) == (1.5, t[51], 1.28125)


def test_estimate_max_jump_matches_the_loop():
    # seeded traces whose gaps come from five dyadic sizes, so that equal
    # candidates are common; 1 to 80 angles, a third of them rescaled
    rng = np.random.default_rng(7)
    for _ in range(500):
        t = np.unique(rng.uniform(0.0, TWO_PI, int(rng.integers(1, 80))))
        sizes = [2.0**-8, 2.0**-6, 2.0**-3, 2.0**-2, 0.5]
        gaps = rng.choice(sizes, t.size, p=[0.5, 0.2, 0.1, 0.1, 0.1])
        v = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        if v[-1] >= 6.0 or rng.uniform() < 0.3:
            v *= rng.uniform(0.5, 6.0) / max(v[-1], 1.0)
        all_gaps = _trace_gaps(t, v)
        threshold = max(10.0 * float(np.median(all_gaps)), 1e-6)
        want = max_jump_by_loop(t, v, all_gaps, threshold)
        got = estimate_max_jump(BetaTrace(t, v, 0.999, ()))
        assert np.array_equal(got, want, equal_nan=True), (got, want)


def test_estimate_max_jump_rejects_decreasing_trace():
    t = np.arange(32) * (TWO_PI / 32)
    v = t.copy()
    v[10] -= 0.5
    with pytest.raises(InconsistencyError) as exc:
        estimate_max_jump(BetaTrace(t, v, 0.999, ()))
    assert "decreases" in str(exc.value)


def _trace_with(t_size=32, value=None, shape=None, reverse=False):
    t = np.arange(t_size) * (TWO_PI / t_size)
    v = np.arange(32) * (TWO_PI / 32)
    if value is not None:
        v[7] = value
    if shape is not None:
        t, v = t.reshape(shape), v.reshape(shape)
    return BetaTrace(t[::-1].copy() if reverse else t, v, 0.999, ())


@pytest.mark.parametrize(
    "trace",
    [
        _trace_with(value=np.nan),
        _trace_with(value=np.inf),
        _trace_with(t_size=31),
        _trace_with(t_size=33),
        _trace_with(shape=(4, 8)),
        _trace_with(reverse=True),
    ],
    ids=["nan-value", "inf-value", "fewer-angles", "more-angles", "2-d", "decreasing-angles"],
)
def test_estimate_max_jump_rejects_malformed_trace(trace):
    # each of these once gave JumpEstimate(0, nan, nan)
    with pytest.raises(DomainError):
        estimate_max_jump(trace)


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


def test_trace_readers_keep_their_pinned_values():
    # every trace is read by _trace and inverted by _invert_trace: pinned
    # bit for bit, so a reader or inverter that moves a bit fails here
    spacing = TWO_PI / 256
    assert refine_jump(G0Function(), (-spacing, spacing)) == (
        3.1392844829470645, 6.834062577715189e-12
    )
    m = BoundaryMeasure.from_atoms([(0, PI), (PI / 2, PI / 2)], uniform_density_mass=PI / 2)
    f = MeasureFunction(m, SpiralAngle(0.7))
    assert estimate_max_jump(beta_trace(f)) == (
        3.1537830288862923, 0.0, -0.39269883169859915
    )
    assert detect_maximal_sector(f).center_angle == -0.39269908169872414


class NegatedG0(G0Function):
    # arg(g0/z) negated: the trace falls by about pi across the jump at 0
    def _arg_g_over_z(self, z):
        return -super()._arg_g_over_z(z)


class WavyKoebe(MeasureFunction):
    # koebe with arg(f/z) lowered by 0.3 sin^2(2000 arg z): the trace turns
    # back 4000 times a turn, 31 times inside the bracket
    def _arg_g_over_z(self, z):
        return super()._arg_g_over_z(z) - 0.3 * np.sin(2000 * np.angle(z)) ** 2


@pytest.mark.parametrize(
    "fn",
    [NegatedG0(), WavyKoebe(BoundaryMeasure.single_atom(), STARLIKE)],
    ids=["negated-g0", "wavy-koebe"],
)
def test_refine_jump_rejects_decreasing_trace(fn):
    # without the checks these gave jump -3.137 and 5.5e-10 (at t0 = -0.0173)
    spacing = TWO_PI / 256
    with pytest.raises(InconsistencyError, match="trace decreases"):
        refine_jump(fn, (-spacing, spacing))


@pytest.mark.parametrize(
    "fn, bracket",
    [
        (koebe_power(0.2), (-0.2, 2.0)),
        (koebe_power(0.2), (-0.5, 5.5)),
        (G0Function(), (-1.0, 7.0)),
        (koebe(), (1e12, 1e12 + 0.01)),
        (koebe(), (TWO_PI * 1e9 - 0.01, TWO_PI * 1e9 + 0.01)),
    ],
    ids=["koebe-power-short", "koebe-power-long", "g0-wide", "koebe-far", "koebe-far-atom"],
)
def test_refine_jump_rejects_a_crossing_off_the_jump(fn, bracket):
    # each of the first three brackets' one jump sits at t = 0, but the
    # trace crosses the middle of its end values at 0.551, 2.151 and 2.908,
    # where it is smooth: the rise across windows 1e-4, 1e-5, 1e-6 falls
    # 10x per decade there (1.8e-4, 1.8e-5, 1.8e-6 for koebe_power), where
    # at a jump it stays flat (0.628 for koebe_power's 0.2 pi at t = 0).
    # Without the check these returned jumps of 0.00102, 0.00102 and
    # 2.5e-4.  So far out on the t axis as the last two brackets the
    # windows are finer than the trace resolves, and it rises 0 across each
    # of them, even at Koebe's atom 2*pi*1e9; these returned jump 0.0
    with pytest.raises(InconsistencyError, match="no jump at t"):
        refine_jump(fn, bracket)


def test_refine_jump_koebe_power_jump():
    jump, t0 = refine_jump(koebe_power(0.2), (-0.2, 0.2))
    assert jump == pytest.approx(0.2 * PI, abs=2e-3)
    assert t0 == pytest.approx(0.0, abs=1e-9)


class HoledKoebe(MeasureFunction):
    # koebe with arg(f/z) NaN within 0.003 of t = 0.01, inside the bracket
    def _arg_g_over_z(self, z):
        arg = super()._arg_g_over_z(z)
        return np.where(np.abs(np.angle(z) - 0.01) < 0.003, np.nan, arg)


def test_refine_jump_rejects_non_finite_trace():
    # a NaN row used to steer the search into an AccuracyError
    spacing = TWO_PI / 256
    with pytest.raises(DomainError, match="not finite at z = "):
        refine_jump(HoledKoebe(BoundaryMeasure.single_atom(), STARLIKE), (-spacing, spacing))


class CappedKoebe(MeasureFunction):
    # koebe whose trace reads count themselves and raise past a cap, so a
    # search that never ends fails (cap 0: any read fails)
    def __init__(self, cap):
        super().__init__(BoundaryMeasure.single_atom(), STARLIKE)
        self.cap, self.reads = cap, 0

    def _arg_g_over_z(self, z):
        self.reads += 1
        if self.reads > self.cap:
            raise RuntimeError(f"trace still read after {self.cap} reads")
        return super()._arg_g_over_z(z)


@pytest.mark.parametrize(
    "a, b",
    [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (1.0, 0.0), ([0.0, 1.0], [1.0, 0.5])],
)
def test_refine_jump_refuses_a_bad_bracket_before_reading_the_trace(a, b):
    # _section_search trusts its brackets: refine_jump is the one place
    # that checks them, before the first trace read
    with pytest.raises(DomainError, match="bracket"):
        refine_jump(CappedKoebe(0), (a, b))


@pytest.mark.parametrize("k", [2**18, 2**20])
def test_refine_jump_ends_where_the_bracket_stops_shrinking(k):
    # Koebe's atom at 2*pi*k, near 1.6e6 and 6.6e6, where the float spacing
    # (2.3e-10, 9.3e-10) is above refine_jump's tol 2e-10: the search ends
    # because its bracket stops shrinking, in 7 steps; checking the width
    # alone it never ended
    fn, center, spacing = CappedKoebe(50), TWO_PI * k, TWO_PI / 256
    jump, t0 = refine_jump(fn, (center - spacing, center + spacing))
    assert jump == pytest.approx(TWO_PI, abs=0.002)
    assert abs(t0 - center) <= 2 * np.spacing(center)
    assert fn.reads <= 10

# -- certificates -------------------------------------------------------------------


def test_margin_identity_is_one():
    assert spirallikeness_margin(identity()) == pytest.approx(1.0, abs=1e-12)


def test_margin_of_a_constant_circle_refines_no_lane():
    # the identity's zf'/f is 1, so the scanned circle is constant: it has
    # no strict local maximum, and the scan is the only call
    class Counting(MeasureFunction):
        calls = 0

        def log_derivative(self, z):
            Counting.calls += 1
            return super().log_derivative(z)

    lam = 0.5
    margin = spirallikeness_margin(Counting(BoundaryMeasure.uniform(), SpiralAngle(lam)))
    assert margin == pytest.approx(math.cos(lam), abs=1e-15)
    assert Counting.calls == 1


def test_margin_koebe_positive_but_small():
    # the minimum (1 - r)/(1 + r) of Re (1 + z)/(1 - z) over |z| <= r sits on
    # the circle opposite the atom, at theta = pi + t0; for the rotations
    # t0 != 0 it falls between the scan angles, and the refinement finds it
    for t0 in (0.0, 0.1, 1.0106, 2.5):
        margin = spirallikeness_margin(MeasureFunction(BoundaryMeasure.single_atom(t0), STARLIKE))
        assert 0.0 < margin < 0.01  # boundary point z = -r nearly kills Re
        assert margin == pytest.approx(0.001 / 1.999, rel=1e-9), t0


def test_margin_detects_wrong_inclination():
    # koebe is starlike, not 1.2-spirallike: assessed against the wrong
    # angle the margin goes strongly negative near the boundary.  The
    # package cannot build such a handle, so this one divides its starlike
    # kernel by the fixed mu of 1.2 (starlike_of resets the handle's angle
    # to 0): its zf'/f at 1.2 is Koebe's.
    mu = SpiralAngle(1.2).mu

    class Mislabelled(MeasureFunction):
        def _log_derivative_excess(self, z):
            return super()._log_derivative_excess(z) / mu

    f = Mislabelled(BoundaryMeasure.single_atom(), SpiralAngle(1.2))
    assert spirallikeness_margin(f) < -1.0


def margin_handles():
    """Koebe, g0, the (1, 1, 0.3) Hansen function and a mixed measure, all starlike."""
    mixed = BoundaryMeasure.from_atoms(
        [(0.4, 1.0), (2.5, 2.0), (4.1, 0.7)], uniform_density_mass=2.0
    )
    return [koebe(), G0Function(), HansenFunction(HansenParams(1, 1, 0.3)),
            MeasureFunction(mixed, STARLIKE)]


@pytest.mark.parametrize("lam", [-1.2, 0.7, 1.49])
def test_margin_is_cos_lambda_times_the_partners(lam):
    # Re(exp(-i*lam) zf'/f) = cos(lam) Re(zg'/g) for the starlike partner g,
    # and the margin reads it so: the same bits as cos(lam) times g's margin
    cos_lam = SpiralAngle(lam).cos_lambda
    for g in margin_handles():
        f = spirallike_of(g, SpiralAngle(lam))
        assert spirallikeness_margin(f) == cos_lam * spirallikeness_margin(starlike_of(f))


@pytest.mark.parametrize("lam", [-1.5, -0.7, 0.4, 1.0, 1.4])
def test_margin_koebe_closed_form_at_every_inclination(lam):
    # Koebe's margin over |z| <= r is cos(lam) (1 - r)/(1 + r) at every
    # inclination, and each inclination keeps the accuracy of lam = 0
    # (7.2e-14); the rotated zf'/f was off by 1.1e-13 to 5.9e-13
    r = 0.999
    margin = spirallikeness_margin(koebe(SpiralAngle(lam)), r)
    assert margin == pytest.approx(math.cos(lam) * (1 - r) / (1 + r), rel=2e-13, abs=0.0)


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
    assert spirallikeness_margin(f, r_max=0.99) > 0.0


def test_goodman_identity_and_koebe():
    assert goodman_check(identity()) < -0.1
    excess = goodman_check(koebe())
    assert excess <= 1e-9
    assert excess > -1e-6  # koebe attains the bound along the unit circle


def goodman_handles():
    """Criterion 11's handles, with its seeded random measures."""
    rng = np.random.default_rng(3)
    cases = [identity(), koebe(), G0Function()]
    for _ in range(2):
        k = int(rng.integers(2, 6))
        pairs = [(float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.2, 2.0))) for _ in range(k)]
        cases.append(MeasureFunction(BoundaryMeasure.from_atoms(pairs), STARLIKE))
    return cases


def test_goodman_reads_the_starlike_partner_at_every_inclination():
    # arg_lambda(f/z) = arg(g/z): a handle turned to any inclination gives
    # its starlike partner's value bit for bit, and so does a spirallike
    # handle (the lam = pi/4 counterexample, a three-atom measure at -1.2)
    atoms = MeasureFunction(
        BoundaryMeasure.from_atoms([(0.4, 1.0), (2.5, 2.0), (4.1, 0.7)]), SpiralAngle(-1.2)
    )
    hansen = counterexample_for(SpiralAngle(PI / 4), PI)
    partners = goodman_handles() + [starlike_of(f) for f in (atoms, hansen)]
    assert goodman_check(atoms) == goodman_check(partners[-2])
    assert goodman_check(hansen) == goodman_check(partners[-1])
    for g in partners:
        want = goodman_check(g)
        assert want <= 1e-9
        for lam in (-1.4, -0.7, 0.7, 1.49):
            assert goodman_check(spirallike_of(g, SpiralAngle(lam))) == want


def goodman_oracle(g, n_theta=512, n_steps=87):
    # the angles-major grid goodman_check built on every call before its
    # ladder was kept: one row per angle
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    gap = 1.0 - 0.999
    rho = 1.0 - gap ** (np.arange(1, n_steps + 1) / n_steps)
    U = g.arg_lambda_f_over_z(rho[None, :] * np.exp(1j * thetas)[:, None])
    return float(np.max(np.abs(U) - 2.0 * np.arcsin(rho)[None, :]))


def test_goodman_matches_angles_major_oracle_bit_for_bit():
    cases = goodman_handles()
    for g in cases:
        assert goodman_check(g) == goodman_oracle(g)
    # another grid replaces the kept ladder, and the default grid comes back;
    # n_steps below 87 is the ladder size too
    assert goodman_check(cases[1], grid=(100, 120)) == goodman_oracle(cases[1], 100, 120)
    assert goodman_check(cases[1], grid=(64, 10)) == goodman_oracle(cases[1], 64, 10)
    assert goodman_check(cases[1]) == goodman_oracle(cases[1])


def test_scan_tables_are_read_only_and_built_once():
    circle = analysis._unit_circle(_CIRCLE_SCAN)
    assert analysis._unit_circle(_CIRCLE_SCAN) is circle
    np.testing.assert_array_equal(
        circle, np.exp(1j * (np.arange(_CIRCLE_SCAN) * (TWO_PI / _CIRCLE_SCAN)))
    )
    grid, bound = ladder = analysis._goodman_ladder(512, 87)
    assert analysis._goodman_ladder(512, 87) is ladder
    assert grid.shape == (87, 512) and bound.shape == (87, 1)
    for table in (circle, grid, bound):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    analysis._goodman_ladder(16, 24)
    assert analysis._goodman_ladder.cache_info().currsize == 1


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


def per_radius_log_max_modulus(fn, r, search):
    """Oracle: log max_modulus at the single radius r, its scanned peaks refined by search.

    log|f| is read as log|z| + Re log(f/z), the package's route.
    """
    thetas = np.arange(_CIRCLE_SCAN) * (TWO_PI / _CIRCLE_SCAN)

    def profile(theta):
        z = r * np.exp(1j * theta)
        return np.log(np.abs(z)) + fn.log_f_over_z(z).real

    vals = profile(thetas)
    local = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(local)
    h = TWO_PI / _CIRCLE_SCAN
    _, refined = search(profile, thetas[peaks] - h, thetas[peaks] + h)
    return max(float(np.max(vals)), *refined.tolist())


@pytest.mark.parametrize(
    "make",
    [lambda: koebe(SpiralAngle(0.7)), lambda: counterexample_for(SpiralAngle(PI / 4), PI)],
    ids=["koebe_l07", "hansen_counterexample"],
)
def test_growth_and_ratio_match_per_radius_oracle(make):
    # batching radii into one lockstep search must not change any lane
    fn = make()
    schedule = default_r_schedule(2, 8)
    log_want = [per_radius_log_max_modulus(fn, r, _section_search) for r in schedule]
    want = [float(np.exp(v)) for v in log_want]
    rows = growth_exponent(fn, r_schedule=schedule).rows
    assert rows == tuple(
        (r, M, float(v / np.log(1.0 / (1.0 - r)))) for r, M, v in zip(schedule, want, log_want)
    )
    assert max_modulus(fn, np.array(schedule)).tolist() == want
    ratios = hansen_ratio(fn, 0.5, r_schedule=schedule)
    assert ratios == [(r, M * (1.0 - r) ** 0.5) for r, M in zip(schedule, want)]


@pytest.mark.parametrize("lam", [0.0, 0.7, -0.5, 1.2])
def test_max_modulus_matches_golden_search_within_the_bracket_bound(lam):
    # Both searches end on a bracket of width <= tol = 1e-12 around the peak
    # and report a value at most tol/2 from it: the golden oracle at the
    # final midpoint, the section search at its best sample, the middle
    # node of a final bracket two node spacings wide.  At a smooth peak,
    # where log|f| = log M - kappa (theta - theta*)^2 / 2 + ..., each value
    # is thus at most M kappa tol^2 / 8 below M before rounding.  Rounding
    # z = r exp(i theta) by about eps moves |f| by about |zf'/f| eps
    # relatively, and the evaluation adds a few ulps: 4 eps (1 + |zf'/f|)
    # covers the difference of the two values (the largest seen is about
    # an eighth of that).  For Koebe at inclination lam,
    # log f = log z - 2 mu log(1 - z), so
    # kappa = |Re(2 mu z / (1 - z)^2)| <= 2 cos(lam) r / (1 - r)^2 (equality
    # at lam = 0: 2.5e-9 relative at r = 1 - 1e-8) and
    # |zf'/f| <= 1 + 2 cos(lam) r / (1 - r).
    fn = koebe(SpiralAngle(lam))
    radii = np.array([0.5, 0.9] + [1.0 - 10.0**-k for k in range(2, 9)])
    eps = np.finfo(float).eps
    for r, M in zip(radii, max_modulus(fn, radii)):
        gold = math.exp(per_radius_log_max_modulus(fn, r, golden_section_max))
        kappa = 2.0 * math.cos(lam) * r / (1.0 - r) ** 2
        q = 1.0 + 2.0 * math.cos(lam) * r / (1.0 - r)
        assert abs(M - gold) <= M * (kappa * 1e-24 / 8.0 + 4.0 * eps * (1.0 + q)), r


def test_max_modulus_evaluate_calls():
    # log|f| comes from log(f/z), never from evaluate: one scan, then one
    # call per search step; the bracket 2h shrinks by 2/(m + 1) per step
    # down to tol = 1e-12, so 1 + 7 calls
    class Counting(MeasureFunction):
        calls = {"evaluate": 0, "log_f_over_z": 0}

        def evaluate(self, z):
            Counting.calls["evaluate"] += 1
            return super().evaluate(z)

        def log_f_over_z(self, z):
            Counting.calls["log_f_over_z"] += 1
            return super().log_f_over_z(z)

    fn = Counting(crit4_measure(), SpiralAngle(0.3))
    m = _SECTION_POINTS
    max_modulus(fn, np.array([0.5, 0.9, 0.99]))
    steps = math.ceil(math.log(2 * TWO_PI / _CIRCLE_SCAN / 1e-12) / math.log((m + 1) / 2))
    assert steps == 7
    assert Counting.calls == {"evaluate": 0, "log_f_over_z": 1 + steps}


def _bench_fixed_mixed_measure():
    """The benchmark's fixed mixed measure: two atoms and three slope changes."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.fixed_mixed_measure()


def _asymptote_constant(measure, lam):
    """K in |log M(r) - growth_asymptote| <= 2 K (1 - r), the first-order rule.

    Moving z from the atom's boundary point exp(i*t_k) to the peak, a
    distance (1 - r)/cos(lam) away, changes log|f| by at most (1 - r) times
    K = 1 + max_k (A_k |sin(lam)|/pi + sum_{j != k} A_j/(pi |1 - exp(i(t_k - t_j))|))
    + (pi/6) sum_j |sigma_j|: 1 from log r, A_k |sin(lam)|/pi from the
    atom's own term past its leading part, then the other atoms' Li_1
    (derivative 1/(1 - u)) and the slope changes' Li_3 (derivative
    Li_2(u)/u, at most pi^2/6), each times |mu| = cos(lam).  Over 1,000
    seeded atomic measures (default_rng 1, 2 and 5, the recipe of
    _seeded_atomic_cases, 200 + 400 + 400) the residual reached
    0.995 K (1 - r), and on the bench's mixed measure 0.62 K (1 - r); the
    factor 2 leaves room for the second-order terms.
    """
    atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
    t, w = atoms[:, 0], atoms[:, 1]
    chord = np.abs(1.0 - np.exp(1j * (t[:, None] - t[None, :])))
    np.fill_diagonal(chord, np.inf)
    per_atom = w * abs(math.sin(lam)) / PI + (w[None, :] / (PI * chord)).sum(axis=1)
    _, sigma = measure.slope_changes()
    return 1.0 + float(np.max(per_atom)) + PI / 6.0 * float(np.abs(sigma).sum())


def _seeded_atomic_cases(count=200, seed=1):
    """(measure, lam): 1-4 atoms at sorted uniform positions, weights uniform
    in [0.2, 3] scaled to total 2 pi, lam uniform in (-1.3, 1.3)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        t = np.sort(rng.uniform(0.0, TWO_PI, k))
        w = rng.uniform(0.2, 3.0, k)
        w *= TWO_PI / w.sum()
        lam = float(rng.uniform(-1.3, 1.3))
        cases.append((BoundaryMeasure.from_atoms(list(zip(t.tolist(), w.tolist()))), lam))
    return cases


def _asymptote_residuals(measure, lam, deltas=(1e-4, 1e-6)):
    fn = MeasureFunction(measure, SpiralAngle(lam))
    peaks = max_modulus(fn, 1.0 - np.array(deltas))
    return [math.log(M) - growth_asymptote(measure, fn.angle, d) for M, d in zip(peaks, deltas)]


def test_max_modulus_follows_the_growth_asymptote_on_seeded_atomic_measures():
    # 1 - r = 1e-4 and 1e-6; the residuals reach 4.9e-3 and 4.9e-5 here
    for measure, lam in _seeded_atomic_cases():
        K = _asymptote_constant(measure, lam)
        for d, res in zip((1e-4, 1e-6), _asymptote_residuals(measure, lam)):
            assert abs(res) <= 2.0 * K * d, (measure, lam, d, res, K)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a sharp peak next to an atom that is no scan maximum is missed",
)
def test_max_modulus_finds_the_peak_between_two_close_atoms():
    # stream indices of default_rng(11) whose measures have two atoms within
    # 2.5 scan spacings; at 1 - r = 1e-8 a dense scan of log|f| around every
    # atom exceeds max_modulus by factors 1.113, 2.049, 6.088, 511.3 and 1.496
    cases = _seeded_atomic_cases(3476, seed=11)
    r = 1.0 - 1e-8
    offsets = np.geomspace(1e-13, 3e-2, 2001)
    low = []
    for index in (62, 104, 215, 3254, 3475):
        measure, lam = cases[index]
        fn = MeasureFunction(measure, SpiralAngle(lam))
        positions = np.array([t for t, _ in measure.atoms])
        z = r * np.exp(1j * (positions[:, None] + np.concatenate((-offsets, offsets))))
        dense = math.exp(float(np.max(np.log(r) + fn.log_f_over_z(z).real)))
        got = max_modulus(fn, r)
        if got < dense * (1.0 - 1e-6):
            low.append((index, dense / got))
    assert low == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: max_modulus misses the peak between a close pair on 5 and 9 of "
    "these 80 close-pair measures at 1 - r = 1e-6 and 1e-8",
)
def test_max_modulus_finds_the_peak_of_close_pairs():
    # the first 80 close pairs; a dense scan of log|f| at 4,001 offsets on
    # each side of each atom beats max_modulus by more than 1e-6 in log on
    # indices 39, 52, 60, 73, 78 at 1e-6 (worst e^4.33) and on 2, 32, 38,
    # 39, 52, 60, 65, 73, 78 at 1e-8 (worst e^6.23)
    offsets = np.geomspace(1e-13, 3e-2, 4001)
    low = []
    for index, (measure, lam) in enumerate(close_pairs(80)):
        fn = MeasureFunction(measure, SpiralAngle(lam))
        positions = np.array([t for t, _ in measure.atoms])
        for d in (1e-6, 1e-8):
            r = 1.0 - d
            z = r * np.exp(1j * (positions[:, None] + np.concatenate((-offsets, offsets))))
            dense = float(np.max(np.log(r) + fn.log_f_over_z(z).real))
            if dense - math.log(max_modulus(fn, r)) > 1e-6:
                low.append((d, index))
    assert low == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: detect_maximal_sector rejects 23 and 40 of these 40 spirallike "
    "measures at lam = -1.2 and 1.3",
)
def test_sector_detection_accepts_seeded_spirallike_measures():
    # item 9's recipe, its first 40 default_rng(0) measures; every
    # MeasureFunction is spirallike, so each rejection is false
    rng = np.random.default_rng(0)
    measures = []
    for _ in range(40):
        k = int(rng.integers(1, 5))
        t, w = rng.uniform(0.0, TWO_PI, k), rng.uniform(0.2, 3.0, k)
        measures.append(BoundaryMeasure.from_atoms(list(zip(t.tolist(), w.tolist()))))
    rejected = [
        (lam, index)
        for lam in (-1.2, 1.3)
        for index, measure in enumerate(measures)
        if decision(detect_maximal_sector, MeasureFunction(measure, SpiralAngle(lam)))
    ]
    assert rejected == []


@pytest.mark.parametrize("lam", [0.0, 0.7, -1.2])
def test_max_modulus_follows_the_growth_asymptote_on_the_bench_mixed_measure(lam):
    measure = _bench_fixed_mixed_measure()
    K = _asymptote_constant(measure, lam)
    for d, res in zip((1e-4, 1e-6), _asymptote_residuals(measure, lam)):
        assert abs(res) <= 2.0 * K * d, (lam, d, res, K)


def test_max_modulus_finds_the_fourth_highest_scanned_peak():
    # four atoms; at 1 - r = 1e-4 the sharp peak next to the atom at 3.1409
    # falls between scan angles and ranks below three broader scanned peaks
    measure = BoundaryMeasure.from_atoms([
        (2.766971268127765, 1.9365976656430577),
        (5.997868964330948, 2.9862702146589077),
        (3.1409380316828077, 2.857042289825743),
        (2.6717902478438917, 1.4881263900654689),
    ])
    lam = 0.6700949978015578
    fn = MeasureFunction(measure, SpiralAngle(lam))
    K = _asymptote_constant(measure, lam)
    for d, res in zip((1e-4, 1e-6), _asymptote_residuals(measure, lam)):
        assert abs(res) <= 2.0 * K * d, (d, res, K)
    theta = 3.1409380316828077 + np.linspace(-2e-3, 2e-3, 400_001)
    for d, want in ((1e-4, 26.7393), (1e-6, 152.9595)):
        r = 1.0 - d
        got = max_modulus(fn, r)
        dense = float(np.max(np.abs(fn.evaluate(r * np.exp(1j * theta)))))
        assert got == pytest.approx(dense, rel=1e-6)
        assert got == pytest.approx(want, abs=5e-5)


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
    # one schedule rule with hansen_ratio and beta_trace: nonempty and
    # strictly increasing inside (0, 1); two radii are enough
    for schedule in ((), (0.99, 0.9), (0.9, 0.99, 0.99), (0.9, 1.0), (np.nan,)):
        with pytest.raises(DomainError, match="strictly increasing"):
            growth_exponent(koebe(), r_schedule=schedule)
    assert len(growth_exponent(koebe(), r_schedule=(0.9, 0.99)).rows) == 2


@pytest.mark.parametrize("schedule", [(1e-300, 0.5), (1e-17,)], ids=["tiny", "below_half_ulp"])
def test_growth_exponent_refuses_a_radius_where_one_minus_r_rounds_to_one(schedule):
    # log(1/(1 - r)) is 0 there: E once came back -inf, with a numpy
    # divide-by-zero warning
    with pytest.raises(DomainError, match=f"1 - r rounds to 1 at r = {schedule[0]!r}:"):
        growth_exponent(koebe_power(), schedule)
    # one ulp of 1 further out, 1 - r is below 1
    rows = growth_exponent(koebe_power(), (2e-16, 0.5)).rows
    assert np.isfinite(rows[0][2]) and rows[1] == growth_exponent(koebe_power(), (0.5,)).rows[0]


def test_growth_exponent_needs_known_jump():
    # the predicted exponent comes from the handle's known jump; a subclass
    # that declares none gets a package error, not a guess
    class Unknown(MeasureFunction):
        def __init__(self, measure, angle):
            super().__init__(measure, angle)
            self.known_max_jump = None

    with pytest.raises(DomainError, match="known_max_jump"):
        growth_exponent(Unknown(BoundaryMeasure.single_atom(), STARLIKE))


def test_hansen_ratio_koebe_is_r():
    rows = hansen_ratio(koebe(), 2.0)
    vals = [v for _, v in rows]
    assert vals == pytest.approx([r for r, _ in rows], rel=1e-9)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + 1e-9


def test_hansen_ratio_validation():
    with pytest.raises(DomainError):
        hansen_ratio(koebe(), -0.5)
    # an empty or non-increasing schedule, not an empty or unordered table
    for schedule in ((), (0.99, 0.9), (0.9, 0.99, 0.99)):
        with pytest.raises(DomainError, match="strictly increasing"):
            hansen_ratio(koebe(), 2.0, r_schedule=schedule)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: beta_trace(f, t_grid=0),
        lambda f: goodman_check(f, grid=(0, 32)),
        lambda f: goodman_check(f, grid=(512, 0)),
        lambda f: goodman_check(f, grid=512),
        lambda f: goodman_check(f, grid=None),
        lambda f: goodman_check(f, grid=(512,)),
        lambda f: goodman_check(f, grid=(512, 32, 1)),
    ],
    ids=[
        "beta_trace-t_grid",
        "goodman-n_theta",
        "goodman-n_steps",
        "goodman-int",
        "goodman-none",
        "goodman-one-entry",
        "goodman-three-entries",
    ],
)
def test_grid_sizes_below_one_raise_domain_error(call):
    with pytest.raises(DomainError, match="at least 1"):
        call(koebe())


@pytest.mark.parametrize(
    "call,bound",
    [
        (lambda f: beta_trace(f, t_grid=10**13), 2**24 // 5),
        (lambda f: beta_trace(f, t_grid=2**24 // 5 + 1), 2**24 // 5),
        (lambda f: beta_trace(f, t_grid=2**23 + 1, r_schedule=(0.5, 0.9)), 2**23),
        (lambda f: goodman_check(f, grid=(10**13, 1)), 2**24),
        (lambda f: goodman_check(f, grid=(512, 10**13)), 2**24),
        (lambda f: goodman_check(f, grid=(2**20, 100)), 2**24 // 100),
        (lambda f: beta_trace(f, t_grid=True), 2**24 // 5),
        (lambda f: goodman_check(f, grid=(True, 1)), 2**24),
        (lambda f: goodman_check(f, grid=(512, np.True_)), 2**24),
        (lambda f: default_r_schedule(True, 3), 2**24),
    ],
    ids=["beta-huge", "beta-one-over", "beta-two-radii", "goodman-n_theta", "goodman-n_steps",
         "goodman-product", "beta-bool", "goodman-bool", "goodman-numpy-bool", "schedule-bool"],
)
def test_oversized_or_boolean_grid_sizes_raise_domain_error(call, bound):
    # refused before any array is built: the points a call would evaluate
    # (grid entries times radii) stay within 2^24, and True is no count
    with pytest.raises(DomainError, match=f"at most {bound}, got"):
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
    # leave the image, so certification must fail loudly, at the full
    # scan's first failure
    class Lying(MeasureFunction):
        def _log_f_over_z(self, z):
            return np.zeros(z.shape, dtype=complex)

        def _log_derivative(self, z):
            return np.ones(z.shape, dtype=complex)

    got, want = assert_sector_decisions_agree(Lying(BoundaryMeasure.single_atom(), STARLIKE))
    assert got == want == coverage_message(-0.9 * PI, 0.0)


def test_sector_decreasing_trace_is_caught():
    # arg(f/z) = -2 arg z: the trace theta + arg(f/z) runs backwards
    class Backwards(MeasureFunction):
        def _arg_g_over_z(self, z):
            return -2.0 * np.angle(z)

    with pytest.raises(InconsistencyError, match="trace decreases"):
        detect_maximal_sector(Backwards(BoundaryMeasure.single_atom(), STARLIKE))


def test_sector_trace_turning_back_between_scan_angles_is_caught():
    # koebe with arg(f/z) lowered by 0.01 sin^2(128 arg z): the trace agrees
    # with koebe's at the 256 scan angles and dips between them, which the
    # rows the crossing search samples show (accepted without the check)
    class Dipping(MeasureFunction):
        def _arg_g_over_z(self, z):
            return super()._arg_g_over_z(z) - 0.01 * np.sin(128 * np.angle(z)) ** 2

    with pytest.raises(InconsistencyError, match="trace decreases"):
        detect_maximal_sector(Dipping(BoundaryMeasure.single_atom(), STARLIKE))


def test_sector_trace_stepping_over_a_spiral_is_caught():
    # koebe with arg(f/z) raised by 1 beyond arg z = 3: the trace steps over
    # the spiral arguments there, so the crossing search ends at the step,
    # off its spiral
    class Stepping(MeasureFunction):
        def _arg_g_over_z(self, z):
            return super()._arg_g_over_z(z) + 1.0 * (np.mod(np.angle(z), TWO_PI) > 3.0)

    with pytest.raises(InconsistencyError) as exc:
        detect_maximal_sector(Stepping(BoundaryMeasure.single_atom(), STARLIKE))
    assert str(exc.value).startswith("the boundary trace misses spiral argument ")


class Overflowing(MeasureFunction):
    """A handle whose log(g/z), and so log|f|, is infinite everywhere."""

    def _log_g_over_z(self, z):
        return np.full(z.shape, complex(np.inf, 0.0))


class NaNDerivative(MeasureFunction):
    """A handle whose zg'/g - 1, and so its margin's values, are NaN everywhere."""

    def _log_derivative_excess(self, z):
        return np.full(z.shape, complex(np.nan, 0.0))


def test_sector_image_rejects_non_finite_values():
    with pytest.raises(DomainError):
        detect_maximal_sector(Overflowing(BoundaryMeasure.single_atom(), SpiralAngle(0.7)))


def test_circle_readers_reject_non_finite_values():
    # max_modulus and the margin once returned nan here, and growth_exponent
    # raised an AccuracyError that called it an overflow
    over = Overflowing(BoundaryMeasure.single_atom(), SpiralAngle(0.7))
    with pytest.raises(DomainError, match="not finite at z = "):
        max_modulus(over, 0.9)
    with pytest.raises(DomainError, match="not finite at z = "):
        max_modulus(over, np.array([0.5, 0.9]))
    with pytest.raises(DomainError, match="not finite at z = "):
        growth_exponent(over)
    with pytest.raises(DomainError, match="not finite at z = "):
        spirallikeness_margin(NaNDerivative(BoundaryMeasure.single_atom(), SpiralAngle(0.7)))


class HoledAtOne(MeasureFunction):
    """Koebe with log(g/z) and arg(g/z) NaN within 0.05 of arg z = 1."""

    def _hole(self, z, value):
        return np.where(np.abs(np.angle(z) - 1.0) < 0.05, np.nan, value)

    def _log_g_over_z(self, z):
        return self._hole(z, super()._log_g_over_z(z))

    def _arg_g_over_z(self, z):
        return self._hole(z, super()._arg_g_over_z(z))


@pytest.mark.parametrize(
    "call",
    [
        beta_trace,
        goodman_check,
        lambda fn: fn.taylor_coefficients(10),
    ],
    ids=["beta_trace", "goodman_check", "taylor_coefficients"],
)
def test_a_non_finite_kernel_value_raises_instead_of_a_nan_result(call):
    # each of these once returned NaN values without an error
    with pytest.raises(DomainError, match="not finite at z = "):
        call(HoledAtOne(BoundaryMeasure.single_atom(), STARLIKE))


class HoledBetweenScans(MeasureFunction):
    """Koebe with its kernels NaN only between scan angles.

    The windows lie within h/8 of h/2 and of pi - h/2, h = 2*pi/_CIRCLE_SCAN,
    next to the peaks of |f| (theta = 0) and of -Re zf'/f (theta = pi), so
    only the search lanes there sample them.
    """

    H = TWO_PI / _CIRCLE_SCAN

    def _hole(self, z, value):
        theta = np.angle(z)
        hole = np.minimum(np.abs(theta - self.H / 2), np.abs(theta - (PI - self.H / 2)))
        return np.where(hole < self.H / 8, np.nan, value)

    def _log_g_over_z(self, z):
        return self._hole(z, super()._log_g_over_z(z))

    def _log_derivative_excess(self, z):
        return self._hole(z, super()._log_derivative_excess(z))


def test_circle_max_rejects_a_non_finite_value_between_scan_angles():
    # the scan reads only finite values; the search lanes at the peaks
    # sample the NaN windows, which they once skipped
    fn = HoledBetweenScans(BoundaryMeasure.single_atom(), STARLIKE)
    scan = 0.5 * np.exp(1j * fn.H * np.arange(_CIRCLE_SCAN))
    assert np.isfinite(fn.log_f_over_z(scan)).all()
    assert np.isfinite(fn.log_derivative(scan)).all()
    with pytest.raises(DomainError, match="not finite at z = "):
        max_modulus(fn, 0.5)
    with pytest.raises(DomainError, match="not finite at z = "):
        spirallikeness_margin(fn, 0.5)


# -- sector certification against a full scan -------------------------------------


def coverage_message(phi, t):
    return f"sector sample at spiral argument {phi:.6f}, t = {t} is not covered by the image"


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


def crossings_against_values_of_f(fn, phis):
    """The circle's crossings with the spirals phis, checked against f.

    At each angle located on the circle, the value W = f(z) lies on its
    spiral within 1e-6 and log|W| is the located log|f| within 1e-9
    relative.  Returns the angles and log|W|.
    """
    theta, logmod = _sector_crossings(fn, phis)
    w = fn.evaluate(_SECTOR_RADIUS * np.exp(1j * theta))
    assert np.max(np.abs(principal_angle(arg_lambda(w, fn.angle) - phis))) <= 1e-6
    assert np.max(np.abs(logmod - np.log(np.abs(w)))) <= 1e-9 * (1.0 + np.max(np.abs(logmod)))
    return theta, np.log(np.abs(w))


def window_values_of_f(fn, phi, n=4097):
    """arg_lambda and log|.| of f at n angles of the circle spanning phi's window.

    The window's ends are the crossings of the spirals phi -+ _SECTOR_ARG_TOL.
    """
    edges = phi + np.array([-_SECTOR_ARG_TOL, _SECTOR_ARG_TOL])
    (lo, hi), _ = crossings_against_values_of_f(fn, edges)
    x = np.linspace(lo, lo + np.mod(hi - lo, TWO_PI), n)
    w = fn.evaluate(_SECTOR_RADIUS * np.exp(1j * x))
    return arg_lambda(w, fn.angle), np.log(np.abs(w))


def assert_sector_decisions_agree(fn):
    """The package's and the full-scan oracle's decisions on fn's sector.

    The package rejects no sample that the oracle covers: it fails no
    earlier in (phi, t) order, so it passes wherever the oracle passes.  The
    oracle's grid holds only some points of the circle, so the package may
    fail later or pass where the oracle fails; then a value of f on the
    circle covers the oracle's first failing sample by the oracle's own rule
    (within 0.025 in spiral argument, at least its modulus).  Returns
    (package message, oracle message), None for a pass.
    """
    sector = expected_sector(fn)
    phis, logmod = _sector_samples(sector)
    got = decision(detect_maximal_sector, fn)
    if got is None:
        assert detect_maximal_sector(fn) == sector
    grid_arg, grid_logmod = sector_image_from_values(fn)
    want = decision(certify_full_scan, sector, grid_arg, grid_logmod)
    order = [coverage_message(phi, t) for phi in phis for t in _SAMPLE_T] + [None]
    k = order.index(want)
    assert order.index(got) >= k
    if order.index(got) > k:
        i, j = divmod(k, len(_SAMPLE_T))
        arg, values = window_values_of_f(fn, phis[i])
        near = np.abs(principal_angle(arg - phis[i])) <= 0.025
        assert np.max(values[near]) >= logmod[j] - 1e-9
    return got, want


def atomic_function(pairs, lam):
    return MeasureFunction(BoundaryMeasure.from_atoms(pairs), SpiralAngle(lam))


SECTOR_HANDLES = {
    "koebe": koebe,
    "koebe_pi4": lambda: koebe(SpiralAngle(PI / 4)),
    "two_atom": two_atom,
    # rotated Koebe: the labels run from 1.0106 - 0.9 pi to 1.0106 + 0.9 pi,
    # across the -pi/pi cut
    "rotated_koebe": lambda: MeasureFunction(BoundaryMeasure.single_atom(1.0106), STARLIKE),
    # t = 3 samples covered only from spirals near their own, not from
    # their own spirals: certified on the exact spirals these fail
    "four_atoms_l110": lambda: atomic_function(
        [
            (4.235001898319677, 1.296549532624073),
            (1.160965932264608, 1.1686898636008527),
            (3.168609036131378, 2.6953863466016217),
            (4.808496443330675, 1.0908104817230482),
        ],
        1.102963930917743,
    ),
    "two_atoms_l-12": lambda: atomic_function(
        [(4.526076029906061, 1.3854114981328296), (0.07249425545396913, 2.014243021324838)], -1.2
    ),
    "two_atoms_l-12_b": lambda: atomic_function(
        [(3.8779368786002997, 0.9306222147102896), (0.4190522709274013, 2.078422333809136)], -1.2
    ),
}


@pytest.mark.parametrize("lam", [-1.2, -0.7, -0.3, 0.0, 0.3, 0.7, 1.2])
def test_sector_samples_match_scalar_route(lam):
    # the closed form against the round trip through the full-scan oracle's
    # points w = spiral_point(phi, lam, t): the labels carry its bits, each
    # w lies in the sector on its label's spiral, and log|w| is t*cos(lam)
    # within 1e-15, against the 1e-9 of the coverage test.  7 inclinations x
    # 4 sectors x 45 = 1,260 samples
    angle = SpiralAngle(lam)
    for center, opening in ((0.0, TWO_PI), (PI / 2, PI), (-3.0, 1.0), (2.5, 0.3)):
        sector = SpiralSector(center_angle=center, opening=opening, angle=angle)
        phis, logmods = _sector_samples(sector)
        assert phis.shape == (9,) and logmods.shape == (len(_SAMPLE_T),)
        want = sector_samples(sector)
        assert [(phi, t) for phi, t, _ in want] == [(p, t) for p in phis for t in _SAMPLE_T]
        for k, (phi, _, w) in enumerate(want):
            assert sector_contains(sector, w)
            assert abs(principal_angle(arg_lambda(w, angle) - phi)) <= 1e-12
            assert abs(logmods[k % len(_SAMPLE_T)] - math.log(abs(w))) <= 1e-15


@pytest.mark.parametrize("name", SECTOR_HANDLES)
def test_sector_windows_match_full_scan(name):
    # each label's window is the arc of the circle between the spirals
    # 0.025 to either side of it; both routes pass
    assert assert_sector_decisions_agree(SECTOR_HANDLES[name]()) == (None, None)


@pytest.mark.parametrize("name", SECTOR_HANDLES)
def test_sector_image_matches_values_of_f(name):
    # the crossings read off log(f/z) against arg_lambda and log|.| of f's
    # values there; each label's reach is the highest log|f| in its window,
    # found among 4097 values of f on the arc between the window's ends
    fn = SECTOR_HANDLES[name]()
    phis, logmod = _sector_samples(expected_sector(fn))
    crossings_against_values_of_f(fn, phis)
    reach = _sector_reach(fn, phis)
    for phi, top in zip(phis, reach):
        arg, values = window_values_of_f(fn, phi)
        assert np.max(np.abs(principal_angle(arg - phi))) <= _SECTOR_ARG_TOL + 1e-6
        assert top - 1e-6 <= np.max(values) <= top + 1e-9
    assert decision(_certify_sector, phis, logmod, reach) is None


def test_certify_sector_matches_the_loop():
    # seeded sample rows: reaches at, just under and far from the highest
    # sample, some NaN
    rng = np.random.default_rng(3)
    for _ in range(2000):
        phis = np.sort(rng.uniform(-4.0, 4.0, 9))
        logmod = rng.normal(size=5)
        reach = np.max(logmod) + rng.choice([0.0, -1e-9, -2e-9, -0.3, 0.5], size=9)
        reach[rng.uniform(size=9) < 0.05] = np.nan
        want = certify_sector_by_loop(phis, logmod, reach, _SAMPLE_T)
        assert decision(_certify_sector, phis, logmod, reach) == want


@pytest.mark.parametrize("short, dropped", [(2, 6)], ids=["third_label_uncovered"])
def test_per_label_certification_raises_the_full_scan_message(short, dropped):
    # one grid value on the spiral argument of every sample, at the sample's
    # own modulus, except that the values of label `short` stop at t = 0's
    # modulus and label `dropped` has none; the reach of each label is its
    # highest grid value.  The first failure in (phi, t) order is t = 1.5 of
    # the third label (t = 3 after it, and the seventh label's t = -3, fail
    # too)
    sector = SpiralSector(center_angle=2.5, opening=2.0, angle=SpiralAngle(0.7))
    samples = sector_samples(sector)
    kept = [(j // 5, t, w) for j, (_, t, w) in enumerate(samples) if j // 5 != dropped]
    grid_arg = np.array([arg_lambda(w, sector.angle) for _, _, w in kept])
    grid_logmod = np.array(
        [0.0 if label == short and t > 0.0 else math.log(abs(w)) for label, t, w in kept]
    )
    labels = np.array([label for label, _, _ in kept])
    reach = [np.max(grid_logmod[labels == i], initial=-np.inf) for i in range(9)]
    want = decision(certify_full_scan, sector, grid_arg, grid_logmod)
    assert want == coverage_message(samples[5 * short][0], 1.5)
    assert decision(_certify_sector, *_sector_samples(sector), reach) == want


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([0.0, 0.7, -1.2]),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.2), st.floats(min_value=0.2, max_value=3.0)
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda kv: round(kv[0], 2),
    ),
)
def test_sector_windows_match_full_scan_atomic_measures(lam, pairs):
    assert_sector_decisions_agree(atomic_function(pairs, lam))


def test_sector_covers_a_sample_from_a_spiral_within_the_tolerance():
    # the image reaches only log|w| = 0.48592 on the spiral -2.825192 itself,
    # below the t = 1.5 sample's 0.49276, but further out within 0.025 of
    # it; both routes first fail at t = 3
    pairs = [
        (5.312189868474961, 1.7842517249672387),
        (1.9386971873246495, 0.9862610829299455),
        (0.5604099577434623, 0.5593753232702976),
    ]
    fn = atomic_function(pairs, -1.2360761205905157)
    phis, logmod = _sector_samples(expected_sector(fn))
    _, on_spiral = crossings_against_values_of_f(fn, phis[:1])
    assert on_spiral[0] < logmod[3] <= _sector_reach(fn, phis)[0]
    got, want = assert_sector_decisions_agree(fn)
    assert got == want == coverage_message(-2.825192, 3.0)


def test_sector_covers_a_sample_between_the_full_scan_grid_points():
    # the full scan's grid misses the values of f on the circle that cover
    # the t = 3 sample of the spiral -0.661184; the package finds them
    pairs = [(4.689600635552913, 1.0616567855131838), (1.1285358570580422, 2.2601644256603493)]
    fn = atomic_function(pairs, -1.2)
    got, want = assert_sector_decisions_agree(fn)
    assert got is None
    assert want == coverage_message(-0.661184, 3.0)
