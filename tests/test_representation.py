"""Representation layer: measures -> analytic functions on the disk.

Closed-form oracles, worked by hand from the exponential representation
with mu = exp(i*lam)*cos(lam):

  * single atom 2*pi at 0, lam = 0:        f = z/(1-z)^2 (koebe), a_n = n
  * the same atom at general lam:          log(f/z) = -2*mu*log(1-z)
  * atoms pi at 0 and pi at pi, lam = 0:   log(f/z) = -log(1-z^2)
  * uniform density, any lam:              f = z exactly (mean value)

The quadrature oracle below integrates the kernel against the measure
directly and is an independent check of the polylogarithm closed form.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spirallike import (
    STARLIKE,
    AccuracyError,
    BoundaryMeasure,
    DomainError,
    G0Function,
    HansenParams,
    MeasureFunction,
    MeasureValidationError,
    SpiralAngle,
    counterexample_for,
    hansen_build,
    koebe_power,
    li2,
    li3,
    spirallike_of,
    starlike_of,
)
from spirallike import polylog, representation
from spirallike.representation import _term_sum

from _oracles import arg_lambda_from_log

PI = math.pi
TWO_PI = 2.0 * math.pi

lams = st.floats(min_value=-1.3, max_value=1.3, allow_nan=False)
disk_points = st.builds(
    complex,
    st.floats(min_value=-0.75, max_value=0.75),
    st.floats(min_value=-0.75, max_value=0.75),
).filter(lambda z: abs(z) < 0.9)


def koebe(angle=STARLIKE):
    return MeasureFunction(BoundaryMeasure.single_atom(), angle)


_MAX_QUAD = 1 << 21


def log_f_over_z_quadrature(f, z, nodes=256, tol=1e-9):
    """Quadrature oracle for log(f/z) of a MeasureFunction f.

    Atoms stay exact; the density integral is a periodic trapezoid rule,
    independent of the trilogarithm closed form.  The node count starts at
    max(nodes, 16/(1 - max|z|)) and doubles until successive estimates agree
    within tol; AccuracyError past _MAX_QUAD nodes.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    m = f.measure
    total = np.zeros(zz.shape, dtype=complex)
    for t, d in m.atoms:
        total = total + d * np.log1p(-zz * np.exp(-1j * t))
    if m.density_knots:
        peak = 16.0 / (1.0 - np.max(np.abs(zz)))
        N = max(int(nodes), 16)
        while N < peak and N < _MAX_QUAD:
            N *= 2

        def trapz(n):
            t = np.arange(n) * (TWO_PI / n)
            g = np.log1p(-zz[..., None] * np.exp(-1j * t)) * m.density_at(t)
            return TWO_PI * np.mean(g, axis=-1)

        approx = trapz(N)
        err = np.inf
        while err > tol:
            if N >= _MAX_QUAD:
                raise AccuracyError("density quadrature did not reach tolerance", achieved=err)
            N *= 2
            refined = trapz(N)
            err = float(np.max(np.abs(refined - approx)))
            approx = refined
        total = total + approx
    out = -(f.angle.mu / np.pi) * total
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


# -- normalization and domain -------------------------------------------------


def test_normalization_at_zero():
    f = koebe()
    assert f.log_f_over_z(0.0) == 0.0
    assert f.f_over_z(0.0) == 1.0
    assert f.evaluate(0.0) == 0.0
    assert f.log_derivative(0.0) == 1.0


def test_domain_restricted_to_open_disk():
    f = koebe()
    with pytest.raises(DomainError):
        f.evaluate(1.0)
    with pytest.raises(DomainError):
        f.log_derivative(np.array([0.5, 1.0 + 0j]))


def test_invalid_measure_rejected_at_construction():
    bad = BoundaryMeasure(atoms=((0.0, 1.0),))  # mass 1 != 2*pi
    with pytest.raises(MeasureValidationError):
        MeasureFunction(bad, STARLIKE)


# -- koebe closed forms ---------------------------------------------------------


def test_koebe_values():
    f = koebe()
    assert abs(f.evaluate(0.5) - 2.0) < 1e-13
    assert abs(f.log_derivative(0.5) - 3.0) < 1e-13
    z = np.array([0.3 + 0.4j, -0.2 + 0.1j, 0.9j])
    want = z / (1 - z) ** 2
    assert np.max(np.abs(f.evaluate(z) - want)) < 1e-12


def test_koebe_taylor_coefficients():
    f = koebe()
    for n_max in (20, 40, 100):
        a = f.taylor_coefficients(n_max)
        assert a.shape == (n_max,)
        assert np.max(np.abs(a - np.arange(1, n_max + 1))) < 1e-9, n_max


def test_spirallike_koebe_closed_form():
    a = SpiralAngle(PI / 4)
    f = koebe(a)
    # log(f/z) = -2*mu*log(1-z); at z = 1/2, mu = (1+i)/2 this is (1+i)log 2
    want = 0.5 * np.exp((1 + 1j) * math.log(2.0))
    assert abs(f.evaluate(0.5) - want) < 1e-13
    z = 0.3 - 0.55j
    assert abs(f.log_f_over_z(z) - (-2 * a.mu * np.log(1 - z))) < 1e-13
    # zf'/f = 1 + 2*mu*z/(1-z)
    assert abs(f.log_derivative(z) - (1 + 2 * a.mu * z / (1 - z))) < 1e-13


def test_two_atom_closed_form():
    m = BoundaryMeasure.from_atoms([(0.0, 1.0), (PI, 1.0)])
    f = MeasureFunction(m, STARLIKE)
    assert abs(f.log_f_over_z(0.5j) - (-np.log(1.25))) < 1e-13
    z = np.array([0.1 + 0.2j, -0.6, 0.85j])
    assert np.max(np.abs(f.log_f_over_z(z) + np.log(1 - z * z))) < 1e-12
    # zf'/f = (1+z^2)/(1-z^2)
    want = (1 + z * z) / (1 - z * z)
    assert np.max(np.abs(f.log_derivative(z) - want)) < 1e-12


@given(lams, disk_points)
def test_uniform_measure_gives_identity(lam, z):
    f = MeasureFunction(BoundaryMeasure.uniform(), SpiralAngle(lam))
    assert abs(f.evaluate(z) - z) < 1e-12
    assert abs(f.log_derivative(z) - 1.0) < 1e-12


# -- triangle densities converge to atoms ---------------------------------------


def narrow_triangle(width):
    # hat of mass 2*pi centered at 0, supported on [-width, width] mod 2*pi
    peak = TWO_PI / width
    knots = (
        (0.0, peak),
        (width, 0.0),
        (TWO_PI - width, 0.0),
    )
    return BoundaryMeasure(density_knots=knots)


def test_narrow_triangles_approach_koebe():
    z = np.array([0.4 + 0.3j, -0.5j, 0.2])
    want = koebe().log_f_over_z(z)
    errs = []
    for width in (0.3, 0.1, 0.03):
        f = MeasureFunction(narrow_triangle(width), STARLIKE)
        errs.append(np.max(np.abs(f.log_f_over_z(z) - want)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2e-3


# -- dual evaluation routes ------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 0.7, -1.1])
def test_quadrature_route_matches_closed_form(lam):
    m = BoundaryMeasure(
        atoms=((1.0, 2.0), (4.0, 1.5)),
        density_knots=((0.0, 0.1), (2.0, 0.8), (5.0, 0.1)),
    )
    scale = TWO_PI / m.total_mass()
    m = BoundaryMeasure(
        atoms=tuple((t, scale * d) for t, d in m.atoms),
        density_knots=tuple((t, scale * v) for t, v in m.density_knots),
    )
    f = MeasureFunction(m, SpiralAngle(lam))
    rng = np.random.default_rng(7)
    z = 0.97 * np.sqrt(rng.uniform(0, 1, 24)) * np.exp(2j * PI * rng.uniform(0, 1, 24))
    direct = f.log_f_over_z(z)
    quad = log_f_over_z_quadrature(f, z, tol=1e-10)
    assert np.max(np.abs(direct - quad)) < 1e-9


def test_quadrature_node_cap_raises():
    # atoms are summed exactly, so the node cap only binds for densities
    m = BoundaryMeasure.from_atoms([(0.0, 1.0)], uniform_density_mass=PI)
    f = MeasureFunction(m, STARLIKE)
    with pytest.raises(AccuracyError) as exc:
        log_f_over_z_quadrature(f, 0.999999999, tol=1e-12)
    assert exc.value.achieved is not None


# -- derivative consistency ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(lams, disk_points)
def test_log_derivative_matches_finite_difference(lam, z):
    m = BoundaryMeasure.from_atoms([(0.5, 1.0), (3.0, 2.0)], uniform_density_mass=1.0)
    f = MeasureFunction(m, SpiralAngle(lam))
    h = 1e-6
    num = (f.log_f_over_z(z * (1 + h)) - f.log_f_over_z(z * (1 - h))) / (2 * h)
    assert abs((f.log_derivative(z) - 1.0) - num) < 5e-6


# -- growth bound -----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(lams, st.floats(min_value=0.05, max_value=0.98))
def test_log_f_over_z_bounded_by_mass(lam, r):
    # |log(f/z)| <= |mu|/pi * 2*pi * max_t |log(1 - r e^{it})| is crude but
    # catches any mass or sign slip in the kernel accumulation.
    m = BoundaryMeasure.from_atoms([(0.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
    f = MeasureFunction(m, SpiralAngle(lam))
    z = r * np.exp(1j * np.linspace(0, TWO_PI, 32, endpoint=False))
    bound = 2.0 * abs(SpiralAngle(lam).mu) * (abs(math.log(1 - r)) + PI)
    assert np.max(np.abs(f.log_f_over_z(z))) <= bound + 1e-9


def test_taylor_first_coefficient_is_one():
    # a_1 = 1 is the normalization f'(0) = 1; taylor_coefficients returns
    # coefficients of f starting at a_1
    m = BoundaryMeasure.from_atoms([(1.0, 1.0), (4.5, 3.0)])
    f = MeasureFunction(m, SpiralAngle(0.4))
    a = f.taylor_coefficients(5)
    assert abs(a[0] - 1.0) < 1e-10


def test_taylor_validation():
    f = koebe()
    with pytest.raises(DomainError):
        f.taylor_coefficients(0)


@pytest.mark.parametrize("n_max", [128, 129, 1000])
def test_taylor_koebe_past_128_coefficients(n_max):
    # on |z| = e^(-1/n_max) rounding grows by at most e, so the error stays
    # near e * eps * n_max^2 for every n_max up to the sample cap
    n = np.arange(1, n_max + 1)
    a = koebe().taylor_coefficients(n_max)
    assert np.max(np.abs(a - n) / n) <= 1e-9


def _rising_ratios(x, n_max):
    """(x)_(n-1)/(n-1)! for n = 1..n_max in mpmath, the coefficients of z(1-z)^-x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        x = mpmath.mpc(x)
        return np.array([complex(mpmath.rf(x, k) / mpmath.factorial(k)) for k in range(n_max)])


@pytest.mark.parametrize(
    "fn, n_max, want",
    [
        (G0Function, 500, lambda n: np.cumsum(1.0 / np.arange(1, n + 1))),
        (lambda: koebe_power(1.5), 100, lambda n: _rising_ratios(1.5, n)),
        (lambda: koebe(SpiralAngle(0.7)), 300, lambda n: _rising_ratios(2 * SpiralAngle(0.7).mu, n)),
    ],
    ids=["g0-harmonic", "koebe_power-gamma", "spirallike_koebe-pochhammer"],
)
def test_taylor_closed_forms(fn, n_max, want):
    # g0 = -log(1-z)/(1-z) has a_n = H_n; z(1-z)^-x has a_n = (x)_(n-1)/(n-1)!,
    # which is Gamma(n-1+x)/(Gamma(x) Gamma(n)) for koebe_power and x = 2 mu
    # for the lambda-spirallike Koebe function
    expected = want(n_max)
    a = fn().taylor_coefficients(n_max)
    assert np.max(np.abs(a - expected) / np.abs(expected)) <= 1e-11


def test_taylor_above_sample_cap_raises_accuracy_error():
    # 40 * n_max samples past 2^20 circle points: a package error raised
    # before anything is allocated; 26214 is the last n_max within the cap
    assert koebe().taylor_coefficients(26214).shape == (26214,)
    with pytest.raises(AccuracyError, match="circle samples"):
        koebe().taylor_coefficients(26215)
    with pytest.raises(AccuracyError):
        koebe().taylor_coefficients(10**12)


# -- the pairing ------------------------------------------------------------------


def test_pairing_composes_logs():
    # the template scales the starlike kernel by mu: at inclination 0 it
    # returns the kernel's bits, so log(f/z) = mu * log(g/z) holds exactly
    # (in numpy's complex multiply; Python's rounds differently)
    a = SpiralAngle(0.6)
    z = np.array([0.3 + 0.2j, -0.7 + 0.1j, 0.99j])
    for base in (koebe(), G0Function(), hansen_build(HansenParams(1.3, 2.0, 0.2))):
        g = spirallike_of(base, a)
        assert np.array_equal(g.log_f_over_z(z), a.mu * base.log_f_over_z(z))
        want = 1 + a.mu * (base.log_derivative(z[0]) - 1)
        assert abs(g.log_derivative(z[0]) - want) < 1e-15
        assert g.angle == a
        assert g.measure is base.measure


def atoms_and_knots(n_atoms, n_knots, seed):
    """Atoms carrying 60% of the mass plus a non-constant n_knots density."""
    rng = np.random.default_rng(seed)
    atom_t = np.sort(rng.uniform(0.0, TWO_PI, n_atoms))
    jumps = rng.uniform(0.2, 1.0, n_atoms)
    jumps *= 0.6 * TWO_PI / jumps.sum()
    knot_t = np.arange(n_knots) * (TWO_PI / n_knots) + 0.1
    values = rng.uniform(0.2, 1.0, n_knots)
    # the density's mass is the mean knot value times 2 pi on an even grid
    values *= 0.4 / values.mean()
    return BoundaryMeasure(
        atoms=tuple(zip(atom_t.tolist(), jumps.tolist())),
        density_knots=tuple(zip(knot_t.tolist(), values.tolist())),
    )


# one handle of every SpiralFunction class: measures with atoms and
# non-constant densities, the gallery closed forms and their spirallike
# partners
HANDLES = {
    "mixed": lambda: MeasureFunction(atoms_and_knots(2, 4, seed=2), STARLIKE),
    "mixed_l07": lambda: MeasureFunction(atoms_and_knots(2, 4, seed=2), SpiralAngle(0.7)),
    "wide": lambda: MeasureFunction(atoms_and_knots(24, 12, seed=24), SpiralAngle(0.3)),
    "g0": G0Function,
    "hansen": lambda: hansen_build(HansenParams(1.3, 2.0, 0.2)),
    "counterexample": lambda: counterexample_for(SpiralAngle(PI / 4), PI),
    "spirallike_koebe": lambda: spirallike_of(koebe(), SpiralAngle(0.7)),
    "koebe_power": lambda: koebe_power(1.5),
}


def _row_blocks(f):
    """The points per row block of each polylog order of a MeasureFunction; none for other handles."""
    terms = getattr(f, "_terms", {})
    return [representation._BLOCK_TERMS // rot.shape[0] for rot, _ in terms.values()]


def test_each_order_takes_its_own_row_blocks(monkeypatch):
    # 45056 points, the first half in |z| <= 1/2 (the moment series) and the
    # rest outside: the 22528 outer points fall in two kernel blocks, of
    # 10238 and 12290 points, and the 12 slope changes of the wide measure
    # take 1365-point row blocks (8 + 10 li3 calls), not one block size
    # shared with the 24 atoms (23 + 28 calls of 455 points)
    f = HANDLES["wide"]()
    assert _row_blocks(f) == [682, 1365]
    calls = []

    def counted(u):
        calls.append(u.shape)
        return li3(u)

    monkeypatch.setattr(polylog, "li3", counted)
    rng = np.random.default_rng(7)
    half = 45056 // 2
    r = np.concatenate([0.5 * np.sqrt(rng.uniform(0, 1, half)), 1.0 - 10.0 ** rng.uniform(-6, -0.3, half)])
    f.log_f_over_z(r * np.exp(2j * PI * rng.uniform(0, 1, r.size)))
    assert len(calls) == 18
    assert max(rows * points for rows, points in calls) < 16384


@pytest.mark.parametrize("make", HANDLES.values(), ids=HANDLES.keys())
def test_point_value_independent_of_batch(make):
    # A point gets the same bits alone, inside arrays of any size (across
    # the blocks of the kernel, at their edges) and in a 2-d grid: batched
    # callers (max_modulus over many radii) and scalar callers agree.  A
    # MeasureFunction evaluates blocks of _BLOCK_TERMS points and, outside
    # |z| <= 1/2, each polylog order's rows in blocks of _row_blocks(f)
    # points (wide: 682 for its 24 atoms, 1365 for its 12 slope changes;
    # mixed: 8191 and 4095); points on |z| = 1/2 and one ulp to either side
    # meet both routes.
    f = make()
    rng = np.random.default_rng(5)
    r = np.concatenate([0.5 * np.sqrt(rng.uniform(0, 1, 100)), 1.0 - 10.0 ** rng.uniform(-6, -0.3, 200)])
    circles = (0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0))
    points = np.concatenate((
        r * np.exp(2j * PI * rng.uniform(0, 1, r.size)),
        *(_circle_points(rng, radius, 20) for radius in circles),
    ))

    def filler(size, outer):
        # area-uniform in |z| <= 0.95, or in 1/2 < |z| <= 0.95, where the
        # row blocks fill up
        low = (0.5 / 0.95) ** 2 if outer else 0.0
        r = 0.95 * np.sqrt(rng.uniform(low, 1, size))
        return r * np.exp(2j * PI * rng.uniform(0, 1, size))

    blocks = [(representation._BLOCK_TERMS, (1, 3), False)]
    blocks += [(block, (), True) for block in _row_blocks(f) if block < representation._BLOCK_TERMS]
    for name in ("log_f_over_z", "log_derivative", "evaluate", "f_over_z", "arg_lambda_f_over_z"):
        method = getattr(f, name)
        alone = np.array([method(complex(p)) for p in points])
        # a Python complex, or a float for the real argument, not a numpy scalar
        kind = float if name == "arg_lambda_f_over_z" else complex
        assert all(type(method(complex(p))) is kind for p in points[:3])
        for block, small, outer in blocks:
            for size in (*small, block - 1, block, block + 1, 3 * block):
                # the points in groups that fit, at spread positions and at
                # the first and last slot of each block
                edges = [0, size - 1] + [k for b in range(block, size, block) for k in (b - 1, b)]
                for first in range(0, points.size, size):
                    group = points[first : first + size]
                    spread = np.linspace(0, size - 1, group.size).astype(int)
                    pos = np.unique(np.concatenate([edges, spread]))[: group.size]
                    zs = filler(size, outer)
                    zs[pos] = group[: pos.size]
                    got = method(zs)
                    assert got.shape == (size,)
                    same = got[pos] == alone[first : first + pos.size]
                    assert same.all(), f"{name}: size {size}, {np.count_nonzero(~same)} differ"
        grid = filler(7 * (points.size // 7 + 1), False)
        grid[: points.size] = points
        got = method(grid.reshape(-1, 7))
        assert got.shape == (grid.size // 7, 7) and (got.ravel()[: points.size] == alone).all()
        assert method(np.array([], dtype=complex)).shape == (0,)


def test_term_sum_adds_rows_in_term_order():
    # _term_sum equals a row-by-row running sum bit for bit for every batch
    # size: the reduce of 2 or more points must add the rows in term order,
    # and a single point, whose contiguous column numpy's reduce would sum
    # pairwise, takes the running sum; magnitudes spread over 16 decades make
    # any reordering round differently
    rng = np.random.default_rng(11)
    for terms in range(1, 41):
        for points in [*range(1, 18), 1000]:
            shape = (terms, points)
            rows = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(
                -8, 8, shape
            )
            want = rows[0].copy()
            for row in rows[1:]:
                want = want + row
            got = _term_sum(rows.copy())
            assert got.shape == (points,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (terms, points)


@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.2), np.inf, complex(0.3, np.inf)])
def test_measure_function_rejects_non_finite(bad):
    for make in HANDLES.values():
        f = make()
        for name in ("log_f_over_z", "log_derivative", "evaluate", "f_over_z", "arg_lambda_f_over_z"):
            with pytest.raises(DomainError):
                getattr(f, name)(bad)
            with pytest.raises(DomainError):
                getattr(f, name)(np.array([0.5, bad]))


# -- the measure's moment series inside |z| <= 1/2 -----------------------------------


def _eval_kernel_measures():
    """The mixed and wide measures of the benchmark's eval_kernel workload, and
    the mixed measure's density alone, rescaled to mass 2 pi."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    specs = dict(inputs.kernel_specs())
    mixed = specs["mixed_l0"][1]
    scale = TWO_PI / BoundaryMeasure(density_knots=mixed.density_knots).total_mass()
    density = BoundaryMeasure(density_knots=tuple((t, scale * v) for t, v in mixed.density_knots))
    return {"mixed": mixed, "wide": specs["wide"][1], "density": density}


SERIES_MEASURES = _eval_kernel_measures()
SERIES_METHODS = ("log_f_over_z", "log_derivative", "evaluate", "f_over_z")


def _circle_points(rng, radius, count):
    """Points radius*exp(i*theta) whose computed modulus is exactly radius."""
    z = radius * np.exp(2j * PI * rng.uniform(0, 1, 4 * count))
    return z[np.abs(z) == radius][:count]


def _series_points(rng):
    """(inner, outer): area-uniform in |z| <= 1/2 plus the circle |z| = 1/2 and
    1 ulp inside it; 1 ulp outside it plus 1 - |z| log-uniform in (1e-6, 1/2)."""
    half = 0.5
    inner = np.concatenate((
        half * np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(2j * PI * rng.uniform(0, 1, 2000)),
        _circle_points(rng, half, 50),
        _circle_points(rng, np.nextafter(half, 0.0), 50),
        [0.0, half, -half, half * 1j, 0.3 + 0.4j],
    ))
    gap = 0.5 * (2e-6) ** rng.uniform(0, 1, 500)
    outer = np.concatenate((
        _circle_points(rng, np.nextafter(half, 1.0), 50),
        (1.0 - gap) * np.exp(2j * PI * rng.uniform(0, 1, 500)),
    ))
    assert (np.abs(inner) <= half).all() and (np.abs(outer) > half).all()
    return inner, outer


def _measure_term_sum(measure, z, shift):
    """The measure sum at z, one row per atom and per slope change.

    shift 0: sum_k d_k Li_1(u_k) - sum_j sigma_j Li_3(v_j), and shift 1:
    sum_k d_k u_k/(1 - u_k) - sum_j sigma_j Li_2(v_j), with
    u_k = exp(-i*t_k) z and v_j = exp(-i*t_j) z; the atom rows and the
    slope-change rows are each added in term order, then combined, as the
    kernel adds them.
    """

    def atom_row(t, d):
        u = np.exp(-1j * t) * z
        return d * polylog._li1(u) if shift == 0 else d * (u / (1.0 - u))

    def in_term_order(rows):
        total = rows[0]
        for row in rows[1:]:
            total = total + row
        return total

    li = {0: li3, 1: li2}[shift]
    total = np.zeros(z.shape, dtype=complex)
    if measure.atoms:
        total = total + in_term_order([atom_row(t, d) for t, d in measure.atoms])
    slope_changes = zip(*measure.slope_changes())
    return total - in_term_order([s * li(np.exp(-1j * t) * z) for t, s in slope_changes])


@pytest.mark.parametrize("name", SERIES_MEASURES)
def test_density_series_matches_polylog_term_sum(name):
    # inside |z| <= 1/2 the whole measure's moment series, atoms and slope
    # changes together, agrees with one row per atom and per slope change
    # within 1e-15 (1 + sum|sigma|); outside it the sum is those rows, bit
    # for bit
    measure = SERIES_MEASURES[name]
    f = MeasureFunction(measure, STARLIKE)
    tol = 1e-15 * (1.0 + np.abs(measure.slope_changes()[1]).sum())
    inner, outer = _series_points(np.random.default_rng(8))
    if measure.atoms:
        counts, powers = {0: 51, 1: 57}, {0: 1, 1: 0}
    else:
        counts, powers = {0: 41, 1: 46}, {0: 3, 1: 2}
    for shift in (0, 1):
        # M terms: the first m with 2^-m/m^p < 2^-56, so the tail is below that
        M, p = f._series[shift].size, powers[shift]
        assert M == counts[shift]
        assert 0.5**M / M**p < 2.0**-56 <= 0.5 ** (M - 1) / (M - 1) ** p
        got = f._measure_sum(inner, shift)
        want = _measure_term_sum(measure, inner, shift)
        assert np.abs(got - want).max() <= tol, (shift, np.abs(got - want).max())
        # the circle |z| = 1/2 itself takes the series: its bits differ
        on_circle = np.abs(inner) == 0.5
        assert not np.array_equal(got[on_circle], want[on_circle])
        got = f._measure_sum(outer, shift)
        want = _measure_term_sum(measure, outer, shift)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _knots(values, count):
    """(angles, values): count[0] to count[1] sorted distinct angles in [0, 6.2],
    one value each."""
    angles = st.lists(st.floats(0.0, 6.2), min_size=count[0], max_size=count[1], unique=True)
    return angles.flatmap(
        lambda t: st.lists(values, min_size=len(t), max_size=len(t)).map(lambda v: (sorted(t), v))
    )


@settings(max_examples=40, deadline=None)
@given(
    _knots(st.floats(0.05, 1.0), (1, 8)),
    _knots(st.floats(0.0, 1.0), (2, 10)),
    st.integers(0, 2**32 - 1),
)
def test_measure_series_matches_term_rows(atoms, knots, seed):
    # random atoms plus a piecewise-linear density, scaled to mass 2 pi:
    # inside |z| <= 1/2 the series (51 and 57 terms) agrees with the rows
    # within 1e-15 (1 + sum|sigma| + sum d)
    (atom_t, d), (knot_t, v) = atoms, knots
    assume(min(np.diff(atom_t), default=1.0) > 1e-3 and min(np.diff(knot_t)) > 1e-3)
    raw = BoundaryMeasure(atoms=tuple(zip(atom_t, d)), density_knots=tuple(zip(knot_t, v)))
    scale = TWO_PI / raw.total_mass()
    measure = BoundaryMeasure(
        atoms=tuple((t, scale * x) for t, x in raw.atoms),
        density_knots=tuple((t, scale * x) for t, x in raw.density_knots),
    )
    f = MeasureFunction(measure, STARLIKE)
    assume(f._series)
    assert {shift: c.size for shift, c in f._series.items()} == {0: 51, 1: 57}
    rng = np.random.default_rng(seed)
    z = np.concatenate((
        0.5 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * PI * rng.uniform(0, 1, 64)),
        _circle_points(rng, 0.5, 16),
        _circle_points(rng, np.nextafter(0.5, 0.0), 16),
    ))
    mass = np.abs(measure.slope_changes()[1]).sum() + sum(x for _, x in measure.atoms)
    tol = 1e-15 * (1.0 + mass)
    for shift in (0, 1):
        err = np.abs(f._measure_sum(z, shift) - _measure_term_sum(measure, z, shift)).max()
        assert err <= tol, (shift, err, tol)


@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("name", SERIES_MEASURES)
def test_density_series_regime_through_the_methods(name, lam, monkeypatch):
    # every method against the same handle with the series switched off
    # (each atom through its log(1 - u) row and each slope change through
    # li2/li3, the route of |z| > 1/2): bit-equal outside |z| <= 1/2, within
    # the series tolerance inside it
    measure = SERIES_MEASURES[name]
    f = MeasureFunction(measure, SpiralAngle(lam))
    tol = 1e-15 * (1.0 + np.abs(measure.slope_changes()[1]).sum())
    inner, outer = _series_points(np.random.default_rng(9))
    z = np.concatenate((inner, outer))
    series = {m: getattr(f, m)(z) for m in SERIES_METHODS}
    monkeypatch.setattr(representation, "_SERIES_RADIUS", -1.0)
    for m in SERIES_METHODS:
        direct = getattr(f, m)(z)
        got_in, want_in = series[m][: inner.size], direct[: inner.size]
        if m.startswith("log"):
            bound = tol + 4e-16 * (1.0 + np.abs(want_in))
        else:
            # f = z exp(L): an error in L is a relative error in f
            bound = (tol + 4e-16) * np.abs(want_in)
        assert (np.abs(got_in - want_in) <= bound).all(), m
        got_out, want_out = series[m][inner.size :], direct[inner.size :]
        assert np.array_equal(got_out.view(np.uint64), want_out.view(np.uint64)), m


@pytest.mark.parametrize(
    "measure",
    [
        BoundaryMeasure.single_atom(),
        BoundaryMeasure.from_atoms([(0.0, PI), (PI, PI)]),
        BoundaryMeasure.uniform(),
    ],
    ids=["koebe", "two_atoms", "uniform"],
)
def test_measures_without_slope_changes_have_no_series(measure):
    f = MeasureFunction(measure, SpiralAngle(0.7))
    assert f._series == {} and 3 not in f._terms


# -- the lam-argument of f/z from the starlike kernel --------------------------------

# handles built at any inclination: an atomic measure, atoms plus a density,
# many atoms and knots, and the two gallery closed forms
ARG_HANDLES = {
    "atoms": lambda angle: MeasureFunction(
        BoundaryMeasure.from_atoms([(0.3, 1.0), (2.0, 2.5), (4.4, 0.7)]), angle
    ),
    "mixed": lambda angle: MeasureFunction(atoms_and_knots(2, 4, seed=2), angle),
    "wide": lambda angle: MeasureFunction(atoms_and_knots(24, 12, seed=24), angle),
    "g0": lambda angle: spirallike_of(G0Function(), angle),
    "hansen": lambda angle: spirallike_of(hansen_build(HansenParams(1.3, 2.0, 0.2)), angle),
}


@pytest.mark.parametrize("lam", [0.0, 0.7, -1.2, 1.3])
@pytest.mark.parametrize("name", ARG_HANDLES)
def test_arg_lambda_f_over_z_is_the_starlike_argument(name, lam):
    # arg_lambda(f/z) = Im log(g/z) for the starlike partner g, bit for bit;
    # the old route Im L - tan(lam) Re L, L = log(f/z), agrees within
    # 4 eps (1 + |Im L| + |tan(lam) Re L|).  Points inside, on and one ulp
    # either side of |z| = 1/2, and down to 1 - |z| = 1e-10; scalar calls
    # and off-disk points are checked with the other methods above.
    f = ARG_HANDLES[name](SpiralAngle(lam))
    rng = np.random.default_rng(12)
    inner, outer = _series_points(rng)
    deep = (1.0 - np.geomspace(1e-6, 1e-10, 60)) * np.exp(2j * PI * rng.uniform(0, 1, 60))
    z = np.concatenate((inner, outer, deep))
    got = f.arg_lambda_f_over_z(z)
    assert got.dtype == np.float64 and got.shape == z.shape
    assert np.array_equal(got, starlike_of(f, f.angle).log_f_over_z(z).imag)
    L = f.log_f_over_z(z)
    scale = 1.0 + np.abs(L.imag) + np.abs(f.angle.tan_lambda * L.real)
    assert (np.abs(got - arg_lambda_from_log(f, z)) <= 4.0 * np.finfo(float).eps * scale).all()
