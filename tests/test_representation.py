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

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallike import (
    STARLIKE,
    AccuracyError,
    BoundaryMeasure,
    DomainError,
    G0Function,
    HansenParams,
    MeasureFunction,
    MeasureValidationError,
    PowerTransform,
    SpiralAngle,
    counterexample_for,
    hansen_build,
    koebe_power,
    spirallike_of,
)
from spirallike.representation import _term_sum

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
    a = f.taylor_coefficients(20)
    assert a.shape == (20,)
    assert np.max(np.abs(a - np.arange(1, 21))) < 1e-9


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
    with pytest.raises(DomainError):
        f.taylor_coefficients(5, radius=1.5)


@pytest.mark.parametrize("n_max", [128, 129, 1000])
def test_taylor_past_sample_count_raises_accuracy_error(n_max):
    # 128 circle samples at radius 1/2 resolve a_1..a_127 only: a package
    # error, never numpy's broadcast ValueError
    with pytest.raises(AccuracyError, match="not below the 128 circle samples"):
        koebe().taylor_coefficients(n_max)
    assert koebe().taylor_coefficients(127).shape == (127,)


# -- power transforms --------------------------------------------------------------


def test_power_transform_composes_logs():
    base = koebe()
    a = SpiralAngle(0.6)
    g = PowerTransform(base, a.mu, a)
    z = 0.3 + 0.2j
    assert abs(g.log_f_over_z(z) - a.mu * base.log_f_over_z(z)) < 1e-15
    want = 1 + a.mu * (base.log_derivative(z) - 1)
    assert abs(g.log_derivative(z) - want) < 1e-15
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
# non-constant densities, the gallery closed forms and power transforms
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


@pytest.mark.parametrize("make", HANDLES.values(), ids=HANDLES.keys())
def test_point_value_independent_of_batch(make):
    # A point gets the same bits alone, inside arrays of any size (across
    # the block size of the blocked kernel, at its edges) and in a 2-d grid:
    # batched callers (max_modulus over many radii) and scalar callers agree.
    f = make()
    block = f._block
    rng = np.random.default_rng(5)
    r = np.concatenate([0.5 * np.sqrt(rng.uniform(0, 1, 100)), 1.0 - 10.0 ** rng.uniform(-6, -0.3, 200)])
    points = r * np.exp(2j * PI * rng.uniform(0, 1, r.size))

    def filler(size):
        return 0.95 * np.sqrt(rng.uniform(0, 1, size)) * np.exp(2j * PI * rng.uniform(0, 1, size))

    for name in ("log_f_over_z", "log_derivative", "evaluate", "f_over_z"):
        method = getattr(f, name)
        alone = np.array([method(complex(p)) for p in points])
        # a Python complex, not a numpy scalar
        assert all(type(method(complex(p))) is complex for p in points[:3])
        for size in (1, 3, block - 1, block, block + 1, 3 * block):
            # the points in groups that fit, at spread positions and at the
            # first and last slot of each block
            edges = [0, size - 1] + [k for b in range(block, size, block) for k in (b - 1, b)]
            for first in range(0, points.size, size):
                group = points[first : first + size]
                spread = np.linspace(0, size - 1, group.size).astype(int)
                pos = np.unique(np.concatenate([edges, spread]))[: group.size]
                zs = filler(size)
                zs[pos] = group[: pos.size]
                got = method(zs)
                assert got.shape == (size,)
                same = got[pos] == alone[first : first + pos.size]
                assert same.all(), f"{name}: size {size}, {np.count_nonzero(~same)} differ"
        grid = filler(7 * (points.size // 7 + 1))
        grid[: points.size] = points
        got = method(grid.reshape(-1, 7))
        assert got.shape == (grid.size // 7, 7) and (got.ravel()[: points.size] == alone).all()
        assert method(np.array([], dtype=complex)).shape == (0,)


def test_term_sum_adds_rows_in_term_order():
    # _term_sum equals a row-by-row running sum bit for bit for every batch
    # size, a single point included, where numpy's reductions sum pairwise;
    # magnitudes spread over 16 decades make any reordering round differently
    rng = np.random.default_rng(11)
    for terms in (1, 2, 7, 8, 9, 40):
        for points in (1, 2, 3, 1000):
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
        for name in ("log_f_over_z", "log_derivative", "evaluate", "f_over_z"):
            with pytest.raises(DomainError):
                getattr(f, name)(bad)
            with pytest.raises(DomainError):
                getattr(f, name)(np.array([0.5, bad]))
