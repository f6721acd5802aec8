"""Boundary measures: validation, beta evaluation, JSON interchange.

Numeric oracles are computed test-locally from first principles: the first
moment by dense trapezoid integration of t*rho(t) plus the atom terms, and
beta by accumulating density integrals and atom jumps directly.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spirallike import (
    STARLIKE,
    BoundaryMeasure,
    DomainError,
    MeasureValidationError,
    ParameterError,
    SpiralAngle,
    SpiralSector,
    load_measure,
    principal_angle,
    q_function,
    spiral_point,
)

TWO_PI = 2.0 * math.pi
PI = math.pi


def crit4_measure():
    return BoundaryMeasure.from_atoms(
        [(0.0, PI), (PI / 2, PI / 2)], uniform_density_mass=PI / 2
    )


def triangle_measure():
    # hat density of mass pi on [1, 2] plus a balancing atom
    knots = ((0.9, 0.0), (1.0, 0.0), (1.5, 2 * PI), (2.0, 0.0), (2.1, 0.0))
    return BoundaryMeasure(atoms=((4.0, PI),), density_knots=knots)


# -- validation ---------------------------------------------------------------


def test_uniform_and_single_atom_are_valid():
    assert BoundaryMeasure.uniform().validate() == []
    assert BoundaryMeasure.single_atom().validate() == []
    assert crit4_measure().validate() == []
    assert triangle_measure().validate() == []


def test_validation_itemizes_each_violation():
    m = BoundaryMeasure(
        atoms=((-0.5, 1.0), (7.0, -2.0), (1.0, 1.0)),
        density_knots=((3.0, -1.0), (2.0, 1.0)),
    )
    v = m.validate()
    text = "\n".join(v)
    assert "atom 0" in text and "outside [0, 2*pi)" in text
    assert "atom 1" in text and "not strictly positive" in text
    assert "atom positions are not strictly increasing" in text
    assert "density knot 0" in text and "negative" in text
    assert "density knot positions are not strictly increasing" in text
    assert len(v) >= 5


def test_validation_strings_and_order_are_pinned():
    # every violation kind in both tables: the atoms' block comes first, each
    # entry's findings in entry order, the table's order check after them;
    # a non-finite entry skips the mass check
    m = BoundaryMeasure(
        atoms=((math.nan, 1.0), (-0.5, 1.0), (7.0, -2.0), (1.0, 0.0)),
        density_knots=((3.0, -1.0), (2.0, math.inf), (7.5, 0.0), (-1.0, 0.2)),
    )
    assert m.validate() == [
        "atom 0: non-finite entry (nan, 1.0)",
        "atom 1: position -0.5 outside [0, 2*pi)",
        "atom 2: position 7.0 outside [0, 2*pi)",
        "atom 2: jump -2.0 is not strictly positive",
        "atom 3: jump 0.0 is not strictly positive",
        "atom positions are not strictly increasing",
        "density knot 0: negative value -1.0",
        "density knot 1: non-finite entry (2.0, inf)",
        "density knot 2: position 7.5 outside [0, 2*pi)",
        "density knot 3: position -1.0 outside [0, 2*pi)",
        "density knot positions are not strictly increasing",
    ]
    # with finite entries the mass check closes the list; a repeated
    # position is out of order too
    m = BoundaryMeasure(
        atoms=((-0.5, 1.0), (0.25, 0.5), (0.25, 0.5)),
        density_knots=((2.0, -0.5), (1.0, 0.5)),
    )
    assert m.validate() == [
        "atom 0: position -0.5 outside [0, 2*pi)",
        "atom positions are not strictly increasing",
        "density knot 0: negative value -0.5",
        "density knot positions are not strictly increasing",
        "total mass 2.0 differs from 2*pi by more than 1e-09",
    ]


def test_mass_tolerance_is_tight():
    ok = BoundaryMeasure(atoms=((0.0, TWO_PI + 0.5e-9),))
    assert ok.validate() == []
    bad = BoundaryMeasure(atoms=((0.0, TWO_PI + 1e-8),))
    assert any("total mass" in s for s in bad.validate())
    with pytest.raises(MeasureValidationError) as exc:
        bad.require_valid()
    assert "total mass" in str(exc.value)


def test_nonfinite_entries_reported_without_mass_check():
    m = BoundaryMeasure(atoms=((math.nan, 1.0),))
    v = m.validate()
    assert any("non-finite" in s for s in v)


CHECKED_CALLS = [
    lambda m: m.beta_at(np.array([0.0, 1.5, 4.0, 7.0])),
    lambda m: m.max_jump(),
    lambda m: m.largest_atom(),
]


@pytest.mark.parametrize("call", CHECKED_CALLS, ids=["beta_at", "max_jump", "largest_atom"])
def test_validation_is_found_once_and_reused(call):
    # the measure is frozen, so its violations are found once; every later
    # call sees the same answer, and validate() hands out a fresh list
    for m in (crit4_measure(), triangle_measure()):
        first, again = call(m), call(m)
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(first, call(BoundaryMeasure(m.atoms, m.density_knots)))
    bad = BoundaryMeasure(atoms=((-0.5, 1.0), (7.0, TWO_PI)))
    want = bad.validate()
    assert len(want) == 3  # two atom positions and the total mass
    for _ in range(2):
        with pytest.raises(MeasureValidationError) as exc:
            call(bad)
        assert exc.value.violations == want
    bad.validate().append("changed by the caller")
    assert bad.validate() == want


# -- density and integrals ----------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, "a", None, object()],
    ids=["nan", "inf", "-inf", "str", "None", "object"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t: triangle_measure().beta_at(t),
        lambda t: triangle_measure().beta_at(np.array([1.0, t])),
        lambda t: triangle_measure().density_at(t),
        lambda t: triangle_measure().density_integral(0.0, t),
        lambda t: triangle_measure().density_integral(t, 1.0),
        lambda t: principal_angle(t),
        lambda t: principal_angle(np.array([t, 0.5])),
        lambda t: spiral_point(t, STARLIKE, 1.0),
        lambda t: spiral_point(0.0, STARLIKE, t),
        lambda t: SpiralSector(t, 1.0, STARLIKE),
        lambda t: SpiralSector(0.0, t, STARLIKE),
        SpiralAngle,
        q_function,
    ],
    ids=["beta_at", "beta_at_array", "density_at", "integral_b", "integral_a",
         "principal_angle", "principal_angle_array", "spiral_theta0", "spiral_t",
         "sector_center", "sector_opening", "spiral_angle", "q_function"],
)
def test_non_finite_angles_raise_domain_error(call, bad):
    # NaN, +-inf, a string, None and an object are no angles: a DomainError,
    # not a NaN, a numpy warning or numpy's ValueError or TypeError
    with pytest.raises(DomainError):
        call(bad)


def test_density_at_interpolates_periodically():
    m = triangle_measure()
    assert m.density_at(1.5) == pytest.approx(2 * PI)
    assert m.density_at(1.25) == pytest.approx(PI)
    assert m.density_at(0.5) == 0.0
    assert m.density_at(1.5 + TWO_PI) == pytest.approx(2 * PI)
    out = m.density_at(np.array([1.0, 1.5, 2.0]))
    assert out == pytest.approx([0.0, 2 * PI, 0.0])


def test_density_integral_matches_geometry():
    m = triangle_measure()
    # full hat = pi; half hat = pi/2
    assert m.density_integral(0.0, TWO_PI) == pytest.approx(PI)
    assert m.density_integral(1.0, 1.5) == pytest.approx(PI / 2)
    assert m.density_integral(0.0, 4 * PI) == pytest.approx(2 * PI)
    # orientation and additivity
    assert m.density_integral(2.0, 1.0) == pytest.approx(-PI)


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_density_integral_additive(a, b, c):
    m = crit4_measure()
    lhs = m.density_integral(a, b) + m.density_integral(b, c)
    assert lhs == pytest.approx(m.density_integral(a, c), abs=1e-10)


def test_total_mass():
    assert BoundaryMeasure.uniform().total_mass() == pytest.approx(TWO_PI)
    assert crit4_measure().total_mass() == pytest.approx(TWO_PI)
    assert triangle_measure().total_mass() == pytest.approx(TWO_PI)


# -- beta ----------------------------------------------------------------------


def test_beta_single_atom_staircase():
    m = BoundaryMeasure.single_atom()
    assert m.beta_at(0.0) == pytest.approx(PI)  # midpoint at the atom
    assert m.beta_at(PI) == pytest.approx(TWO_PI)
    assert m.beta_at(TWO_PI - 1e-12) == pytest.approx(TWO_PI)
    assert m.beta_at(TWO_PI) == pytest.approx(3 * PI)  # next period's midpoint


def test_beta_uniform_is_identity():
    m = BoundaryMeasure.uniform()
    t = np.linspace(-5.0, 15.0, 41)
    assert np.allclose(m.beta_at(t), t, atol=1e-12)


def test_beta_crit4_oracle_values():
    m = crit4_measure()
    rho = (PI / 2) / TWO_PI

    def beta_ref(t):
        # hand accumulation: density rho*t, atom pi at 0, atom pi/2 at pi/2
        q, s = divmod(t, TWO_PI)
        val = TWO_PI * q + rho * s
        for pos, jump in ((0.0, PI), (PI / 2, PI / 2)):
            if s > pos:
                val += jump
            elif s == pos:
                val += jump / 2
        return val

    for t in [0.0, 0.3, PI / 2, 2.0, 5.0, -1.0, 7.0]:
        assert m.beta_at(t) == pytest.approx(beta_ref(t), abs=1e-12), t


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_beta_periodicity(t):
    m = crit4_measure()
    # stay away from the atoms: rounding t + 2*pi across an atom position
    # flips the midpoint convention and breaks exact periodicity in doubles
    s = t % TWO_PI
    assume(min(abs(s - p) for p in (0.0, PI / 2, TWO_PI)) > 1e-9)
    assert m.beta_at(t + TWO_PI) - m.beta_at(t) == pytest.approx(TWO_PI, abs=1e-9)


@given(st.floats(min_value=-20.0, max_value=20.0), st.floats(min_value=0.0, max_value=20.0))
def test_beta_nondecreasing(t, dt):
    m = triangle_measure()
    assert m.beta_at(t + dt) >= m.beta_at(t) - 1e-12


def test_beta_midpoint_convention():
    m = crit4_measure()
    eps = 1e-9
    for pos in (0.0, PI / 2):
        mid = 0.5 * (m.beta_at(pos - eps) + m.beta_at(pos + eps))
        assert m.beta_at(pos) == pytest.approx(mid, abs=1e-6)


def test_max_jump_and_largest_atom():
    m = crit4_measure()
    assert m.max_jump() == pytest.approx(PI)
    assert m.largest_atom() == pytest.approx((0.0, PI))
    assert BoundaryMeasure.uniform().max_jump() == 0.0
    assert BoundaryMeasure.uniform().largest_atom() is None
    # tie goes to the earliest position
    tie = BoundaryMeasure(atoms=((1.0, PI), (2.0, PI)))
    assert tie.largest_atom() == pytest.approx((1.0, PI))


# -- first moment and canonical offset ----------------------------------------


def moment_oracle(m):
    t = np.linspace(0.0, TWO_PI, 200001)
    y = t * m.density_at(t)
    dens = 0.5 * np.sum((y[1:] + y[:-1]) * np.diff(t))  # the trapezoid rule
    return dens + sum(t * d for t, d in m.atoms)


@pytest.mark.parametrize(
    "measure",
    [
        BoundaryMeasure.uniform(),
        BoundaryMeasure.single_atom(),
        BoundaryMeasure.single_atom(2.5),
        crit4_measure(),
        triangle_measure(),
    ],
)
def test_first_moment_against_quadrature(measure):
    assert measure.first_moment() == pytest.approx(moment_oracle(measure), abs=1e-6)


def test_canonical_offset_values():
    # koebe: moment 0 -> offset pi; uniform: moment 2*pi^2 -> offset 0
    assert BoundaryMeasure.single_atom().canonical_offset() == pytest.approx(PI)
    assert BoundaryMeasure.uniform().canonical_offset() == pytest.approx(0.0)
    # crit4: atoms contribute pi*0 + (pi/2)(pi/2), density (pi/2)/(2*pi)*(2*pi)^2/2
    want = PI - (PI**2 / 4 + PI**2 / 2) / TWO_PI
    assert crit4_measure().canonical_offset() == pytest.approx(want)
    assert want == pytest.approx(5 * PI / 8)


# -- slope changes -------------------------------------------------------------


def test_slope_changes_constant_density_empty():
    pos, sig = BoundaryMeasure.uniform().slope_changes()
    assert pos.size == 0 and sig.size == 0
    pos, sig = BoundaryMeasure.single_atom().slope_changes()
    assert pos.size == 0


def test_slope_changes_triangle():
    m = triangle_measure()
    pos, sig = m.slope_changes()
    # hat slopes: 0 outside, +4*pi up, -4*pi down; corners at 1, 1.5, 2
    assert pos.tolist() == [1.0, 1.5, 2.0]
    assert sig == pytest.approx([4 * PI, -8 * PI, 4 * PI])
    assert np.sum(sig) == pytest.approx(0.0, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=TWO_PI - 1e-3),
            st.floats(min_value=0.0, max_value=3.0),
        ),
        min_size=2,
        max_size=8,
        unique_by=lambda kv: round(kv[0], 6),
    )
)
def test_slope_changes_sum_to_zero(knots):
    m = BoundaryMeasure(density_knots=tuple(sorted(knots)))
    _, sig = m.slope_changes()
    if sig.size:
        assert np.sum(sig) == pytest.approx(0.0, abs=1e-9)


# -- constructors ---------------------------------------------------------------


def test_from_atoms_rescales_and_merges():
    m = BoundaryMeasure.from_atoms([(1.0, 2.0), (1.0, 2.0), (3.0, 4.0)])
    assert len(m.atoms) == 2
    assert m.total_mass() == pytest.approx(TWO_PI)
    assert m.atoms[0][1] / m.atoms[1][1] == pytest.approx(1.0)  # 4 vs 4 after merge


def test_from_atoms_with_uniform_part():
    m = BoundaryMeasure.from_atoms([(0.0, 1.0)], uniform_density_mass=PI)
    assert m.density_at(1.0) == pytest.approx(0.5)  # mass pi over length 2*pi
    assert m.atoms[0][1] == pytest.approx(PI)
    assert m.validate() == []


def test_from_atoms_validation():
    with pytest.raises(ParameterError):
        BoundaryMeasure.from_atoms([(0.0, -1.0)])
    with pytest.raises(ParameterError):
        BoundaryMeasure.from_atoms([], uniform_density_mass=PI)
    assert BoundaryMeasure.from_atoms([], uniform_density_mass=TWO_PI).validate() == []
    # the density's share of the mass lies in [0, 2*pi]
    for mass in (7.0, -1.0):
        with pytest.raises(ParameterError, match="outside"):
            BoundaryMeasure.from_atoms([(0.0, 1.0)], uniform_density_mass=mass)


# -- JSON ------------------------------------------------------------------------


def test_json_roundtrip():
    m = crit4_measure()
    d = m.to_json_dict()
    again = BoundaryMeasure.from_json_dict(json.loads(json.dumps(d)))
    assert again == m


def test_from_json_dict_errors_are_itemized():
    bad = {"atoms": [{"t": 0.0}, {"t": 1.0, "jump": "x"}], "density_knots": [], "extra": 1}
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict(bad)
    text = str(exc.value)
    assert "atoms[0]" in text and "atoms[1]" in text and "unknown keys" in text


def test_from_json_dict_messages_are_pinned():
    bad = {
        "atoms": [{"t": 0.0}, {"t": 1.0, "jump": "x"}, 3, {"t": 2.0, "jump": 1.0}],
        "density_knots": [{"value": 1.0}, {"t": [1], "value": 0.5}, {"t": 1.0, "value": None}],
        "more": 2,
        "extra": 1,
    }
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict(bad)
    assert exc.value.violations == [
        'atoms[0]: expected an object with "t" and "jump"',
        "atoms[1]: non-numeric entry {'t': 1.0, 'jump': 'x'}",
        'atoms[2]: expected an object with "t" and "jump"',
        'density_knots[0]: expected an object with "t" and "value"',
        "density_knots[1]: non-numeric entry {'t': [1], 'value': 0.5}",
        "density_knots[2]: non-numeric entry {'t': 1.0, 'value': None}",
        "unknown keys: ['extra', 'more']",
    ]
    # JSON numbers only (a bool is not one, nor is a numeric string), and no
    # key inside an entry beyond "t" and the value field
    bad = {
        "atoms": [
            {"t": False, "jump": TWO_PI},
            {"t": "0", "jump": "6.283185307179586"},
            {"t": 0, "jump": 6, "typo": 1},
            {"t": True, "jump": 1.0, "z": 0, "a": 0},
        ],
        "density_knots": [{"t": 0.0, "value": True}, {"t": 1, "value": 2}],
    }
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict(bad)
    assert exc.value.violations == [
        f"atoms[0]: non-numeric entry {{'t': False, 'jump': {TWO_PI!r}}}",
        "atoms[1]: non-numeric entry {'t': '0', 'jump': '6.283185307179586'}",
        "atoms[2]: unknown keys: ['typo']",
        "atoms[3]: non-numeric entry {'t': True, 'jump': 1.0, 'z': 0, 'a': 0}",
        "atoms[3]: unknown keys: ['a', 'z']",
        "density_knots[0]: non-numeric entry {'t': 0.0, 'value': True}",
    ]
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict([])
    assert exc.value.violations == ["measure spec must be a JSON object"]


@pytest.mark.parametrize("table", [5, True, 0, 3.5, "ab", {"t": 0.0, "jump": TWO_PI}])
def test_from_json_dict_rejects_a_table_that_is_not_a_list(table):
    # one itemized error naming the key, next to the other table's findings;
    # a string is not read one character at a time
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict({"atoms": table, "density_knots": [{"t": 0.0}]})
    assert exc.value.violations == [
        f"atoms: expected a list of objects, got {table!r}",
        'density_knots[0]: expected an object with "t" and "value"',
    ]
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict({"atoms": [{"t": 0.0}], "density_knots": table})
    assert exc.value.violations == [
        'atoms[0]: expected an object with "t" and "jump"',
        f"density_knots: expected a list of objects, got {table!r}",
    ]


def test_from_json_dict_null_table_is_empty():
    uniform = {"atoms": None, "density_knots": [{"t": 0.0, "value": 1.0}]}
    assert BoundaryMeasure.from_json_dict(uniform) == BoundaryMeasure.uniform()
    empty = {"atoms": [], "density_knots": None}
    assert BoundaryMeasure.from_json_dict(empty) == BoundaryMeasure()


def test_from_json_dict_reports_an_integer_too_large_for_a_float():
    big = 10**400
    with pytest.raises(MeasureValidationError) as exc:
        BoundaryMeasure.from_json_dict({"atoms": [{"t": 0.0, "jump": big}]})
    assert exc.value.violations == [f"atoms[0]: non-numeric entry {{'t': 0.0, 'jump': {big}}}"]


def test_load_measure(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(crit4_measure().to_json_dict()))
    m = load_measure(p)
    assert m == crit4_measure()

    p2 = tmp_path / "broken.json"
    p2.write_text("{not json")
    with pytest.raises(MeasureValidationError) as exc:
        load_measure(p2)
    assert "invalid JSON" in str(exc.value)

    with pytest.raises(MeasureValidationError) as exc:
        load_measure(tmp_path / "missing.json")
    assert "cannot read" in str(exc.value)

    p3 = tmp_path / "short.json"
    p3.write_text(json.dumps({"atoms": [{"t": 0.0, "jump": 1.0}]}))
    with pytest.raises(MeasureValidationError) as exc:
        load_measure(p3)
    assert "total mass" in str(exc.value)


def test_load_measure_reports_a_file_that_is_not_utf8(tmp_path):
    # a UTF-16 byte-order mark and a brace: the decode error is a JSON error
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{")
    with pytest.raises(MeasureValidationError) as exc:
        load_measure(p)
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(f"invalid JSON in {p}: ")
    assert "can't decode byte 0xff" in exc.value.violations[0]


def test_load_measure_reports_nesting_too_deep_to_decode(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(MeasureValidationError) as exc:
        load_measure(p)
    assert exc.value.violations[0].startswith(f"invalid JSON in {p}: maximum recursion depth")
