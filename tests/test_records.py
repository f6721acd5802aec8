"""The six public record types: constructors, equality, hashing, repr and immutability.

SpiralAngle, SpiralSector, BoundaryMeasure, HansenParams, BetaTrace and
GrowthReport are frozen records over their annotated fields.  Each case
below builds one fixed instance positionally and by keyword, and pins the
repr text the frozen-dataclass form of these types printed, so the record
mechanism can change without changing what users see.
"""

import math

import numpy as np
import pytest

from spirallike import (
    BetaTrace,
    BoundaryMeasure,
    DomainError,
    GrowthReport,
    HansenParams,
    MeasureValidationError,
    ParameterError,
    SpiralAngle,
    SpiralSector,
)

_T = np.array([0.0, 1.0])
_BETA = np.array([0.5, 2.5])

# cls, field values in order, the repr of cls(*values), the changed field
# values a different instance takes, a call whose validation fails with
# (error, message), and whether instances hash
CASES = {
    "SpiralAngle": (
        SpiralAngle, (0.5,), "SpiralAngle(lam=0.5)", (0.25,),
        (lambda: SpiralAngle(2.0), DomainError,
         "inclination must lie in (-pi/2, pi/2), got 2.0"),
        True,
    ),
    "SpiralSector": (
        SpiralSector, (0.0, math.pi, SpiralAngle(0.7)),
        "SpiralSector(center_angle=0.0, opening=3.141592653589793, angle=SpiralAngle(lam=0.7))",
        (0.0, math.pi, SpiralAngle(0.6)),
        (lambda: SpiralSector(0.0, 7.0, SpiralAngle(0.7)), DomainError,
         "sector opening must lie in (0, 2*pi], got 7.0"),
        True,
    ),
    "BoundaryMeasure": (
        BoundaryMeasure, (((0, 3),), ((1, 2),)),
        "BoundaryMeasure(atoms=((0.0, 3.0),), density_knots=((1.0, 2.0),))",
        (((0, 3),), ()),
        (lambda: BoundaryMeasure(atoms=5), MeasureValidationError,
         "atoms: expected pairs of real numbers, got 5"),
        True,
    ),
    "HansenParams": (
        HansenParams, (1, 0.5, 0.3), "HansenParams(alpha=1.0, beta_exp=0.5, c=0.3)",
        (1, 0.5, 0.2),
        (lambda: HansenParams("a", 0.5, 0.3), ParameterError,
         "alpha must be a real number, got 'a'"),
        True,
    ),
    "BetaTrace": (
        BetaTrace, (_T, _BETA, 0.999, ((0.99, math.nan), (0.999, 1e-3))),
        "BetaTrace(t_samples=array([0., 1.]), beta_values=array([0.5, 2.5]), "
        "radius_used=0.999, refinement_record=((0.99, nan), (0.999, 0.001)))",
        (_T, _BETA, 0.99, ()),
        None,
        False,  # its arrays do not hash
    ),
    "GrowthReport": (
        GrowthReport, (((0.99, 10.0, 0.5),), 0.5, math.pi),
        "GrowthReport(rows=((0.99, 10.0, 0.5),), predicted_q0=0.5, a_estimate=3.141592653589793)",
        (((0.99, 10.0, 0.5),), 0.5, 2.0),
        None,
        True,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_behaviour(name):
    cls, values, text, other, invalid, hashable = CASES[name]
    fields = cls.__match_args__
    assert len(fields) == len(values)
    x = cls(*values)
    y = cls(**dict(zip(fields, values)))
    assert repr(x) == repr(y) == text
    assert tuple(getattr(x, f) for f in fields) == tuple(getattr(y, f) for f in fields)
    # equality over the field tuple, and only with the same type
    assert x == y and not x != y
    assert x != cls(*other)
    assert x != values and x.__eq__(values) is NotImplemented
    if hashable:
        assert hash(x) == hash(y)
    else:
        with pytest.raises(TypeError):
            hash(x)
    # frozen: no field, and no new attribute, can be set or deleted
    for attr in (fields[0], "no_such_field"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(x, attr, values[0])
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(x, attr)
    assert repr(x) == text
    if invalid is not None:
        build, error, message = invalid
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message
    # argument errors are TypeErrors, as for any Python call
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})


def test_boundary_measure_fields_default_to_empty_tables():
    # the one record with defaults: both tables default to (), and a field
    # given by keyword keeps the other's default
    assert BoundaryMeasure() == BoundaryMeasure((), ())
    assert BoundaryMeasure(density_knots=((0.0, 1.0),)) == BoundaryMeasure((), ((0.0, 1.0),))
    assert BoundaryMeasure(density_knots=((0.0, 1.0),)).require_valid() is None
    with pytest.raises(TypeError, match="missing .*'lam'"):
        SpiralAngle()
    with pytest.raises(TypeError, match="missing .*'opening'.*'angle'"):
        SpiralSector(0.0)


@pytest.mark.parametrize("center, opening", [(0, 1), (np.float64(0.0), np.float64(1.0))],
                         ids=["int", "np.float64"])
def test_spiral_sector_stores_float_angles(center, opening):
    # as SpiralAngle and HansenParams do, whatever real type the angles came in
    sector = SpiralSector(center, opening, SpiralAngle(0.0))
    assert type(sector.center_angle) is float and type(sector.opening) is float
    assert repr(sector) == (
        "SpiralSector(center_angle=0.0, opening=1.0, angle=SpiralAngle(lam=0.0))"
    )
    assert sector == SpiralSector(0.0, 1.0, SpiralAngle(0.0))
