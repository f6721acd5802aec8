"""Spirallike univalent functions on the unit disk, built from boundary measures.

Construction via the exponential representation over a boundary measure,
the spiral-argument calculus, the spirallike/starlike correspondence, and a
numerical verification suite for boundary traces, maximal spiral sectors,
and maximum-modulus growth exponents.

`import spirallike` loads no submodule: each public name is defined in the
submodule _EXPORTS lists it under, which loads the first time the name is
read from the package (PEP 562), and the package always returns the object
that submodule holds at that moment.  The `spirallike` command loads, besides
cli and errors, only what its subcommand runs: a --measure, koebe or
identity function loads spiral_geometry, boundary_measure, representation
and polylog; the g0 and hansen functions load gallery with threshold,
correspondence, spiral_geometry, representation and polylog, and neither
boundary_measure nor analysis; verify, beta and growth also load analysis;
`qtheta` loads threshold and spiral_geometry only; and the CSV tables of
beta, growth and qtheta load formatting.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BetaTrace",
        "GrowthReport",
        "JumpEstimate",
        "beta_trace",
        "default_r_schedule",
        "detect_maximal_sector",
        "estimate_max_jump",
        "goodman_check",
        "growth_exponent",
        "hansen_ratio",
        "max_modulus",
        "refine_jump",
        "spirallikeness_margin",
    ),
    "boundary_measure": ("BoundaryMeasure", "load_measure"),
    "correspondence": ("spirallike_of", "starlike_of"),
    "errors": (
        "AccuracyError",
        "ConfigError",
        "DomainError",
        "InconsistencyError",
        "MeasureValidationError",
        "ParameterError",
        "SpirallikeError",
    ),
    "gallery": (
        "G0Function",
        "HansenFunction",
        "HansenParams",
        "counterexample_for",
        "g0_correction",
        "hansen_build",
        "koebe_power",
        "lemma_c_margins",
    ),
    "polylog": ("li2", "li3"),
    "representation": ("MeasureFunction", "SpiralFunction"),
    "spiral_geometry": (
        "STARLIKE",
        "SpiralAngle",
        "SpiralSector",
        "arg_lambda",
        "principal_angle",
        "sector_contains",
        "spiral_point",
    ),
    "threshold": ("DEFAULT_C0", "q_function"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached in the package namespace, so that a name rebound in its
    # submodule (a test's monkeypatch, a tracer's wrapper) reads the same here
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
