"""Spirallike univalent functions on the unit disk, built from boundary measures.

Construction via the exponential representation over a boundary measure,
the spiral-argument calculus, the spirallike/starlike correspondence, and a
numerical verification suite for boundary traces, maximal spiral sectors,
and maximum-modulus growth exponents.
"""

from .analysis import (
    BetaTrace,
    GrowthReport,
    JumpEstimate,
    beta_trace,
    default_r_schedule,
    detect_maximal_sector,
    estimate_max_jump,
    goodman_check,
    growth_exponent,
    hansen_ratio,
    max_modulus,
    refine_jump,
    section_search_max,
    spirallikeness_margin,
)
from .boundary_measure import BoundaryMeasure, load_measure
from .correspondence import spirallike_of, starlike_of
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    InconsistencyError,
    MeasureValidationError,
    ParameterError,
    SpirallikeError,
)
from .gallery import (
    DEFAULT_C0,
    G0Function,
    HansenFunction,
    HansenParams,
    c0_constant,
    counterexample_for,
    g0_correction,
    g0_log_derivative,
    hansen_build,
    koebe_power,
    lemma_c_margins,
    q_function,
)
from .polylog import li2, li3
from .representation import MeasureFunction, SpiralFunction
from .spiral_geometry import (
    STARLIKE,
    SpiralAngle,
    SpiralSector,
    arg_lambda,
    principal_angle,
    sector_contains,
    spiral_point,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BetaTrace",
    "BoundaryMeasure",
    "ConfigError",
    "DEFAULT_C0",
    "DomainError",
    "G0Function",
    "GrowthReport",
    "HansenFunction",
    "HansenParams",
    "InconsistencyError",
    "JumpEstimate",
    "MeasureFunction",
    "MeasureValidationError",
    "ParameterError",
    "STARLIKE",
    "SpiralAngle",
    "SpiralFunction",
    "SpiralSector",
    "SpirallikeError",
    "arg_lambda",
    "beta_trace",
    "c0_constant",
    "counterexample_for",
    "default_r_schedule",
    "detect_maximal_sector",
    "estimate_max_jump",
    "g0_correction",
    "g0_log_derivative",
    "goodman_check",
    "growth_exponent",
    "hansen_build",
    "hansen_ratio",
    "koebe_power",
    "lemma_c_margins",
    "li2",
    "li3",
    "load_measure",
    "max_modulus",
    "principal_angle",
    "q_function",
    "refine_jump",
    "section_search_max",
    "sector_contains",
    "spiral_point",
    "spirallike_of",
    "spirallikeness_margin",
    "starlike_of",
]
