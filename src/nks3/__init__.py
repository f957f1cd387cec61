"""Numerical verification toolkit for the homogeneous nearly Kaehler
structure on the product of two 3-spheres and its Hopf hypersurfaces."""

from .errors import DegenerateImmersionError, DomainError, PreconditionError
from .frames import StructureTables, build_tables, get_tables, tables_to_json
from .hypersurfaces import (
    HypersurfacePointData,
    Immersion,
    analyze_point,
    classify_normal_action,
    expected_spectrum,
    make_example,
)
from .isometries import (
    IsometryMap,
    conjugation_twist,
    factor_swap,
    two_sided_translation,
)
from .pointwise import AmbientPoint, TangentVector
from .verify import (
    CheckResult,
    SuiteReport,
    run_hypersurface_suite,
    run_isometry_suite,
    run_structure_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientPoint",
    "CheckResult",
    "DegenerateImmersionError",
    "DomainError",
    "HypersurfacePointData",
    "Immersion",
    "IsometryMap",
    "PreconditionError",
    "StructureTables",
    "SuiteReport",
    "TangentVector",
    "analyze_point",
    "build_tables",
    "classify_normal_action",
    "conjugation_twist",
    "expected_spectrum",
    "factor_swap",
    "get_tables",
    "make_example",
    "run_hypersurface_suite",
    "run_isometry_suite",
    "run_structure_suite",
    "tables_to_json",
    "two_sided_translation",
    "__version__",
]
