"""Exact-arithmetic toolkit for embedded tropical curves.

Validates balanced weighted polyhedral curves in R^n, prepares them against a
complete fan (subdivision and integral rescaling), computes deformation cones
and detects superabundance, checks genus-1 well-spacedness, and emits the
combinatorial certificate of the induced map to the fan's torus quotient.
"""

__version__ = "0.1.0"

from .curves import (
    BalanceReport,
    BoundedEdge,
    CompactifiedCurve,
    CurveRay,
    Star,
    TropicalCurve,
    compactify,
    edge_data,
    genus,
    is_balanced,
    recession_fan,
    star,
    validate,
)
from .defspace import (
    CombinatorialType,
    DeformationCone,
    SuperabundanceVerdict,
    combinatorial_type,
    deformation_cone,
    expected_dimension,
    is_superabundant,
    superabundance,
)
from .degeneration import (
    DualCurve,
    NodeMonoid,
    RealizationCertificate,
    certify,
    dual_curve,
    node_monoid,
    node_slope,
    verify_certificate,
)
from .errors import TropicError, SchemaError, ValidationReport
from .latticefan import (
    Cone,
    Fan,
    cone_contains,
    fan_validate,
    primitive,
    smallest_containing_cone,
)
from .refine import (
    SubdivisionRecord,
    check_recession_support,
    rescale_integral,
    subdivide_along_fan,
)
from .wellspaced import CycleData, WellSpacedVerdict, cycle, well_spaced
