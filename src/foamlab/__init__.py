"""Planar soap-bubble clusters of fixed combinatorial type.

Circular-arc geometry in half-angle coordinates (bulges in JSON), a
half-edge cluster model with JSON and SVG output, equilibrium residuals and
pressures, an area-constrained solver, tangent-space dimension and
second-variation stability, preset constructions, and the oriented-circle /
de Sitter correspondence.
"""

from .cluster import (
    EXTERIOR,
    Cluster,
    EdgeRecord,
    ValidationReport,
    area_jacobian,
    dumps,
    loads,
    perimeter,
    region_areas,
    to_svg,
    validate,
    validated,
)
from .constructions import (
    decorate,
    double_bubble,
    flower,
    four_bubble,
    mobius_apply_cluster,
    necklace,
    quasi_variant,
    random_mobius,
    scale_three_sided,
    triple_bubble,
    two_lens,
)
from .desitter import (
    CorrespondenceReport,
    junction_triples,
    minkowski_form,
    verify_correspondence,
)
from .equilibrium import (
    ResidualReport,
    Verdict,
    classify,
    pressures,
    residuals,
    solve,
)
from .errors import (
    ClusterFormatError,
    FoamlabError,
    GeometryDomainError,
    NonConvergence,
    NotConcurrent,
    PathInconsistent,
    StructuralError,
    TopologyBreakdown,
)
from .geometry import (
    Arc,
    MobiusMap,
    Point,
    arc_carrier,
    arc_length,
    arc_point,
    arc_tangent,
    arc_through,
    bulge_angle_from_area,
    second_intersection,
    segment_area,
)
from .variation import (
    HessianReport,
    TangentReport,
    continue_family,
    discretize,
    stability_report,
    tangent_dimension,
)

__version__ = "0.1.0"
