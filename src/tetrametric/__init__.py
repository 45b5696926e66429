"""Size measures of tetrahedron surfaces.

Computes the four fundamental metric invariants of the boundary surface of
a tetrahedron — geodesic diameter and radius (surface shortest-path
metric) and chord diameter and radius (ambient Euclidean metric) — through
exact unfolding-based geodesics, star unfoldings, and cut-locus
construction, and verifies the full family of sharp inequalities relating
them.
"""

from .errors import (TetraError, DegenerateInput, Collinear, NotAcute,
                     SearchExhausted, AmbiguousCut, GenerationFailed)
from .geometry import (FACES, EDGES, DEFAULT_CFG, ToleranceConfig,
                       SurfacePoint, Tetrahedron, Triangle2,
                       vertex_point, edge_point, face_point,
                       validate_tetrahedron, triangle_is_acute,
                       circumcenter, longest_side,
                       tetrahedron_to_json, tetrahedron_from_json,
                       surface_point_to_json, surface_point_from_json)
from .generators import (GeneratorSpec, generate, instance_stream,
                         make_regular, make_isosceles, make_eps_thick,
                         make_normal_eps_thick, random_tetrahedron,
                         normalize, shape_distance, spec_to_json,
                         spec_from_json)
from .geodesics import (GeodesicPath, geodesic_distance,
                        all_geodesic_segments)
from .intrinsic import (CutPath, StarUnfolding, CutNode, CutArc, CutLocus,
                        AntipodeSet, star_unfold, cut_locus,
                        intrinsic_radius_at, DiameterResult,
                        intrinsic_diameter, RadiusProbes, RadiusResult,
                        intrinsic_radius)
from .extrinsic import (FarthestSet, ChordDiameter, ChordRadius,
                        extrinsic_diameter, extrinsic_radius_at,
                        extrinsic_radius)
from .report import (MetricReport, ViolationRecord, CampaignResult,
                     RefinementResult, RATIO_KEYS, BOUNDS, CSV_COLUMNS,
                     compute_report, report_margins, check_inequalities,
                     campaign, refine_min_ratio, canonical_json)
from .svg import export_unfolding

__version__ = "0.1.0"

__all__ = [
    "TetraError", "DegenerateInput", "Collinear", "NotAcute",
    "SearchExhausted", "AmbiguousCut", "GenerationFailed",
    "FACES", "EDGES", "DEFAULT_CFG", "ToleranceConfig", "SurfacePoint",
    "Tetrahedron", "Triangle2", "vertex_point", "edge_point", "face_point",
    "validate_tetrahedron", "triangle_is_acute", "circumcenter",
    "longest_side", "tetrahedron_to_json",
    "tetrahedron_from_json", "surface_point_to_json",
    "surface_point_from_json",
    "GeneratorSpec", "generate", "instance_stream", "make_regular",
    "make_isosceles", "make_eps_thick", "make_normal_eps_thick",
    "random_tetrahedron", "normalize", "shape_distance", "spec_to_json",
    "spec_from_json",
    "GeodesicPath", "geodesic_distance", "all_geodesic_segments",
    "CutPath", "StarUnfolding", "CutNode", "CutArc", "CutLocus",
    "AntipodeSet", "star_unfold", "cut_locus",
    "intrinsic_radius_at", "DiameterResult",
    "intrinsic_diameter", "RadiusProbes", "RadiusResult",
    "intrinsic_radius",
    "FarthestSet", "ChordDiameter", "ChordRadius", "extrinsic_diameter",
    "extrinsic_radius_at", "extrinsic_radius",
    "MetricReport", "ViolationRecord", "CampaignResult", "RefinementResult",
    "CSV_COLUMNS",
    "RATIO_KEYS", "BOUNDS", "compute_report", "report_margins",
    "check_inequalities", "campaign", "refine_min_ratio", "canonical_json",
    "export_unfolding",
    "__version__",
]
