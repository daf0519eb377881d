"""Exact-arithmetic verification of discrete complexes on periodic 2D meshes.

Builds triangular and Cartesian torus meshes, assembles the discrete
differential operators of several piecewise-polynomial diagrams as exact
rational matrices, and machine-checks their rank, kernel, direct-sum and
decomposition claims.  ``derham.cli`` exposes the same checks as a command
line tool.
"""

from .complexcheck import (
    DIAGRAMS,
    NAIVE_DIAGRAM,
    DiagramInstance,
    DiagramSpec,
    appendix_report,
    audit_report,
    build_diagram,
    dof_comparison,
    naive_quad_report,
    verify_diagram,
)
from .exactla import (
    ExactSolveError,
    ExactWidthExceeded,
    RankResult,
    exact_rank,
    float_rank,
    rank_nullspace,
    span_compare,
)
from .fespace import (
    CodomainSpace,
    ContinuousScalarSpace,
    DGVectorSpace,
    SpanError,
    audit_dimensions,
    dimension_formula,
    local_dim,
)
from .hodge import (
    FloatHodgeSplitter,
    HodgeParts,
    HodgeSplitter,
    hodge_report,
    load_field,
    random_field,
    save_field,
)
from .mesh import Mesh, MeshKind, build_mesh, entity_counts
from .operators import (
    GramMatrix,
    MembershipError,
    adjoint,
    assemble_curl_distributional,
    assemble_div_distributional,
    assemble_grad,
    assemble_grad_perp,
    assemble_gram,
)
from .poly import AffineMap, EdgePoly, Poly, RefCell, VecPoly
from .refcheck import (
    boundary_curl_map,
    bubble_basis,
    decompose_divfree,
    random_divfree,
    refcheck_report,
    uniqueness_probe,
)
from .report import CheckItem, Report
from .sparse import OpMatrix, load_matrix

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "CheckItem",
    "CodomainSpace",
    "ContinuousScalarSpace",
    "DGVectorSpace",
    "DIAGRAMS",
    "DiagramInstance",
    "DiagramSpec",
    "EdgePoly",
    "ExactSolveError",
    "ExactWidthExceeded",
    "FloatHodgeSplitter",
    "GramMatrix",
    "HodgeParts",
    "HodgeSplitter",
    "MembershipError",
    "Mesh",
    "MeshKind",
    "NAIVE_DIAGRAM",
    "OpMatrix",
    "Poly",
    "RankResult",
    "RefCell",
    "Report",
    "SpanError",
    "VecPoly",
    "adjoint",
    "appendix_report",
    "assemble_curl_distributional",
    "assemble_div_distributional",
    "assemble_grad",
    "assemble_grad_perp",
    "assemble_gram",
    "audit_dimensions",
    "audit_report",
    "boundary_curl_map",
    "bubble_basis",
    "build_diagram",
    "build_mesh",
    "decompose_divfree",
    "dimension_formula",
    "dof_comparison",
    "entity_counts",
    "exact_rank",
    "float_rank",
    "hodge_report",
    "load_field",
    "load_matrix",
    "local_dim",
    "naive_quad_report",
    "random_divfree",
    "random_field",
    "rank_nullspace",
    "refcheck_report",
    "save_field",
    "span_compare",
    "uniqueness_probe",
    "verify_diagram",
    "__version__",
]
