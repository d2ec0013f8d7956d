"""Optimal transport between vector fields on connection graphs.

The package bundles the pipeline around the regularized Beckmann problem
on connection graphs: operator assembly and consistency analysis
(:mod:`conbeck.graph`), spectral feasibility and switching
(:mod:`conbeck.feasibility`), the dual-ascent transport solver
(:mod:`conbeck.solver`), point-cloud to connection-graph construction
(:mod:`conbeck.manifold`), field utilities, interpolation and clustering
(:mod:`conbeck.toolkit`), HURDAT2 ingestion (:mod:`conbeck.hurdat`) and
file codecs plus the command line front end (:mod:`conbeck.io`,
:mod:`conbeck.cli`).
"""

from .errors import (
    ConbeckError,
    FeasibilityError,
    FormatError,
    InvalidGraphError,
    NonConvergenceError,
)
from .feasibility import (
    KernelBasis,
    feasibility_report,
    feasibility_switching,
    is_feasible,
    kernel_numeric,
    kernel_structured,
    project_feasible,
    require_feasible,
)
from .graph import (
    ConnectionGraph,
    apply_B,
    apply_BT,
    combinatorial_laplacian,
    connection_laplacian,
    fundamental_cycles,
    incidence,
    is_consistent,
    path_product,
    switch,
    validate_graph,
)
from .hurdat import StormTrack, hurdat2_parse, track_to_field
from .manifold import (
    GraphSkeleton,
    epsilon_graph,
    lift_to_ambient,
    procrustes_connection,
    project_to_tangent,
    sample_sphere_patch,
    sample_torus,
    sphere_point,
    tangent_frames,
)
from .solver import (
    SolveOptions,
    SolveReport,
    dual_objective,
    recover_primal,
    solve_regularized,
    stable_learning_rate,
    unregularized_cost,
    wasserstein,
    wasserstein_lp,
)
from .toolkit import (
    ClusterResult,
    RingPartition,
    active_edges,
    distance_matrix,
    edge_rings,
    interpolate_trajectory,
    nodal_support,
    pseudo_dirac,
    spectral_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "ConbeckError",
    "FeasibilityError",
    "FormatError",
    "InvalidGraphError",
    "NonConvergenceError",
    "ConnectionGraph",
    "apply_B",
    "apply_BT",
    "combinatorial_laplacian",
    "connection_laplacian",
    "fundamental_cycles",
    "incidence",
    "is_consistent",
    "path_product",
    "switch",
    "validate_graph",
    "KernelBasis",
    "feasibility_report",
    "feasibility_switching",
    "is_feasible",
    "kernel_numeric",
    "kernel_structured",
    "project_feasible",
    "require_feasible",
    "SolveOptions",
    "SolveReport",
    "dual_objective",
    "recover_primal",
    "solve_regularized",
    "stable_learning_rate",
    "unregularized_cost",
    "wasserstein",
    "wasserstein_lp",
    "GraphSkeleton",
    "epsilon_graph",
    "lift_to_ambient",
    "procrustes_connection",
    "project_to_tangent",
    "sample_sphere_patch",
    "sample_torus",
    "sphere_point",
    "tangent_frames",
    "ClusterResult",
    "RingPartition",
    "active_edges",
    "distance_matrix",
    "edge_rings",
    "interpolate_trajectory",
    "nodal_support",
    "pseudo_dirac",
    "spectral_cluster",
    "StormTrack",
    "hurdat2_parse",
    "track_to_field",
    "__version__",
]
