"""Every name the package and its modules export resolves, and each
module's ``__all__`` is the one list of its public names.

Moving code out of a module must take its ``__all__`` entry along; a stale
entry would only fail at ``from module import *`` time.  The package
re-exports the modules' lists, so a name missing from them is missing from
``conbeck`` too.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import conbeck

MODULES = ["conbeck"] + [
    f"conbeck.{info.name}" for info in pkgutil.iter_modules(conbeck.__path__)
    if info.name != "__main__"  # importing it runs the command
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from conbeck import *", namespace)
    assert set(conbeck.__all__) <= namespace.keys()


#: Modules whose public functions and classes must all be in ``__all__``.
LISTED_MODULES = ["errors", "graph", "feasibility", "solver", "manifold", "toolkit", "hurdat", "io"]


@pytest.mark.parametrize("name", LISTED_MODULES)
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(f"conbeck.{name}")
    defined = [
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [attr for attr in defined if attr not in module.__all__] == []


#: Every name the package exported before it re-exported the modules' lists.
PACKAGE_NAMES = """
    ConbeckError FeasibilityError FormatError InvalidGraphError NonConvergenceError
    ConnectionGraph apply_B apply_BT connection_laplacian
    fundamental_cycles incidence is_consistent switch validate_graph
    KernelBasis feasibility_report feasibility_switching is_feasible kernel_numeric
    kernel_structured project_feasible require_feasible
    SolveOptions SolveReport dual_objective recover_primal solve_regularized
    stable_learning_rate unregularized_cost wasserstein wasserstein_lp
    GraphSkeleton epsilon_graph lift_to_ambient procrustes_connection project_to_tangent
    sample_sphere_patch sample_torus sphere_point tangent_frames
    ClusterResult RingPartition active_edges distance_matrix edge_rings
    interpolate_trajectory nodal_support pseudo_dirac spectral_cluster
    StormTrack hurdat2_parse track_to_field __version__
""".split()


def test_package_keeps_every_name():
    assert len(set(PACKAGE_NAMES)) == 53
    assert set(PACKAGE_NAMES) <= set(conbeck.__all__)


#: Test oracles that live in ``tests/oracles.py``, by the module that once
#: shipped them.
ORACLES = {
    "graph": ["bfs_tree", "combinatorial_laplacian", "path_product"],
    "io": ["field_to_dict", "flow_to_dict", "frames_to_dict", "tau_to_dict", "trajectory_to_dict"],
}

#: Parameters that are module constants instead, by function.
FIXED_PARAMETERS = {
    ("manifold", "tangent_frames"): ["kernel_scale"],
    ("manifold", "sample_torus"): ["major_radius", "minor_radius"],
    ("solver", "dual_feasible_unregularized"): ["tol"],
    ("toolkit", "nodal_support"): ["threshold"],
}


def test_oracles_and_fixed_parameters_are_not_shipped():
    for name, oracles in ORACLES.items():
        module = importlib.import_module(f"conbeck.{name}")
        assert [n for n in oracles if hasattr(module, n)] == []
    for (name, func), params in FIXED_PARAMETERS.items():
        signature = inspect.signature(getattr(importlib.import_module(f"conbeck.{name}"), func))
        assert set(params).isdisjoint(signature.parameters)
    from conbeck import manifold, toolkit

    assert manifold.TORUS_RADII == (5.0, 1.0)
    assert toolkit.SUPPORT_TOL == 1e-9


def test_the_spanning_tree_has_one_surface():
    # feasibility_switching is the one name for the tree products, and
    # sigma_between is an oracle in tests/oracles.py
    from conbeck import graph

    assert not hasattr(graph, "tree_products")
    assert not hasattr(graph.ConnectionGraph, "sigma_between")
