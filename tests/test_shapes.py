"""One shape rule for every array on a graph.

A vertex field or potential has shape (n, d), an edge flow (m, d); the
flat (n d,) and (m d,) forms are the same arrays.  Any other shape, a
transposed one included, raises :class:`InvalidGraphError` naming the
argument and the shape it should have.  The graphs keep n, m and d apart,
so a transposed array never has the expected shape.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from conbeck.errors import InvalidGraphError
from conbeck.feasibility import KernelBasis, is_feasible, project_feasible
from conbeck.graph import ConnectionGraph, apply_B, apply_BT, switch
from conbeck.solver import (
    SolveOptions,
    dual_gradient,
    dual_objective,
    primal_cost,
    recover_primal,
    solve_regularized,
    unregularized_cost,
    wasserstein,
    wasserstein_lp,
)
from conbeck.toolkit import (
    active_edges,
    distance_matrix,
    edge_rings,
    interpolate_trajectory,
    nodal_support,
    pseudo_dirac,
)

from conftest import make_path_graph, random_connected_graph

OPTS = SolveOptions(lam=1.0, max_epochs=50)


@pytest.fixture(scope="module")
def problem():
    """A d = 3 graph with n = 7 and its arrays, and a d = 1 path of 5 vertices
    with a feasible pair for the LP."""
    rng = np.random.default_rng(44)
    g = random_connected_graph(rng, n=7, d=3, extra_edges=4)
    flow = rng.standard_normal((g.m, 3))
    alpha = apply_B(g, flow)
    arrays = {
        "alpha": alpha,
        "beta": np.zeros((g.n, 3)),
        "phi": 0.1 * rng.standard_normal((g.n, 3)),
        "flow": flow,
    }
    path = make_path_graph(5, 1)
    pair = {"alpha": pseudo_dirac(5, 1, 0, 0), "beta": pseudo_dirac(5, 1, 4, 0)}
    rings = edge_rings(g, nodal_support(alpha))
    return {"g": g, "path": path, "arrays": arrays, "pair": pair, "rings": rings}


#: Each call: the graph it runs on, the function of that graph, the
#: arrays and the rings, and the arguments as (array key, name in the
#: error, rows: "n" for vertex arrays, "m" for edge arrays).
CALLS = {
    "solve_regularized": (
        "g",
        lambda g, a, _: solve_regularized(g, a["alpha"], a["beta"], OPTS),
        [("alpha", "alpha", "n"), ("beta", "beta", "n")],
    ),
    "wasserstein": (
        "g",
        lambda g, a, _: wasserstein(g, a["alpha"], a["beta"], OPTS),
        [("alpha", "alpha", "n"), ("beta", "beta", "n")],
    ),
    "is_feasible": (
        "g",
        lambda g, a, _: is_feasible(g, a["alpha"], a["beta"]),
        [("alpha", "alpha", "n"), ("beta", "beta", "n")],
    ),
    "distance_matrix": (
        "g",
        lambda g, a, _: distance_matrix(
            g, [a["alpha"], a["beta"]], OPTS, require_convergence=False
        ),
        [("alpha", "field 0", "n"), ("beta", "field 1", "n")],
    ),
    "project_feasible": (
        "g",
        lambda g, a, _: project_feasible(g, a["alpha"]),
        [("alpha", "field", "n")],
    ),
    "interpolate_trajectory": (
        "g",
        lambda g, a, rings: interpolate_trajectory(g, a["alpha"], a["flow"], rings, 3),
        [("alpha", "alpha", "n"), ("flow", "flow", "m")],
    ),
    "wasserstein_lp": (
        "path",
        lambda g, a, _: wasserstein_lp(g, a["alpha"], a["beta"]),
        [("alpha", "alpha", "n"), ("beta", "beta", "n")],
    ),
    "dual_objective": (
        "g",
        lambda g, a, _: dual_objective(g, a["phi"], a["alpha"], 1.0),
        [("phi", "phi", "n"), ("alpha", "c", "n")],
    ),
    "dual_gradient": (
        "g",
        lambda g, a, _: dual_gradient(g, a["phi"], a["alpha"], 1.0),
        [("phi", "phi", "n"), ("alpha", "c", "n")],
    ),
    "recover_primal": (
        "g",
        lambda g, a, _: recover_primal(g, a["phi"], 1.0),
        [("phi", "phi", "n")],
    ),
    "primal_cost": (
        "g",
        lambda g, a, _: primal_cost(g, a["flow"], 1.0),
        [("flow", "flow", "m")],
    ),
    "unregularized_cost": (
        "g",
        lambda g, a, _: unregularized_cost(g, a["flow"]),
        [("flow", "flow", "m")],
    ),
    "apply_B": ("g", lambda g, a, _: apply_B(g, a["flow"]), [("flow", "flow", "m")]),
    "apply_BT": ("g", lambda g, a, _: apply_BT(g, a["phi"]), [("phi", "phi", "n")]),
}

MISSHAPES = {
    "transposed": lambda x: x.T,
    "one row more": lambda x: np.vstack([x, x[:1]]),
}


def _graph_and_arrays(problem, call):
    graph = CALLS[call][0]
    return problem[graph], problem["pair"] if graph == "path" else problem["arrays"]


def _run(problem, call, **replaced):
    g, arrays = _graph_and_arrays(problem, call)
    return CALLS[call][1](g, {**arrays, **replaced}, problem["rings"])


def _cases():
    for call, (_, _, args) in CALLS.items():
        for key, name, rows in args:
            for how in MISSHAPES:
                yield pytest.param(call, key, name, rows, how, id=f"{call}-{name}-{how}")


@pytest.mark.parametrize("call, key, name, rows, how", _cases())
def test_misshaped_array_is_refused_naming_it(problem, call, key, name, rows, how):
    g, arrays = _graph_and_arrays(problem, call)
    bad = MISSHAPES[how](arrays[key])
    expected = f"{name} has shape {bad.shape}; expected {(getattr(g, rows), g.d)}"
    with pytest.raises(InvalidGraphError, match=f"^{re.escape(expected)}$"):
        _run(problem, call, **{key: bad})


@pytest.mark.parametrize("how", sorted(MISSHAPES))
def test_misshaped_stack_is_refused_naming_its_first_field(problem, how):
    alpha = problem["arrays"]["alpha"]
    bad = np.stack([MISSHAPES[how](alpha), MISSHAPES[how](2 * alpha)])
    expected = f"field 0 has shape {bad.shape[1:]}; expected (7, 3)"
    with pytest.raises(InvalidGraphError, match=f"^{re.escape(expected)}$"):
        project_feasible(problem["g"], bad)


def _bits(out):
    """The bytes of every number in a call's result, in order."""
    if dataclasses.is_dataclass(out):
        return _bits(list(dataclasses.asdict(out).values()))
    if isinstance(out, (tuple, list)):
        return [_bits(item) for item in out]
    return np.asarray(out, dtype=float).tobytes()


@pytest.mark.parametrize("call", sorted(CALLS))
def test_flat_arrays_give_the_same_bits(problem, call):
    _, arrays = _graph_and_arrays(problem, call)
    flat = {key: arrays[key].reshape(-1) for key, _, _ in CALLS[call][2]}
    assert _bits(_run(problem, call, **flat)) == _bits(_run(problem, call))


def test_negative_steps_are_refused(problem):
    # the docstring promises steps + 1 fields, and steps = -2 returned none
    g, arrays, rings = problem["g"], problem["arrays"], problem["rings"]
    with pytest.raises(InvalidGraphError, match="^steps must be at least 0, got -2$"):
        interpolate_trajectory(g, arrays["alpha"], arrays["flow"], rings, -2)
    assert len(interpolate_trajectory(g, arrays["alpha"], arrays["flow"], rings, 0)) == 1


@pytest.mark.parametrize("shape", [(6,), (2, 3, 1), ()])
def test_graphless_helpers_refuse_an_array_that_is_not_two_dimensional(shape):
    # they take no graph, so a flat array cannot be shaped
    bad = np.ones(shape)
    for call, name, rows in ((nodal_support, "field", "n"), (active_edges, "flow", "m")):
        expected = f"{name} has shape {shape}; expected a 2-D ({rows}, d) array"
        with pytest.raises(InvalidGraphError, match=f"^{re.escape(expected)}$"):
            call(bad)


def test_kernel_inner_products_take_the_basis_shape_or_its_flat_form():
    rng = np.random.default_rng(45)
    basis = KernelBasis(rng.standard_normal((2, 4, 3)), 1e-8)
    field = rng.standard_normal((4, 3))
    ips = basis.inner_products(field)
    assert ips.tobytes() == basis.inner_products(field.reshape(-1)).tobytes()
    for bad in (field.T, field[:3], field.reshape(-1)[:-1], field[None]):
        expected = f"field has shape {bad.shape}; expected (4, 3)"
        with pytest.raises(InvalidGraphError, match=f"^{re.escape(expected)}$"):
            basis.inner_products(bad)


#: Each mis-sized graph input: how to build it from the problem, and the error.
MISSIZED_GRAPHS = {
    "sigmas of another d": (
        lambda p: ConnectionGraph(3, 2, [[0, 1]], [1.0], np.eye(3)),
        "sigmas has shape (3, 3); expected (m, 2, 2)",
    ),
    "transposed edge_index": (
        lambda p: ConnectionGraph(
            4, 1, np.array([[0, 1], [1, 2], [2, 3]]).T, [1, 1, 1], np.ones((3, 1, 1))
        ),
        "edge_index has shape (2, 3); expected (m, 2)",
    ),
    "sigmas stacked on the last axis": (
        lambda p: ConnectionGraph(
            4, 2, [[0, 1], [1, 2], [2, 3]], [1, 1, 1], np.stack([np.eye(2)] * 3, axis=-1)
        ),
        "sigmas has shape (2, 2, 3); expected (m, 2, 2)",
    ),
    "odd-length edge_index": (
        lambda p: ConnectionGraph(3, 1, [0, 1, 2], [1.0], np.ones((1, 1, 1))),
        "edge_index has shape (3,); expected (m, 2)",
    ),
    "d = 0": (
        lambda p: ConnectionGraph(3, 0, [[0, 1]], [1.0], np.zeros((1, 0, 0))),
        "need n >= 1 and d >= 1",
    ),
    "n = 0": (
        lambda p: ConnectionGraph(0, 1, np.zeros((0, 2)), [], np.zeros((0, 1, 1))),
        "need n >= 1 and d >= 1",
    ),
    "tau one vertex short": (
        lambda p: switch(p["g"], np.tile(np.eye(3), (6, 1, 1))),
        "tau has shape (6, 3, 3); expected (7, 3, 3)",
    ),
    "tau of another d": (
        lambda p: switch(p["g"], np.tile(np.eye(2), (7, 1, 1))),
        "tau has shape (7, 2, 2); expected (7, 3, 3)",
    ),
}


@pytest.mark.parametrize("case", sorted(MISSIZED_GRAPHS))
def test_missized_graph_input_is_refused_before_any_reshape(problem, case):
    # NumPy's reshape raised its own ValueError for each of these
    build, expected = MISSIZED_GRAPHS[case]
    with pytest.raises(InvalidGraphError, match=f"^{re.escape(expected)}$"):
        build(problem)
