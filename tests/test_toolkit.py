"""Field toolkit: pseudo-Diracs, rings, interpolation, distances, clustering."""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from conbeck import feasibility, toolkit
from conbeck.errors import InvalidGraphError, NonConvergenceError
from conbeck.graph import ConnectionGraph, apply_B
from conbeck.solver import SolveOptions, solve_regularized, stable_learning_rate
from conbeck.toolkit import (
    active_edges,
    distance_matrix,
    edge_rings,
    interpolate_trajectory,
    nodal_support,
    pseudo_dirac,
    spectral_cluster,
)

from conftest import make_grid_graph, make_path_graph, queue_bfs, random_connected_graph


# --------------------------------------------------------------- pseudo dirac


def test_pseudo_dirac_structure():
    field = pseudo_dirac(5, 3, node=2, channel=1)
    assert field.shape == (5, 3)
    assert field[2, 1] == 1.0
    assert np.abs(field[:, 1]).sum() == 1.0  # indicator channel
    assert np.abs(field[:, 0] - 0.2).max() == 0.0
    assert np.abs(field.sum(axis=0) - 1.0).max() <= 1e-15


def test_pseudo_dirac_d1_is_plain_dirac():
    field = pseudo_dirac(4, 1, node=3, channel=0)
    assert field.reshape(-1).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_pseudo_dirac_bounds_checked():
    with pytest.raises(InvalidGraphError):
        pseudo_dirac(4, 2, node=4, channel=0)
    with pytest.raises(InvalidGraphError):
        pseudo_dirac(4, 2, node=0, channel=2)


# -------------------------------------------------------------------- support


def test_nodal_support_threshold():
    field = np.array([[1.0, 0.0], [1e-12, 0.0], [0.0, -0.5], [0.0, 0.0]])
    assert nodal_support(field).tolist() == [0, 2]
    tol = toolkit.SUPPORT_TOL  # kept only when strictly exceeded
    assert nodal_support([[tol, 0.0], [2 * tol, 0.0]]).tolist() == [1]


# ---------------------------------------------------------------------- rings


def test_edge_rings_path_from_endpoint():
    g = make_path_graph(4, 1)
    rings = edge_rings(g, [0])
    assert rings.vertex_distance.tolist() == [0, 1, 2, 3]
    assert rings.edge_ring.tolist() == [0, 1, 2]
    assert rings.disk(0).tolist() == [False, False, False]
    assert rings.disk(1).tolist() == [True, False, False]
    assert rings.disk(4).all()


def test_edge_rings_full_support_all_zero():
    g = make_path_graph(4, 2)
    rings = edge_rings(g, range(4))
    assert rings.edge_ring.tolist() == [0, 0, 0]
    assert rings.max_ring == 0


@pytest.mark.parametrize("seed", range(4))
def test_edge_rings_match_queue_bfs(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n=25, d=1, extra_edges=10)
    support = rng.choice(g.n, size=3, replace=False)
    support = [support[0], support[1], support[0], support[2]]  # one repeated
    _, _, hops = queue_bfs(g, support)
    rings = edge_rings(g, support)
    assert rings.vertex_distance.tolist() == hops
    i, j = g.edge_index.T
    expected = np.minimum(np.array(hops)[i], np.array(hops)[j])
    assert rings.edge_ring.tolist() == expected.tolist()


def test_edge_rings_empty_support_rejected():
    g = make_path_graph(3, 1)
    with pytest.raises(InvalidGraphError):
        edge_rings(g, [])


def test_edge_rings_multi_source():
    g = make_path_graph(5, 1)
    rings = edge_rings(g, [0, 4])
    assert rings.vertex_distance.tolist() == [0, 1, 2, 1, 0]
    assert rings.edge_ring.tolist() == [0, 1, 1, 0]


# -------------------------------------------------------------- interpolation


def test_interpolation_endpoints_path():
    g = make_path_graph(4, 1)
    alpha = np.array([[1.0], [0.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [0.0], [1.0]])
    opts = SolveOptions(lam=1.0, grad_tol=1e-11, max_epochs=100000)
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.converged
    rings = edge_rings(g, nodal_support(alpha))
    steps = 4  # hop diameter 3 plus one
    traj = interpolate_trajectory(g, alpha, flow, rings, steps)
    assert len(traj) == 5
    assert np.abs(traj[0] - alpha).max() == 0.0
    assert np.abs(traj[-1] - beta).max() <= 1e-9
    # intermediate states keep total mass (trivial connection)
    for state in traj:
        assert state.sum() == pytest.approx(1.0, abs=1e-9)


def test_interpolation_partial_disks_move_mass_outward():
    g = make_path_graph(4, 1)
    alpha = np.array([[1.0], [0.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [0.0], [1.0]])
    flow, _, _ = solve_regularized(
        g, alpha, beta, SolveOptions(lam=1.0, grad_tol=1e-11, max_epochs=100000)
    )
    rings = edge_rings(g, [0])
    traj = interpolate_trajectory(g, alpha, flow, rings, 4)
    # after one step the mass at vertex 0 moved across the first edge
    assert traj[1][0, 0] == pytest.approx(0.0, abs=1e-9)
    assert traj[1][1, 0] == pytest.approx(1.0, abs=1e-9)


def test_interpolation_respects_given_flow_support():
    g = make_path_graph(3, 2)
    alpha = np.zeros((3, 2))
    flow = np.zeros((2, 2))
    rings = edge_rings(g, [1])
    traj = interpolate_trajectory(g, alpha, flow, rings, 2)
    for state in traj:
        assert np.abs(state).max() == 0.0


# --------------------------------------------------------------- active edges


def test_active_edges_zero_flow_empty():
    assert active_edges(np.zeros((5, 2))).size == 0


def test_active_edges_diamond(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    flow, _, _ = solve_regularized(g, alpha, beta, SolveOptions(lam=1.0))
    idx = active_edges(flow, delta=0.5)
    assert idx.tolist() == [0, 2]  # the two 0.75 edges: (0,1) and (1,3)
    assert active_edges(flow, delta=0.0).tolist() == [0, 1, 2, 3]


def test_active_edges_nesting():
    rng = np.random.default_rng(60)
    flow = rng.standard_normal((20, 3))
    a1 = set(active_edges(flow, 0.2).tolist())
    a2 = set(active_edges(flow, 0.7).tolist())
    assert a2 <= a1


# ------------------------------------------------------------ distance matrix


def test_distance_matrix_basic_properties(sign_path):
    fields = [
        np.array([[1.0], [0.0], [0.0]]),
        np.array([[0.0], [1.0], [0.0]]),
        np.array([[0.0], [0.0], [-1.0]]),
        np.array([[0.0], [0.0], [1.0]]),  # infeasible against the others
    ]
    opts = SolveOptions(lam=1.0, max_epochs=50000)
    dist = distance_matrix(sign_path, fields, opts)
    assert dist.shape == (4, 4)
    assert np.all(np.diag(dist) == 0.0)
    assert np.array_equal(dist, dist.T)  # inf entries compare equal
    assert np.isinf(dist[0, 3]) and np.isinf(dist[1, 3]) and np.isinf(dist[2, 3])
    finite = dist[:3, :3]
    assert np.isfinite(finite).all()
    assert finite[0, 1] > 0 and finite[0, 2] > 0


def test_distance_matrix_identical_fields_zero(diamond):
    f = np.array([[0.4], [0.1], [0.3], [0.2]])
    dist = distance_matrix(diamond, [f, f.copy()])
    assert dist[0, 1] <= 1e-6


def test_distance_matrix_parallel_matches_serial(sign_path):
    fields = [
        np.array([[1.0], [0.0], [0.0]]),
        np.array([[0.0], [1.0], [0.0]]),
        np.array([[0.3], [0.3], [-0.4]]),
    ]
    opts = SolveOptions(lam=1.0, max_epochs=50000)
    serial = distance_matrix(sign_path, fields, opts, jobs=1)
    parallel = distance_matrix(sign_path, fields, opts, jobs=2)
    assert np.array_equal(serial, parallel)



class RecordingPool:
    """In-process stand-in for ``ProcessPoolExecutor`` that records its size."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("k, jobs, sizes", [(3, 64, [3]), (3, 2, [2]), (2, 8, [])])
def test_distance_matrix_starts_at_most_one_worker_per_pair(sign_path, monkeypatch, k, jobs, sizes):
    # distance_matrix imports the pool class where it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(toolkit, "_WORKER_STATE", None)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    fields = [pseudo_dirac(3, 1, node, 0) for node in range(k)]
    opts = SolveOptions(lam=1.0, max_epochs=50000)
    dist = distance_matrix(sign_path, fields, opts, jobs=jobs)
    assert RecordingPool.sizes == sizes
    assert np.array_equal(dist, distance_matrix(sign_path, fields, opts, jobs=1))

def test_distance_matrix_computes_kernel_once(sign_path, monkeypatch):
    calls = []
    real = feasibility.kernel_structured
    monkeypatch.setattr(feasibility, "kernel_structured", lambda g: calls.append(g) or real(g))
    fields = [
        np.array([[1.0], [0.0], [0.0]]),
        np.array([[0.0], [1.0], [0.0]]),
        np.array([[0.3], [0.3], [-0.4]]),
    ]
    opts = SolveOptions(lam=1.0, max_epochs=50000)
    dist = distance_matrix(sign_path, fields, opts, jobs=1)
    assert np.isfinite(dist).all()
    assert len(calls) == 1


def test_distance_matrix_checks_feasibility_once_per_pair(sign_path, monkeypatch):
    calls = []
    real = feasibility.feasibility_report
    monkeypatch.setattr(
        feasibility, "feasibility_report", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    fields = [
        np.array([[1.0], [0.0], [0.0]]),
        np.array([[0.0], [1.0], [0.0]]),
        np.array([[0.0], [0.0], [-1.0]]),
        np.array([[0.0], [0.0], [1.0]]),  # infeasible against the others
    ]
    opts = SolveOptions(lam=1.0, max_epochs=50000)
    dist = distance_matrix(sign_path, fields, opts, jobs=1)
    assert len(calls) == 4 * 3 // 2
    assert np.isinf(dist[:3, 3]).all() and np.isfinite(dist[:3, :3]).all()


def test_distance_matrix_nonconvergence_raises(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    opts = SolveOptions(lam=1.0, max_epochs=2)
    with pytest.raises(NonConvergenceError):
        distance_matrix(g, [alpha, beta], opts)
    dist = distance_matrix(g, [alpha, beta], opts, require_convergence=False)
    assert np.isfinite(dist[0, 1])


@pytest.mark.parametrize("lam", [0.0, -1.0, float("inf"), float("nan")])
@pytest.mark.parametrize("k", [0, 1])
def test_distance_matrix_refuses_lambda_without_a_pair(sign_path, lam, k):
    fields = [pseudo_dirac(3, 1, node, 0) for node in range(k)]
    with pytest.raises(InvalidGraphError, match="must be positive and finite"):
        distance_matrix(sign_path, fields, SolveOptions(lam=lam))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_distance_matrix_refuses_an_invalid_graph_without_a_pair(k):
    # vertices 2 and 3 touch no edge; with fewer than two fields no pair is solved
    g = ConnectionGraph.trivial(4, 1, [(0, 1, 1.0)])
    fields = [pseudo_dirac(4, 1, node, 0) for node in range(k)]
    with pytest.raises(InvalidGraphError, match="graph is disconnected"):
        distance_matrix(g, fields)


# ----------------------------------------------------------------- clustering


def test_spectral_cluster_block_diagonal_exact():
    affinity = np.zeros((6, 6))
    affinity[:3, :3] = 1.0
    affinity[3:, 3:] = 1.0
    result = spectral_cluster(affinity, 2, seed=0)
    labels = result.labels
    assert result.converged
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]


def test_spectral_cluster_identity_affinity_deterministic():
    affinity = np.eye(5)
    r1 = spectral_cluster(affinity, 2, seed=123)
    r2 = spectral_cluster(affinity, 2, seed=123)
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.inertia == r2.inertia


def test_spectral_cluster_three_gaussian_blocks():
    rng = np.random.default_rng(61)
    centers = np.array([0.0, 5.0, 10.0])
    pts = np.concatenate([rng.normal(c, 0.3, size=8) for c in centers])
    dist = np.abs(pts[:, None] - pts[None, :])
    affinity = np.exp(-0.1 * dist**2)
    result = spectral_cluster(affinity, 3, seed=0)
    truth = np.repeat([0, 1, 2], 8)
    # agreement up to relabeling
    mapping = {}
    for lab, t in zip(result.labels.tolist(), truth.tolist()):
        mapping.setdefault(lab, t)
        assert mapping[lab] == t
    assert len(mapping) == 3


def test_spectral_cluster_input_validation():
    with pytest.raises(InvalidGraphError):
        spectral_cluster(np.zeros((3, 2)), 2)
    with pytest.raises(InvalidGraphError):
        spectral_cluster(np.eye(3), 4)


# -------------------------------------------------- grid interpolation (d=2)


def test_interpolation_grid_d2_endpoint():
    g = make_grid_graph(4, 4, 2)
    alpha = pseudo_dirac(16, 2, node=0, channel=0)
    beta = pseudo_dirac(16, 2, node=15, channel=1)
    lam = 1.0
    opts = SolveOptions(
        lam=lam,
        learning_rate=stable_learning_rate(g, lam),
        max_epochs=200000,
        grad_tol=1e-10,
    )
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.converged
    rings = edge_rings(g, nodal_support(alpha))
    steps = 6 + 1  # hop diameter of the 4x4 grid is 6
    traj = interpolate_trajectory(g, alpha, flow, rings, steps)
    assert np.abs(traj[0] - alpha).max() == 0.0
    assert np.abs(traj[-1] - beta).max() <= 1e-8
