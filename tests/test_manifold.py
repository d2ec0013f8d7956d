"""Manifold construction: epsilon graphs, tangent frames, Procrustes, samplers."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbeck import manifold
from conbeck.errors import InvalidGraphError
from conbeck.feasibility import kernel_numeric
from conbeck.graph import validate_graph
from conbeck.manifold import (
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

from oracles import (
    brute_force_nearest,
    brute_force_pairs,
    per_vertex_tangent_frames,
    random_orthogonal,
)


# -------------------------------------------------------------- epsilon graph


def test_epsilon_graph_collinear_thresholds():
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    path = epsilon_graph(cloud, eps=1.5)
    assert path.edge_index.tolist() == [[0, 1], [1, 2]]
    triangle = epsilon_graph(cloud, eps=2.5)
    assert triangle.edge_index.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_epsilon_graph_strict_inequality():
    cloud = np.array([[0.0], [1.0]])
    assert epsilon_graph(cloud, eps=1.0).m == 0  # distance == eps excluded
    assert epsilon_graph(cloud, eps=1.0 + 1e-9).m == 1


def test_epsilon_graph_weight_schemes():
    cloud = np.array([[0.0], [2.0]])
    inv = epsilon_graph(cloud, eps=3.0)
    assert inv.weights[0] == pytest.approx(0.5)
    unit = epsilon_graph(cloud, eps=3.0, weights="unit")
    assert unit.weights[0] == 1.0
    with pytest.raises(InvalidGraphError):
        epsilon_graph(cloud, eps=3.0, weights="gauss")


def test_epsilon_graph_matches_brute_force_in_3d():
    rng = np.random.default_rng(3)
    cloud = rng.uniform(size=(120, 3))
    diff = cloud[:, None, :] - cloud[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    # the radius is exactly one pair's distance: that pair is left out
    edge = (17, 42)
    eps = dist[edge]
    iu, ju = np.triu_indices(cloud.shape[0], k=1)
    keep = dist[iu, ju] < eps
    skeleton = epsilon_graph(cloud, eps)
    assert list(edge) not in skeleton.edge_index.tolist()
    assert np.array_equal(skeleton.edge_index, np.stack([iu[keep], ju[keep]], axis=1))
    assert np.array_equal(skeleton.distances, dist[iu, ju][keep])
    assert np.array_equal(skeleton.weights, 1.0 / dist[iu, ju][keep])
    assert skeleton.m > 100


def test_epsilon_graph_rejects_duplicates():
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidGraphError) as err:
        epsilon_graph(cloud, eps=2.0)
    assert "0" in str(err.value) and "2" in str(err.value)


def test_epsilon_graph_rejects_non_finite_points():
    cloud = np.array([[0.0, 0.0], [np.nan, 0.0], [0.5, 0.0]])
    with pytest.raises(InvalidGraphError, match="non-finite"):
        epsilon_graph(cloud, eps=1.0)


def test_epsilon_graph_reports_isolated_and_disconnected():
    cloud = np.array([[0.0], [0.5], [10.0], [10.5], [99.0]])
    sk = epsilon_graph(cloud, eps=1.0)
    assert sk.isolated == [4]
    assert not sk.connected
    sk2 = epsilon_graph(np.array([[0.0], [0.5], [1.0]]), eps=0.7)
    assert sk2.connected and sk2.isolated == []


@st.composite
def clouds(draw, coords=None):
    """A cloud in dimension p in {1, 2, 3, 6}: up to 30 points on a coarse
    lattice (many ties and pairs at exactly a lattice distance) or in
    general position, and repeated points sometimes."""
    p = draw(st.sampled_from([1, 2, 3, 6]))
    if coords is None:
        coords = draw(st.sampled_from([
            st.integers(-4, 4).map(lambda k: 0.25 * k),
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        ]))
    rows = draw(st.lists(st.tuples(*[coords] * p), max_size=30, unique=draw(st.booleans())))
    return np.array(rows, dtype=float).reshape(-1, p)


def _distance(cloud, i, j):
    """Distance of points i and j by the formula epsilon_graph applies."""
    return float(brute_force_pairs(cloud[[i, j]], np.inf)[1][0])


@st.composite
def clouds_and_radii(draw):
    """A cloud and a radius: one of its pair distances (that pair is left
    out), a positive float, zero or a negative value."""
    cloud = draw(clouds())
    n = cloud.shape[0]
    radii = [st.floats(0.01, 4.0), st.sampled_from([0.0, -1.0])]
    if n >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        radii.append(st.just(_distance(cloud, i, j)))
    return cloud, draw(st.one_of(radii))


def _assert_is_brute_force(cloud, eps):
    pairs, dist, first = brute_force_pairs(cloud, eps)
    if first is not None:
        with pytest.raises(InvalidGraphError) as err:
            epsilon_graph(cloud, eps)
        assert str(err.value) == (
            f"coincident points {first[0]} and {first[1]}; duplicate positions are not allowed"
        )
        return
    skeleton = epsilon_graph(cloud, eps)
    assert np.array_equal(skeleton.edge_index, pairs)
    assert np.array_equal(skeleton.distances, dist)


@settings(max_examples=400, deadline=None, database=None)
@given(clouds_and_radii())
# gaps whose squares underflow: the formula puts these pairs at distance 0
@example((np.array([[0.0], [3.48e-256]]), 0.0))
@example((np.array([[0.0], [2.2e-308], [0.0]]), 0.0))
def test_epsilon_graph_is_the_brute_force_pairs(case):
    _assert_is_brute_force(*case)


@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_epsilon_graph_leaves_out_a_pair_at_exactly_eps(p):
    rng = np.random.default_rng(p)
    cloud = rng.uniform(size=(60, p))
    eps = _distance(cloud, 4, 9)
    assert [4, 9] not in epsilon_graph(cloud, eps).edge_index.tolist()
    _assert_is_brute_force(cloud, eps)


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=20),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=20),
    st.sampled_from([(1e7, 1.0), (1e15, 1.0), (1e300, 1e285)]),
)
def test_epsilon_graph_on_a_cloud_spanning_far_more_than_eps(near, far, span_and_spread):
    # two clusters span * eps apart on the first axis, eps = 1: the cell keys
    # must not overflow, and every cell coordinate stays below 2n
    span, spread = span_and_spread
    cloud = np.array(
        [(x, 0.5 * (k % 2)) for k, x in enumerate(near)]
        + [(span + spread * x, 0.5 * (k % 2)) for k, x in enumerate(far)]
    )
    _assert_is_brute_force(cloud, 1.0)
    assert manifold._grid_cells(cloud, 1.0).max() <= 2 * cloud.shape[0]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 3])
def test_epsilon_graph_on_zero_one_and_two_points(n, p):
    cloud = np.arange(n * p, dtype=float).reshape(n, p) * 0.1
    skeleton = epsilon_graph(cloud, 1.0)
    assert skeleton.edge_index.shape == (n * (n - 1) // 2, 2)
    assert skeleton.isolated == ([0] if n == 1 else [])
    assert skeleton.connected
    _assert_is_brute_force(cloud, 1.0)


@pytest.mark.parametrize("eps", [2.0, 0.0, -1.0, 100.0])
def test_epsilon_graph_names_the_first_coincident_pair(eps):
    # points 1, 5 and 8 coincide, and so do 3 and 7: the first pair in index order is (1, 5)
    cloud = np.array([[9.0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [1, 0], [6, 0], [3, 0], [1, 0]])
    with pytest.raises(InvalidGraphError, match=r"^coincident points 1 and 5; duplicate"):
        epsilon_graph(cloud, eps)


@pytest.mark.parametrize("block", [1, 7, manifold.NEAREST_BLOCK])
def test_nearest_is_the_lowest_index_at_the_minimum(monkeypatch, block):
    monkeypatch.setattr(manifold, "NEAREST_BLOCK", block)
    # nodes 1 and 3 repeat nodes 0 and 2, and the origin is equally near all four:
    # every tie goes to the lowest index
    cloud = np.array([[1.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [-1.0, 0, 0], [0, 3.0, 0]])
    points = np.array([[0.0, 0, 0], [0.5, 0, 0], [-0.5, 0, 0], [0, 2.0, 0], [0, 0, 9.0]])
    assert manifold._nearest(points, cloud).tolist() == [0, 0, 2, 4, 0]


@settings(max_examples=200, deadline=None, database=None)
@given(clouds(coords=st.integers(-2, 2).map(float)), st.data())
def test_nearest_is_the_brute_force_nearest(cloud, data):
    if cloud.shape[0] == 0:
        return
    p = cloud.shape[1]
    points = np.array(
        data.draw(st.lists(st.tuples(*[st.integers(-4, 4).map(lambda k: 0.5 * k)] * p), max_size=12)),
        dtype=float,
    ).reshape(-1, p)
    assert np.array_equal(manifold._nearest(points, cloud), brute_force_nearest(points, cloud))


# ------------------------------------------------------------- tangent frames


def test_tangent_frames_planar_cloud_spans_plane():
    rng = np.random.default_rng(50)
    basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    coords = rng.uniform(-1, 1, size=(40, 2))
    cloud = coords @ basis.T
    sk = epsilon_graph(cloud, eps=0.8)
    assert sk.connected
    frames = tangent_frames(cloud, sk, d=2, eps=0.8)
    for i in range(cloud.shape[0]):
        o = frames[i]
        assert np.abs(o.T @ o - np.eye(2)).max() <= 1e-10
        for k in range(2):
            v = basis[:, k]
            assert np.linalg.norm(v - o @ (o.T @ v)) <= 1e-8


def test_tangent_frames_too_few_neighbors_rejected():
    cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    sk = epsilon_graph(cloud, eps=1.5)  # path: endpoint has one neighbor
    with pytest.raises(InvalidGraphError) as err:
        tangent_frames(cloud, sk, d=2, eps=1.5)
    assert "neighbors" in str(err.value)


@pytest.mark.parametrize("batch", [1, 7, manifold.FRAME_BATCH_OFFSETS])
def test_tangent_frames_equal_one_svd_per_vertex(monkeypatch, batch):
    # the patch's border vertices have fewer neighbours: several degree
    # groups, split into batches of at most ``batch`` offsets
    monkeypatch.setattr(manifold, "FRAME_BATCH_OFFSETS", batch)
    cloud, _, _ = sample_sphere_patch(10, 20)
    sk = epsilon_graph(cloud, eps=0.25)
    assert np.unique(np.bincount(sk.edge_index.ravel())).size > 3
    frames = tangent_frames(cloud, sk, d=2, eps=0.25)
    assert np.array_equal(frames, per_vertex_tangent_frames(cloud, sk, 2, 0.25))


def test_tangent_frames_report_the_lowest_failing_vertex():
    # vertex 0 has enough neighbours but none inside the kernel support;
    # vertex 3 has too few: the vertex-by-vertex order reports vertex 0
    cloud = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [10.0, 10.0]])
    sk = GraphSkeleton(4, np.array([[0, 1], [0, 2], [1, 2], [2, 3]]), np.ones(4), np.ones(4))
    with pytest.raises(InvalidGraphError, match="vertex 0: all neighbors fall outside"):
        tangent_frames(cloud, sk, d=2, eps=1.0)
    sk = GraphSkeleton(4, np.array([[0, 3], [1, 2], [1, 3], [2, 3]]), np.ones(4), np.ones(4))
    with pytest.raises(InvalidGraphError, match="vertex 0 has 1 neighbors"):
        tangent_frames(cloud, sk, d=2, eps=1.0)


def test_tangent_frames_kernel_scale_knob():
    # the kernel scale is sqrt(eps): neighbors 1.5 apart fall outside it at
    # eps = 2 (sqrt 2 < 1.5) and inside it at eps = 2.5
    cloud = np.array([[0.0], [1.5], [3.0], [4.5]])
    with pytest.raises(InvalidGraphError, match=r"vertex 0: all neighbors fall outside the "
                       r"kernel support \(scale sqrt\(eps\) = 1\.41\)$"):
        tangent_frames(cloud, epsilon_graph(cloud, eps=2.0), d=1, eps=2.0)
    frames = tangent_frames(cloud, epsilon_graph(cloud, eps=2.5), d=1, eps=2.5)
    assert frames.shape == (4, 1, 1)


def test_tangent_frames_orthonormal_on_torus():
    cloud = sample_torus(10, 40)
    sk = epsilon_graph(cloud, eps=3.0)
    assert sk.connected
    frames = tangent_frames(cloud, sk, d=2, eps=3.0)
    defect = np.einsum("npd,npe->nde", frames, frames) - np.eye(2)
    assert np.abs(defect).max() <= 1e-10


def test_tangent_frames_sphere_patch_orthogonal_to_radius():
    cloud, _, _ = sample_sphere_patch(12, 20)
    sk = epsilon_graph(cloud, eps=0.2)
    assert sk.connected
    frames = tangent_frames(cloud, sk, d=2, eps=0.2)
    radial = cloud / np.linalg.norm(cloud, axis=1, keepdims=True)
    dev = np.abs(np.einsum("npd,np->nd", frames, radial))
    assert dev.mean() <= 0.15


# ----------------------------------------------------------------- procrustes


def test_procrustes_identical_frames_identity():
    rng = np.random.default_rng(51)
    o = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    frames = np.stack([o, o])
    sk = epsilon_graph(np.array([[0.0], [1.0]]), eps=2.0)
    g = procrustes_connection(frames, sk)
    assert np.abs(g.sigmas[0] - np.eye(2)).max() <= 1e-12


def test_procrustes_in_plane_rotation_recovered():
    rng = np.random.default_rng(52)
    o = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    frames = np.stack([o, o @ rot])
    sk = epsilon_graph(np.array([[0.0], [1.0]]), eps=2.0)
    g = procrustes_connection(frames, sk)
    assert np.abs(g.sigmas[0] - rot).max() <= 1e-8


def test_procrustes_optimality_against_random_candidates():
    rng = np.random.default_rng(53)
    o_i = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    o_j = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    frames = np.stack([o_i, o_j])
    sk = epsilon_graph(np.array([[0.0], [1.0]]), eps=2.0)
    g = procrustes_connection(frames, sk)
    m_align = o_i.T @ o_j
    best = np.linalg.norm(g.sigmas[0] - m_align)
    for _ in range(100):
        q = random_orthogonal(2, rng)
        assert best <= np.linalg.norm(q - m_align) + 1e-12


def test_procrustes_flags_degenerate_alignment():
    # perpendicular tangent planes in R^4: O_i^T O_j = 0, rank deficient
    o_i = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    o_j = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    frames = np.stack([o_i, o_j])
    sk = epsilon_graph(np.array([[0.0], [1.0]]), eps=2.0)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        g = procrustes_connection(frames, sk)
    # the produced matrix is still orthogonal
    assert validate_graph(g) == []


def _frames_with_degenerate_edges():
    """Path 0-1-...-9 with random frames in R^4, d = 2, except that vertex
    3's frame is perpendicular to those of 2 and 4, and vertex 9's to 8's:
    edges 2, 3 and 8 have rank-deficient alignments."""
    rng = np.random.default_rng(54)
    plane = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    frames = np.stack([np.linalg.qr(rng.standard_normal((4, 2)))[0] for _ in range(10)])
    frames[[2, 4, 8]] = np.concatenate([plane, np.zeros((2, 2))])
    frames[[3, 9]] = np.concatenate([np.zeros((2, 2)), plane])
    return frames, epsilon_graph(np.arange(10.0)[:, None], eps=1.5)


def _procrustes_and_warning(frames, sk):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = procrustes_connection(frames, sk)
    return g.sigmas, [str(w.message) for w in caught]


@pytest.mark.parametrize("block", [1, 3, manifold.PROCRUSTES_BLOCK])
def test_procrustes_blocks_equal_one_block_of_every_edge(monkeypatch, block):
    frames, sk = _frames_with_degenerate_edges()
    cloud = sample_torus(10, 40)
    torus = epsilon_graph(cloud, eps=3.0)
    torus_frames = tangent_frames(cloud, torus, d=2, eps=3.0)
    monkeypatch.setattr(manifold, "PROCRUSTES_BLOCK", max(sk.m, torus.m))
    whole, whole_warning = _procrustes_and_warning(frames, sk)
    whole_torus = procrustes_connection(torus_frames, torus).sigmas
    monkeypatch.setattr(manifold, "PROCRUSTES_BLOCK", block)
    # with blocks of 3, edges 2 | 3 straddle the first boundary
    blocked, blocked_warning = _procrustes_and_warning(frames, sk)
    assert np.array_equal(blocked, whole)
    assert blocked_warning == whole_warning == [
        "3 edge(s) have rank-deficient frame alignments (first few: [2, 3, 8]); "
        "their connection matrices are not unique"
    ]
    assert np.array_equal(procrustes_connection(torus_frames, torus).sigmas, whole_torus)


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        out = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


#: The mesh of the memory tests: 3 200 points, 71 456 edges at eps 0.1.
MEMORY_PATCH, MEMORY_EPS = (40, 80), 0.1


def test_epsilon_graph_memory_per_edge():
    # the skeleton takes 32 bytes per edge; the bound leaves room for one
    # sort, not for several temporaries with a row per candidate pair
    cloud = sample_sphere_patch(*MEMORY_PATCH)[0]
    sk, peak = _traced_peak(epsilon_graph, cloud, MEMORY_EPS)
    assert sk.m == 71_456
    assert peak <= 140 * sk.m


def test_procrustes_memory_per_edge():
    # the sigmas take 32 bytes per edge (d = 2); the bound leaves room for
    # fixed-size blocks, not for (m, d, d) temporaries
    cloud = sample_sphere_patch(*MEMORY_PATCH)[0]
    sk = epsilon_graph(cloud, MEMORY_EPS)
    frames = tangent_frames(cloud, sk, 2, MEMORY_EPS)
    _, peak = _traced_peak(procrustes_connection, frames, sk)
    assert peak <= 80 * sk.m

def test_procrustes_torus_output_valid_and_inconsistent():
    cloud = sample_torus(10, 40)
    sk = epsilon_graph(cloud, eps=3.0)
    frames = tangent_frames(cloud, sk, d=2, eps=3.0)
    g = procrustes_connection(frames, sk)
    assert validate_graph(g) == []
    basis = kernel_numeric(g)
    assert basis.dimension < 2  # curvature makes the connection inconsistent


# ------------------------------------------------------------------- samplers


def test_sample_torus_implicit_equation():
    pts = sample_torus(8, 12)
    assert pts.shape == (96, 3)
    assert np.abs(pts[0] - [6.0, 0.0, 0.0]).max() <= 1e-12  # theta = psi = 0
    rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    implicit = (rho - 5.0) ** 2 + pts[:, 2] ** 2
    assert np.abs(implicit - 1.0).max() <= 1e-12
    # no duplicate rows (periodic endpoints excluded)
    assert np.unique(np.round(pts, 9), axis=0).shape[0] == 96


def test_sample_sphere_patch_on_unit_sphere():
    cloud, theta, psi = sample_sphere_patch(5, 7)
    assert cloud.shape == (35, 3)
    assert np.abs(np.linalg.norm(cloud, axis=1) - 1.0).max() <= 1e-12
    assert theta[0] == pytest.approx(7 * np.pi / 180)
    assert theta[-1] == pytest.approx(67 * np.pi / 180)
    assert psi[0] == pytest.approx(-30 * np.pi / 180)
    assert psi[-1] == pytest.approx(120 * np.pi / 180)


def test_sphere_point_geographic_convention():
    # latitude 0, psi 0: equator at lon 0 -> (1, 0, 0)
    assert np.abs(sphere_point(0.0, 0.0) - [1.0, 0.0, 0.0]).max() <= 1e-15
    # north pole: z = 1
    assert np.abs(sphere_point(np.pi / 2, 0.3) - [0.0, 0.0, 1.0]).max() <= 1e-12
    # west-positive azimuth: psi = +pi/2 corresponds to longitude -90
    pt = sphere_point(0.0, np.pi / 2)
    assert np.abs(pt - [0.0, -1.0, 0.0]).max() <= 1e-12


# ------------------------------------------------------------- project / lift


def test_project_lift_roundtrip_in_span():
    rng = np.random.default_rng(54)
    frames = np.stack([np.linalg.qr(rng.standard_normal((4, 2)))[0] for _ in range(6)])
    field = rng.standard_normal((6, 2))
    ambient = lift_to_ambient(frames, field)
    assert ambient.shape == (6, 4)
    back = project_to_tangent(frames, ambient)
    assert np.abs(back - field).max() <= 1e-12


def test_project_kills_orthogonal_component():
    frames = np.zeros((1, 3, 2))
    frames[0, 0, 0] = 1.0
    frames[0, 1, 1] = 1.0
    ambient = np.array([[0.0, 0.0, 5.0]])
    assert np.abs(project_to_tangent(frames, ambient)).max() == 0.0


def test_project_is_contraction():
    rng = np.random.default_rng(55)
    frames = np.stack([np.linalg.qr(rng.standard_normal((5, 3)))[0] for _ in range(8)])
    ambient = rng.standard_normal((8, 5))
    coords = project_to_tangent(frames, ambient)
    assert np.all(
        np.linalg.norm(coords, axis=1) <= np.linalg.norm(ambient, axis=1) + 1e-12
    )
