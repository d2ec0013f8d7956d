"""Core graph module: assembly, paths, cycles, consistency, switching.

Frozen expected values are derived by hand directly from the block
definitions (incidence blocks +I / -sigma^T, Laplacian blocks deg*I and
-w sigma); each is spelled out where it is used.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbeck import graph
from conbeck.errors import InvalidGraphError
from conbeck.graph import (
    ConnectionGraph,
    _bfs,
    _component_of_zero,
    _index_dtype,
    apply_B,
    apply_BT,
    connection_laplacian,
    fundamental_cycles,
    incidence,
    is_consistent,
    switch,
    validate_graph,
)
from conbeck.feasibility import feasibility_switching
from conbeck.toolkit import edge_rings

from conftest import (
    curved_sphere_patch,
    flat_sphere_patch,
    make_path_graph,
    queue_bfs,
    random_connected_graph,
    twisted_ring,
)
from oracles import (
    bfs_tree,
    combinatorial_laplacian,
    coo_operators,
    csr_bits,
    path_product,
    random_orthogonal,
    sequential_tree_products,
    sigma_between,
)


# ---------------------------------------------------------------- validation


def test_validate_accepts_triangle():
    g = ConnectionGraph.trivial(3, 2, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0)])
    assert validate_graph(g) == []


def test_validate_rejects_non_orthogonal_sigma():
    shear = [[1.0, 0.5], [0.0, 1.0]]
    g = ConnectionGraph.from_edges(2, 2, [(0, 1, 1.0, shear)])
    msgs = validate_graph(g)
    assert len(msgs) == 1 and "orthogonal" in msgs[0]
    with pytest.raises(InvalidGraphError):
        g.require_valid()


def test_validate_rejects_nonpositive_weight():
    g = ConnectionGraph.from_edges(2, 1, [(0, 1, 0.0, [[1.0]])])
    assert any("weight" in v for v in validate_graph(g))


def test_validate_rejects_duplicate_and_misoriented_edges():
    g = ConnectionGraph(
        3,
        1,
        [(0, 1), (1, 0)],
        [1.0, 1.0],
        np.ones((2, 1, 1)),
    )
    msgs = validate_graph(g)
    assert any("orientation" in v for v in msgs)
    assert any("duplicate" in v for v in msgs)


def test_validate_rejects_disconnected():
    g = ConnectionGraph.trivial(4, 1, [(0, 1, 1.0), (2, 3, 1.0)])
    assert any("disconnected" in v for v in validate_graph(g))


@pytest.mark.parametrize(
    "n, edges, missing, first",
    [
        (6, [(0, 1), (1, 2), (3, 4)], 3, 3),  # a touched vertex first
        (5, [(0, 2), (2, 4)], 2, 1),  # isolated vertices in the gaps
        (4, [(0, 1), (1, 2)], 1, 3),  # past the last reached vertex
        (3, [(1, 2)], 2, 1),  # vertex 0 touched by no edge
    ],
)
def test_validate_names_the_first_unreachable_vertex(n, edges, missing, first):
    g = ConnectionGraph.trivial(n, 1, [(i, j, 1.0) for i, j in edges])
    assert validate_graph(g) == [
        f"graph is disconnected ({missing} vertices unreachable from 0, e.g. vertex {first})"
    ]


def test_validate_reports_every_fault_in_order():
    sheared = [[1.0, 0.5], [0.0, 1.0]]
    g = ConnectionGraph(
        4,
        2,
        [(0, 1), (0, 5), (2, 2), (1, 0), (1, 2), (2, 3)],
        [1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
        [np.eye(2)] * 5 + [sheared],
    )
    assert validate_graph(g) == [
        "edge 1: endpoint out of range (0, 5)",
        "edge 2: self-loop at vertex 2",
        "edge 3: endpoints not in index orientation (1 > 0)",
        "edge 3: duplicate of edge (0, 1)",
        "edge 4: weight 0.0 is not positive and finite",
        "edge 5: sigma is not orthogonal (|sigma^T sigma - I|_max = 0.5)",
    ]


def test_validate_rejects_self_loop():
    g = ConnectionGraph(2, 1, [(1, 1)], [1.0], np.ones((1, 1, 1)))
    assert any("self-loop" in v for v in validate_graph(g))


def test_canonicalize_projects_near_orthogonal():
    rng = np.random.default_rng(0)
    q = random_orthogonal(3, rng)
    g = ConnectionGraph.from_edges(2, 3, [(0, 1, 1.0, q + 1e-10)])
    fixed = g.canonicalized()
    assert validate_graph(fixed) == []
    sig = fixed.sigmas[0]
    assert np.abs(sig.T @ sig - np.eye(3)).max() < 1e-14
    assert np.abs(sig - q).max() < 1e-9


# ------------------------------------------------------------------ incidence


def test_incidence_single_edge_sign_flip():
    # d=1, sigma = -1: column blocks are +1 at the tail and -sigma^T = +1
    # at the head, so B = [[1], [1]].
    g = ConnectionGraph.from_edges(2, 1, [(0, 1, 1.0, [[-1.0]])])
    b = incidence(g).toarray()
    assert np.array_equal(b, [[1.0], [1.0]])


def test_incidence_trivial_path():
    # Trivial path 0-1-2: classical signed incidence matrix.
    g = make_path_graph(3, 1)
    b = incidence(g).toarray()
    assert np.array_equal(b, [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])


def test_incidence_block_layout_d2():
    rng = np.random.default_rng(1)
    q = random_orthogonal(2, rng)
    g = ConnectionGraph.from_edges(2, 2, [(0, 1, 3.0, q)])
    b = incidence(g).toarray()
    assert b.shape == (4, 2)
    assert np.allclose(b[0:2], np.eye(2))
    assert np.allclose(b[2:4], -q.T)


def test_incidence_rejects_invalid():
    g = ConnectionGraph.from_edges(2, 2, [(0, 1, 1.0, [[1, 1], [0, 1]])])
    with pytest.raises(InvalidGraphError):
        incidence(g)


# ------------------------------------------------------------------ laplacian


def test_laplacian_single_edge_sign_flip():
    # L = [[w, -w*sigma], [-w*sigma^T, w]] = [[1, 1], [1, 1]]; eigenvalues 0, 2.
    g = ConnectionGraph.from_edges(2, 1, [(0, 1, 1.0, [[-1.0]])])
    lap = connection_laplacian(g).toarray()
    assert np.array_equal(lap, [[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 2.0])


def test_laplacian_matches_product_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_connected_graph(rng, n=6, d=2, extra_edges=3)
        b = incidence(g).toarray()
        w = np.repeat(g.weights, g.d)
        product = b @ (w[:, None] * b.T)
        assert np.abs(connection_laplacian(g).toarray() - product).max() <= 1e-12


def test_laplacian_trivial_connection_is_kron_of_combinatorial():
    g = ConnectionGraph.trivial(4, 2, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 0.5), (0, 3, 1.5)])
    lap = connection_laplacian(g).toarray()
    delta = combinatorial_laplacian(g)
    assert np.abs(lap - np.kron(delta, np.eye(2))).max() <= 1e-12


def test_laplacian_psd_and_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_connected_graph(rng, n=7, d=3, extra_edges=4)
        lap = connection_laplacian(g).toarray()
        assert np.abs(lap - lap.T).max() <= 1e-12
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)


@st.composite
def operator_graphs(draw):
    """A valid graph on 1 to 10 vertices with d from 1 to 3: a random
    spanning tree plus chords, its edges in random order and orientation,
    and every sigma the identity, a signed permutation or a Haar rotation."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["identity", "signed permutation", "rotation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    edges = []
    for i, j in draw(st.permutations(list(dict.fromkeys(tree + chords)))):
        if kind == "identity":
            sigma = np.eye(d)
        elif kind == "signed permutation":
            sigma = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        else:
            sigma = random_orthogonal(d, rng)
            sigma[:, 0] *= np.linalg.det(sigma)
        edges.append((j, i, rng.uniform(0.5, 2.0), sigma.T) if draw(st.booleans())
                     else (i, j, rng.uniform(0.5, 2.0), sigma))
    return ConnectionGraph.from_edges(n, d, edges)


@settings(max_examples=300, deadline=None, database=None)
@given(operator_graphs())
@example(ConnectionGraph(1, 2, np.zeros((0, 2)), [], np.zeros((0, 2, 2))))
# a weight of 1e7 beside the next float up: both enter vertex 1's degree
@example(ConnectionGraph.trivial(3, 2, [(1, 2, 1e7), (0, 1, np.nextafter(1e7, np.inf))]))
def test_operators_are_the_coo_reference_bit_for_bit(g):
    lap, b, bt = coo_operators(g)
    assert csr_bits(g.laplacian_matrix) == csr_bits(lap)
    assert csr_bits(g.incidence_matrix) == csr_bits(b)
    assert csr_bits(g.incidence_matrix_T) == csr_bits(bt)


@pytest.mark.parametrize("make", [curved_sphere_patch, twisted_ring])
def test_near_kernel_modes_are_those_of_the_reference_laplacian(make):
    g, reference = make(), make()
    reference.__dict__["laplacian_matrix"] = coo_operators(reference)[0]
    for mine, theirs in zip(g.near_kernel_modes, reference.near_kernel_modes):
        assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()


def test_assembly_memory_stays_proportional_to_its_output():
    # through COO triplets, L peaked at 5.7 times its CSR bytes and B^T,
    # built by transposing B, at 5.2 times
    import scipy.sparse  # noqa: F401  (its import is not the assembly's)

    g = curved_sphere_patch(20, 40, 0.2).require_valid()
    for name, bound in (("laplacian_matrix", 3.0), ("incidence_matrix_T", 1.5)):
        tracemalloc.start()
        try:
            mat = getattr(g, name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert peak <= bound * stored, (name, peak / stored)


@pytest.mark.parametrize(
    "nnz, shape, dtype",
    [
        (2**31 - 1, (10, 10), np.int32),
        (2**31, (10, 10), np.int64),
        (10, (2**31, 10), np.int64),
        (10, (10, 2**31), np.int64),
    ],
)
def test_index_dtype_widens_when_a_count_reaches_two_to_the_31(nnz, shape, dtype):
    assert _index_dtype(nnz, shape) is dtype


# ----------------------------------------------------------- operator applies


def test_apply_BT_matches_matrix():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, n=6, d=2, extra_edges=3)
    phi = rng.standard_normal((g.n, g.d))
    direct = apply_BT(g, phi)
    via_matrix = (incidence(g).T @ phi.reshape(-1)).reshape(g.m, g.d)
    assert np.abs(direct - via_matrix).max() <= 1e-12


def test_apply_B_matches_matrix_and_adjointness():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, n=6, d=3, extra_edges=4)
    flow = rng.standard_normal((g.m, g.d))
    phi = rng.standard_normal((g.n, g.d))
    div = apply_B(g, flow)
    via_matrix = (incidence(g) @ flow.reshape(-1)).reshape(g.n, g.d)
    assert np.abs(div - via_matrix).max() <= 1e-12
    # <B J, phi> == <J, B^T phi>
    lhs = float(np.vdot(div, phi))
    rhs = float(np.vdot(flow, apply_BT(g, phi)))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_apply_BT_constant_field_trivial_connection():
    g = make_path_graph(5, 2)
    phi = np.tile([1.5, -0.5], (5, 1))
    assert np.abs(apply_BT(g, phi)).max() == 0.0


# ------------------------------------------------------------- path products


def test_path_product_trivial_is_identity():
    g = make_path_graph(4, 2)
    assert np.array_equal(path_product(g, [0, 1, 2, 3]), np.eye(2))


def test_path_product_sign_path(sign_path):
    # sigma_01 * sigma_12 = (+1) * (-1) = -1.
    assert path_product(sign_path, [0, 1, 2]) == np.array([[-1.0]])
    # Reversed path gives the transpose (= inverse).
    assert path_product(sign_path, [2, 1, 0]) == np.array([[-1.0]])


def test_path_product_concatenation_and_inverse():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, n=8, d=3, extra_edges=5)
    order, parent = bfs_tree(g, 0)
    # walk a few tree paths: product of path and reversed path is I
    leaf = order[-1]
    path = [leaf]
    while parent[path[-1]] != -1:
        path.append(int(parent[path[-1]]))
    sig = path_product(g, path)
    back = path_product(g, list(reversed(path)))
    assert np.abs(sig @ back - np.eye(3)).max() <= 1e-12
    # concatenation: sigma_{P+Q} = sigma_P sigma_Q
    mid = len(path) // 2
    p, q = path[: mid + 1], path[mid:]
    assert np.abs(path_product(g, p) @ path_product(g, q) - sig).max() <= 1e-12


def test_path_product_requires_edges():
    g = make_path_graph(3, 1)
    with pytest.raises(InvalidGraphError):
        path_product(g, [0, 2])


def test_tree_products_expand_parallel_transport(sign_path):
    t = feasibility_switching(sign_path, root=0)
    # t[i] = sigma along path i -> 0;  t[2] = sigma_21 sigma_10 = (-1)(1) = -1
    assert t[0] == pytest.approx(1.0)
    assert t[1] == pytest.approx(1.0)
    assert t[2] == pytest.approx(-1.0)


@pytest.mark.parametrize("seed", range(12))
def test_tree_products_match_sequential_chain(seed):
    rng = np.random.default_rng(100 + seed)
    d = 1 + seed % 4
    consistent = (None, True, False)[seed % 3]
    g = random_connected_graph(rng, n=int(rng.integers(4, 30)), d=d,
                               extra_edges=int(rng.integers(1, 12)), consistent=consistent)
    root = int(rng.integers(g.n))
    assert np.array_equal(feasibility_switching(g, root), sequential_tree_products(g, root))


def test_tree_products_match_sequential_chain_on_sphere_patches():
    for g in (flat_sphere_patch(np.random.default_rng(3))[0], curved_sphere_patch()):
        for root in (0, g.n // 2, g.n - 1):
            assert np.array_equal(feasibility_switching(g, root), sequential_tree_products(g, root))


@pytest.mark.parametrize("root", [-1, 3])
def test_tree_roots_outside_the_graph_are_refused(sign_path, root):
    for call in (bfs_tree, feasibility_switching):
        with pytest.raises(InvalidGraphError, match=f"root {root} "):
            call(sign_path, root)


# ------------------------------------------------------------------- cycles


def test_fundamental_cycles_tree_empty():
    g = make_path_graph(6, 2)
    assert fundamental_cycles(g) == []


def test_fundamental_cycles_diamond(diamond):
    cycles = fundamental_cycles(diamond)
    assert len(cycles) == diamond.m - diamond.n + 1 == 1
    cyc = cycles[0]
    assert cyc[0] == cyc[-1] == 0
    # the cycle visits all four vertices
    assert sorted(set(cyc)) == [0, 1, 2, 3]
    # and is a closed walk over existing edges with product -1
    assert path_product(diamond, cyc) == np.array([[-1.0]])


def test_fundamental_cycle_count_random():
    rng = np.random.default_rng(6)
    for _ in range(5):
        g = random_connected_graph(rng, n=9, d=1, extra_edges=4)
        assert len(fundamental_cycles(g)) == g.m - g.n + 1


# -------------------------------------------------------------- consistency


def test_consistency_tree_always(sign_path):
    assert is_consistent(sign_path)
    g = make_path_graph(5, 3)
    assert is_consistent(g)


def test_consistency_diamond_false(diamond):
    assert not is_consistent(diamond)


def test_consistency_switched_trivial_true():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_connected_graph(rng, n=8, d=2, extra_edges=4, consistent=True)
        assert is_consistent(g)


def test_consistency_broken_chord_false():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        g = random_connected_graph(rng, n=8, d=d, extra_edges=3, consistent=False)
        assert not is_consistent(g)


def test_consistency_agrees_with_spectral_test():
    # Balance-style equivalence: consistent iff spec(L) equals spec(Delta)
    # with every eigenvalue repeated d times.
    rng = np.random.default_rng(10)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        consistent = bool(rng.integers(0, 2))
        g = random_connected_graph(rng, n=7, d=d, extra_edges=3, consistent=consistent)
        lam_conn = np.linalg.eigvalsh(connection_laplacian(g).toarray())
        lam_comb = np.repeat(np.linalg.eigvalsh(combinatorial_laplacian(g)), d)
        spectra_match = np.abs(np.sort(lam_conn) - np.sort(lam_comb)).max() <= 1e-8
        assert is_consistent(g) == spectra_match == consistent


# ---------------------------------------------------------------- switching


def test_switch_identity_is_noop(diamond):
    tau = np.tile(np.eye(1), (4, 1, 1))
    g2 = switch(diamond, tau)
    assert np.abs(g2.sigmas - diamond.sigmas).max() == 0.0


def test_switch_sign_path_to_trivial(sign_path):
    # tau = diag(1, 1, -1) turns sigma_12 = -1 into +1: hand computation
    # sigma'_12 = tau_1^T * (-1) * tau_2 = 1 * -1 * -1 = 1.
    tau = np.array([[[1.0]], [[1.0]], [[-1.0]]])
    g2 = switch(sign_path, tau)
    assert np.abs(g2.sigmas - 1.0).max() <= 1e-15


def test_switch_preserves_spectrum_and_involutes():
    rng = np.random.default_rng(12)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=7, d=d, extra_edges=3)
        tau = np.array([random_orthogonal(d, rng) for _ in range(g.n)])
        g2 = switch(g, tau)
        s1 = np.linalg.eigvalsh(connection_laplacian(g).toarray())
        s2 = np.linalg.eigvalsh(connection_laplacian(g2).toarray())
        assert np.abs(s1 - s2).max() <= 1e-9
        # switching back with the transposes restores the original sigmas
        back = switch(g2, np.transpose(tau, (0, 2, 1)))
        assert np.abs(back.sigmas - g.sigmas).max() <= 1e-12


def test_switch_rejects_non_orthogonal_tau(diamond):
    tau = np.tile(np.eye(1) * 2.0, (4, 1, 1))
    with pytest.raises(InvalidGraphError):
        switch(diamond, tau)


# ------------------------------------------------------------ misc structure


def test_bfs_tree_deterministic_order():
    g = ConnectionGraph.trivial(4, 1, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
    order, parent = bfs_tree(g, 0)
    assert order == [0, 1, 2, 3]
    assert parent.tolist() == [-1, 0, 0, 0]


@pytest.mark.parametrize("seed", range(4))
def test_bfs_tree_matches_queue_bfs(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n=25, d=2, extra_edges=15)
    root = int(rng.integers(g.n))
    order, parent, _ = queue_bfs(g, [root])
    got_order, got_parent = bfs_tree(g, root)
    assert got_order == order
    assert got_parent.tolist() == parent


@st.composite
def bfs_instances(draw):
    """A graph on up to 20 vertices, its edges in random order and
    orientation, connected through a random spanning tree or not, and a
    list of sources that may repeat."""
    n = draw(st.integers(1, 20))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        edges = list(dict.fromkeys(edges + tree))
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in draw(st.permutations(edges))]
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    return n, edges, sources


@settings(max_examples=300, deadline=None, database=None)
@given(bfs_instances())
def test_bfs_is_the_queue_bfs(instance):
    n, edges, sources = instance
    edge_index = np.array(edges, dtype=int).reshape(-1, 2)
    g = ConnectionGraph(n, 1, edge_index, np.ones(len(edges)), np.ones((len(edges), 1, 1)))
    order, parent, hops = _bfs(n, edge_index, sources)
    assert (order.tolist(), parent.tolist(), hops.tolist()) == queue_bfs(g, sources)



@settings(max_examples=300, deadline=None, database=None)
@given(bfs_instances())
def test_component_of_zero_is_the_bfs_reach_from_zero(instance):
    n, edges, _ = instance
    edge_index = np.array(edges, dtype=int).reshape(-1, 2)
    assert np.array_equal(_component_of_zero(n, edge_index), _bfs(n, edge_index, [0])[2] >= 0)


def _random_edge_lists(rng):
    """Edge lists with their vertex counts: connected, disconnected, with
    isolated vertices, and a single vertex."""
    connected = random_connected_graph(rng, n=40, d=1, extra_edges=30)
    yield connected.n, connected.edge_index
    # two connected halves, the second relabelled to 20..39
    halves = random_connected_graph(rng, n=20, d=1, extra_edges=10).edge_index
    yield 40, np.concatenate([halves, halves + 20])
    # few random pairs among many vertices: most of them isolated
    pairs = rng.choice(60, size=(25, 2))
    yield 60, pairs[pairs[:, 0] != pairs[:, 1]]
    yield 1, np.zeros((0, 2), dtype=int)


@pytest.mark.parametrize("seed", range(6))
def test_component_of_zero_on_random_graphs(seed):
    for n, edge_index in _random_edge_lists(np.random.default_rng(seed)):
        expected = _bfs(n, edge_index, [0])[2] >= 0
        assert np.array_equal(_component_of_zero(n, edge_index), expected)


class _CountingHooks:
    """Stands in for NumPy inside ``conbeck.graph`` and counts the calls of
    ``np.minimum.at``: one per round of :func:`_component_of_zero`."""

    def __init__(self):
        self.rounds = 0
        counter = self

        class Minimum:
            __call__ = staticmethod(np.minimum)

            @staticmethod
            def at(*args):
                counter.rounds += 1
                np.minimum.at(*args)

        self.minimum = Minimum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("seed", range(3))
def test_component_of_zero_takes_logarithmic_rounds_on_a_shuffled_path(monkeypatch, seed):
    # min-label propagation that hooks vertices, not roots, needs n rounds here
    n = 20_000
    label = np.random.default_rng(seed).permutation(n)
    edge_index = np.sort(np.stack([label[:-1], label[1:]], axis=1), axis=1)
    hooks = _CountingHooks()
    monkeypatch.setattr(graph, "np", hooks)
    reached = _component_of_zero(n, edge_index)
    monkeypatch.undo()
    assert reached.all()
    assert 0 < hooks.rounds <= 2 * math.log2(n)


def test_traversals_on_a_path_five_thousand_levels_deep():
    n, d = 5000, 2
    rng = np.random.default_rng(5)
    sigmas = np.stack([random_orthogonal(d, rng) for _ in range(n - 1)])
    g = ConnectionGraph.from_edges(n, d, [(e, e + 1, 1.0, sigmas[e]) for e in range(n - 1)])
    order, parent, hops = _bfs(n, g.edge_index, [0])
    assert order.tolist() == list(range(n))
    assert hops.tolist() == list(range(n))
    assert parent.tolist() == list(range(-1, n - 1))
    assert edge_rings(g, [0]).edge_ring.tolist() == list(range(n - 1))
    assert np.array_equal(feasibility_switching(g, 0), sequential_tree_products(g, 0))

def test_sigma_between_orientation(sign_path):
    assert sigma_between(sign_path, 1, 2) == np.array([[-1.0]])
    assert sigma_between(sign_path, 2, 1) == np.array([[-1.0]])  # transpose of 1x1
    with pytest.raises(InvalidGraphError):
        sigma_between(sign_path, 0, 2)


def test_sigma_between_repeated_pair_takes_last_stored_orientation_first():
    # unvalidated: the pair (0, 1) twice, then reversed as (1, 0)
    sigmas = [[[1.0]], [[2.0]], [[3.0]]]
    g = ConnectionGraph(2, 1, [(0, 1), (0, 1), (1, 0)], [1.0, 1.0, 1.0], sigmas)
    assert sigma_between(g, 0, 1) == np.array([[2.0]])
    assert sigma_between(g, 1, 0) == np.array([[3.0]])
    rot = ConnectionGraph(2, 2, [(0, 1), (0, 1)], [1.0, 1.0],
                          [np.eye(2), [[0.0, -1.0], [1.0, 0.0]]])
    assert np.array_equal(sigma_between(rot, 1, 0), [[0.0, 1.0], [-1.0, 0.0]])
