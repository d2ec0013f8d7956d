"""Spectral feasibility: kernels (numeric and structured), projection, switching.

Hand oracle for the sign path 0-1-2 (sigma_01 = +1, sigma_12 = -1):
a kernel vector satisfies f(0) = f(1) and f(1) = -f(2), so ker(L) is
spanned by (1, 1, -1)/sqrt(3).  delta_0 - delta_2 has inner product
(1 - (-1))/sqrt(3) = 2/sqrt(3) with it (infeasible), while
alpha = delta_0, beta(2) = -1 gives (1 + (-1))/sqrt(3) = 0 (feasible).
"""

from __future__ import annotations

import importlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conbeck import feasibility, graph
from conbeck.errors import FeasibilityError, InvalidGraphError
from conbeck.feasibility import (
    KERNEL_TOL,
    NEAR_KERNEL_RATIO,
    feasibility_switching,
    is_feasible,
    kernel_numeric,
    kernel_structured,
    project_feasible,
    require_feasible,
)
from conbeck.graph import (
    ConnectionGraph,
    apply_B,
    apply_BT,
    fundamental_cycles,
    is_consistent,
    switch,
)
from conbeck.manifold import (
    epsilon_graph,
    procrustes_connection,
    sample_torus,
    tangent_frames,
)
from conbeck.solver import solve_regularized, wasserstein
from conbeck.toolkit import distance_matrix

from conftest import (
    curved_sphere_patch,
    flat_sphere_patch,
    make_path_graph,
    near_flat_sphere_patch,
    random_connected_graph,
    random_density,
    twisted_ring,
)
from oracles import bfs_tree, random_orthogonal


# ------------------------------------------------------------------ kernels


def test_kernel_trivial_path_is_constants():
    g = make_path_graph(4, 1)
    basis = kernel_numeric(g)
    assert basis.dimension == 1
    f = basis.vectors[0].reshape(-1)
    assert np.abs(np.abs(f) - 0.5).max() <= 1e-12  # constant, normalized
    assert np.ptp(np.sign(f)) == 0  # same sign everywhere


def test_kernel_sign_path_numeric(sign_path):
    basis = kernel_numeric(sign_path)
    assert basis.dimension == 1
    expected = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    overlap = abs(float(np.vdot(basis.vectors[0].reshape(-1), expected)))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_kernel_diamond_trivial(diamond):
    basis = kernel_numeric(diamond)
    assert basis.dimension == 0
    assert basis.inner_products(np.ones((4, 1))).size == 0


def test_kernel_residual_invariant():
    rng = np.random.default_rng(21)
    for consistent in (True, False, None):
        g = random_connected_graph(rng, n=8, d=3, extra_edges=3, consistent=consistent)
        basis = kernel_numeric(g)
        for f in basis.vectors:
            assert np.linalg.norm(apply_BT(g, f)) <= basis.tol
        if basis.dimension:
            gram = np.einsum("knd,lnd->kl", basis.vectors, basis.vectors)
            assert np.abs(gram - np.eye(basis.dimension)).max() <= 1e-8


def test_kernel_structured_tree_full_dimension():
    rng = np.random.default_rng(22)
    g = random_connected_graph(rng, n=7, d=3, extra_edges=0)
    basis = kernel_structured(g)
    assert basis.dimension == 3
    for f in basis.vectors:
        assert np.linalg.norm(apply_BT(g, f)) <= 1e-8


def test_kernel_structured_sign_path(sign_path):
    basis = kernel_structured(sign_path)
    assert basis.dimension == 1
    expected = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    overlap = abs(float(np.vdot(basis.vectors[0].reshape(-1), expected)))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_kernel_structured_rotation_triangle_empty():
    # Triangle with one quarter-turn: the cycle product is a 90 degree
    # rotation whose fixed space is {0}.
    rot = [[0.0, -1.0], [1.0, 0.0]]
    g = ConnectionGraph.from_edges(
        3,
        2,
        [
            (0, 1, 1.0, np.eye(2)),
            (0, 2, 1.0, np.eye(2)),
            (1, 2, 1.0, rot),
        ],
    )
    basis = kernel_structured(g)
    assert basis.dimension == 0


def test_kernel_structured_matches_numeric_randomized():
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(10):
        n = int(rng.integers(4, 12))
        d = int(rng.integers(1, 4))
        consistent = [True, False, None][int(rng.integers(0, 3))]
        extra = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=n, d=d, extra_edges=extra, consistent=consistent)
        cases.append(g)
    torus_cloud = sample_torus(10, 40)
    torus_skeleton = epsilon_graph(torus_cloud, 3.0)
    cases.append(
        procrustes_connection(tangent_frames(torus_cloud, torus_skeleton, 2, 3.0), torus_skeleton)
    )
    cases.append(curved_sphere_patch())
    # near-flat: holonomy defects above tol, yet eigenvalues under the dense threshold
    cases += [near_flat_sphere_patch(rng, noise)[0] for noise in (1e-9, 1e-7, 1e-5)]
    # flat, with a pendant vertex on a 1e-12 edge: a non-kernel mode under the threshold
    g = random_connected_graph(rng, n=24, d=2, extra_edges=20, consistent=True)
    edges = np.vstack([g.edge_index, [[0, g.n]]])
    sigmas = np.vstack([g.sigmas, [np.eye(2)]])
    cases.append(ConnectionGraph(g.n + 1, 2, edges, np.append(g.weights, 1e-12), sigmas))
    for g in cases:
        struct = kernel_structured(g)
        numeric = kernel_numeric(g)
        assert struct.dimension == numeric.dimension
        if struct.dimension:
            gram = np.einsum("knd,lnd->kl", struct.vectors, numeric.vectors)
            angles = np.linalg.svd(gram, compute_uv=False)
            assert angles.min() >= 1 - 1e-7


def test_kernel_flat_sphere_patch_is_parallel_sections():
    # sigma_ij = tau_i^T tau_j with Haar tau: ker L = {f(i) = tau_i^T x}
    g, tau = flat_sphere_patch(np.random.default_rng(31), 5, 8, 0.6)
    basis = kernel_numeric(g)
    assert basis.dimension == 2
    flat = basis.vectors.reshape(2, -1)
    assert np.abs(flat @ flat.T - np.eye(2)).max() <= 1e-12
    for f in basis.vectors:
        assert np.linalg.norm(apply_BT(g, f)) <= 1e-10
    sections = np.einsum("nba,kb->kna", tau, np.eye(2)).reshape(2, -1)
    q, _ = np.linalg.qr(sections.T)
    cosines = np.linalg.svd(flat @ q, compute_uv=False)
    assert cosines.min() >= 1 - 1e-8


def test_kernel_is_cached_on_the_graph(sign_path, monkeypatch):
    calls = []
    real = feasibility.kernel_structured
    monkeypatch.setattr(feasibility, "kernel_structured", lambda g: calls.append(g) or real(g))
    first = sign_path.kernel
    assert sign_path.kernel is first
    assert is_feasible(sign_path, np.zeros((3, 1)), np.zeros((3, 1)))
    assert len(calls) == 1


def test_kernel_same_whether_or_not_the_projection_ran_first():
    fresh, projected = twisted_ring(), twisted_ring()
    project_feasible(projected, np.zeros((projected.n, 3)))
    assert projected.near_kernel_modes[0].shape[1] > 2 * projected.d + 2
    assert fresh.kernel.dimension == 1
    assert np.array_equal(fresh.kernel.vectors, projected.kernel.vectors)


def _tree_bound_decides(g):
    """Whether ``g.kernel`` came from the spanning-tree bound: an empty basis
    found without the near-kernel modes (the parallel sections have d >= 1)."""
    return g.kernel.dimension == 0 and "near_kernel_modes" not in vars(g)


def _bound_test_graph(seed, n, d, chords, kind):
    """A random connected graph: ``curved`` has Haar-random sigmas,
    ``near-flat`` a flat connection turned by rotations within about 1e-6 of
    the identity, ``pendant`` a curved one with an extra vertex on a 1e-12 edge."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, d, chords, consistent=True if kind == "near-flat" else None)
    if kind == "near-flat":
        q, r = np.linalg.qr(np.eye(d) + 1e-6 * rng.standard_normal((g.m, d, d)))
        turns = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        return ConnectionGraph(g.n, d, g.edge_index, g.weights, g.sigmas @ turns)
    if kind == "pendant":
        edges = np.vstack([g.edge_index, [[0, g.n]]])
        sigmas = np.vstack([g.sigmas, [random_orthogonal(d, rng)]])
        return ConnectionGraph(g.n + 1, d, edges, np.append(g.weights, 1e-12), sigmas)
    return g


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 16),
    d=st.integers(1, 3),
    chords=st.integers(1, 8),
    kind=st.sampled_from(["curved", "near-flat", "pendant"]),
)
def test_tree_bound_only_empties_a_kernel_it_proves_empty(seed, n, d, chords, kind):
    g = _bound_test_graph(seed, n, d, chords, kind)
    projected = _bound_test_graph(seed, n, d, chords, kind)
    project_feasible(projected, np.zeros((projected.n, d)))
    if _tree_bound_decides(g):
        assert kind == "curved"
        theta = KERNEL_TOL * max(2.0 * g.weighted_degrees.max(), 1.0)
        assert g.kernel.tol == theta
        assert np.linalg.eigvalsh(g.laplacian_matrix.toarray()).min() > theta
        assert kernel_numeric(g).dimension == 0
    assert np.array_equal(g.kernel.vectors, projected.kernel.vectors)


def test_tree_bound_leaves_fixed_axes_and_near_flat_patches_to_the_eigensolver():
    rng = np.random.default_rng(43)
    near_flat = [near_flat_sphere_patch(rng, noise)[0] for noise in (1e-9, 1e-7, 1e-5)]
    cases = [twisted_ring()] + near_flat
    assert not any(_tree_bound_decides(g) for g in cases)
    assert [g.kernel.dimension for g in cases] == [1, 2, 2, 2]
    assert _tree_bound_decides(curved_sphere_patch())


def test_kernel_structured_memory_linear_in_chords():
    # complete graph K_50, d = 2: 1176 chords; a square factor of the
    # (chords d) x d stack would take (chords d)^2 doubles = 44 MB
    n, d = 50, 2
    rng = np.random.default_rng(34)
    tau = np.array([random_orthogonal(d, rng) for _ in range(n)])
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    sigmas = np.einsum("eba,ebc->eac", tau[pairs[:, 0]], tau[pairs[:, 1]])
    g = ConnectionGraph(n, d, pairs, np.ones(len(pairs)), sigmas)
    chords = g.m - (n - 1)
    assert chords > 1000
    tracemalloc.start()
    try:
        basis = kernel_structured(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dimension == d
    assert peak < (chords * d) ** 2 * 8 / 20


def test_flat_kernel_builds_no_incidence_matrix():
    g, _ = flat_sphere_patch(np.random.default_rng(35))
    assert g.kernel.dimension == g.d
    assert "incidence_matrix" not in vars(g)
    assert "incidence_matrix_T" not in vars(g)


def test_pickled_graph_keeps_kernel_not_operators(sign_path):
    sign_path.laplacian_matrix
    basis = sign_path.kernel
    copy = pickle.loads(pickle.dumps(sign_path))
    assert "laplacian_matrix" not in vars(copy)
    assert np.array_equal(copy.kernel.vectors, basis.vectors)
    assert not copy.sigmas.flags.writeable
    assert np.array_equal(copy.laplacian_matrix.toarray(), sign_path.laplacian_matrix.toarray())


@pytest.mark.parametrize(
    "make", [lambda: flat_sphere_patch(np.random.default_rng(3))[0], curved_sphere_patch]
)
def test_one_spanning_tree_per_graph(monkeypatch, make):
    # check reads is_consistent and then the kernel: one BFS tree serves both
    built = []
    real = graph._spanning_tree
    monkeypatch.setattr(graph, "_spanning_tree", lambda g, root: built.append(root) or real(g, root))
    g = make()
    is_consistent(g)
    g.kernel
    fundamental_cycles(g)
    assert built == [0]
    assert not any(arr.flags.writeable for arr in g._tree)
    assert "_tree" not in vars(pickle.loads(pickle.dumps(g)))


def test_kernel_dimension_at_most_d():
    rng = np.random.default_rng(24)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=8, d=d, extra_edges=2)
        assert kernel_numeric(g).dimension <= d


# -------------------------------------------------------------- feasibility


def test_sign_path_dirac_pair_infeasible(sign_path):
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [1.0]])
    assert not is_feasible(sign_path, alpha, beta)
    with pytest.raises(FeasibilityError) as err:
        require_feasible(sign_path, alpha, beta)
    assert err.value.components
    k, ip = err.value.components[0]
    assert k == 0
    assert abs(abs(ip) - 2.0 / np.sqrt(3.0)) <= 1e-9
    assert "component 0" in str(err.value)


def test_sign_path_negative_target_feasible(sign_path):
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [-1.0]])
    assert is_feasible(sign_path, alpha, beta)


def test_kernel_vector_as_difference_infeasible(sign_path):
    f = kernel_numeric(sign_path).vectors[0]
    assert not is_feasible(sign_path, f, np.zeros_like(f))


def test_diamond_everything_feasible(diamond):
    rng = np.random.default_rng(25)
    alpha = rng.standard_normal((4, 1))
    beta = rng.standard_normal((4, 1))
    assert is_feasible(diamond, alpha, beta)


def test_trivial_d1_feasible_iff_equal_mass():
    rng = np.random.default_rng(26)
    g = random_connected_graph(rng, n=7, d=1, extra_edges=3, consistent=True)
    # force trivial connection: switched trivial with tau = +-1 is still
    # sign-valued; build explicitly instead
    g = make_path_graph(7, 1)
    alpha = rng.uniform(0.0, 1.0, size=(7, 1))
    beta_equal = rng.uniform(0.0, 1.0, size=(7, 1))
    beta_equal *= alpha.sum() / beta_equal.sum()
    assert is_feasible(g, alpha, beta_equal)
    assert not is_feasible(g, alpha, beta_equal + 0.01)


NON_FINITE_CALLS = {
    "is_feasible": (is_feasible, ("alpha", "beta")),
    "solve_regularized": (solve_regularized, ("alpha", "beta")),
    "wasserstein": (wasserstein, ("alpha", "beta")),
    "distance_matrix": (lambda g, a, b: distance_matrix(g, [a, b]), ("field 0", "field 1")),
    "project_feasible": (
        lambda g, a, b: project_feasible(g, np.stack([a, b])),
        ("field 0", "field 1"),
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad", [0, 1])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_field_is_refused_naming_field_and_vertex(call, bad, value):
    # NaN fails every comparison and inf makes the feasibility scale inf, so
    # without the check both read as feasible and the ascent diverges at once
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, n=8, d=2, extra_edges=4)
    fields = [apply_B(g, rng.standard_normal((g.m, 2))), np.zeros((g.n, 2))]
    fields[bad][5, 1] = value
    fields[bad][6, 0] = value
    run, names = NON_FINITE_CALLS[call]
    with pytest.raises(InvalidGraphError, match=f"^{names[bad]} is not finite at vertex 5:"):
        run(g, *fields)


# ---------------------------------------------------------------- projection


def test_project_feasible_noop_when_orthogonal(sign_path):
    f = np.array([[1.0], [-1.0], [0.0]])  # orthogonal to (1,1,-1)
    out = project_feasible(sign_path, f)
    assert np.abs(out - f).max() <= 1e-12


def test_project_feasible_kills_kernel_vector(sign_path):
    f = kernel_numeric(sign_path).vectors[0]
    out = project_feasible(sign_path, f)
    assert np.abs(out).max() <= 1e-10


def test_project_feasible_random_becomes_feasible(sign_path):
    rng = np.random.default_rng(27)
    f = rng.standard_normal((3, 1))
    out = project_feasible(sign_path, f)
    zero = project_feasible(sign_path, np.zeros((3, 1)))
    assert is_feasible(sign_path, out, zero)


def test_project_feasible_stack_matches_single_fields():
    rng = np.random.default_rng(30)
    g = random_connected_graph(rng, n=9, d=2, extra_edges=4, consistent=True)
    stack = rng.standard_normal((4, 9, 2))
    out = project_feasible(g, stack)
    assert out.shape == stack.shape
    for field, projected in zip(stack, out):
        single = project_feasible(g, field)
        assert single.shape == (9, 2)
        assert np.abs(projected - single).max() <= 1e-12


def _dense_projection(g, stack):
    """project_feasible's rule on a full dense eigendecomposition of L."""
    eigs, vecs = np.linalg.eigh(g.laplacian_matrix.toarray())
    num_modes = int(np.count_nonzero(eigs <= NEAR_KERNEL_RATIO * max(eigs[-1], 1.0)))
    modes = vecs[:, :num_modes]
    rows = stack.reshape(stack.shape[0], -1)
    return (rows - (rows @ modes) @ modes.T).reshape(stack.shape), num_modes


def test_project_feasible_sparse_matches_dense():
    rng = np.random.default_rng(35)
    curved = curved_sphere_patch()
    low = np.linalg.eigvalsh(curved.laplacian_matrix.toarray())[:3]
    assert low[1] - low[0] <= 1e-9 < low[2] - low[1]  # a degenerate near-kernel pair
    # a long path has nine modes under the threshold: k grows from 4 to 16
    for g, count in [(curved, 2), (make_path_graph(400, 1), 9)]:
        assert g.n * g.d > feasibility.ARPACK_MIN_NCV
        assert feasibility._lowest_modes(g)[0].shape == (g.n * g.d, count)
        stack = rng.standard_normal((3, g.n, g.d))
        out = project_feasible(g, stack)
        expected, used = _dense_projection(g, stack)
        assert used == count
        assert np.abs(out - expected).max() <= 1e-12
        assert np.array_equal(out, project_feasible(g, stack))


def test_lowest_modes_factor_the_shifted_laplacian_once(monkeypatch):
    import scipy.sparse.linalg as spla

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    factored, shift_invert_k = [], []
    splu, eigsh = spla.splu, spla.eigsh

    def counting_splu(*args, **kwargs):
        factored.append(args[0].shape)
        return splu(*args, **kwargs)

    def recording_eigsh(lap, k, **kwargs):
        if kwargs.get("sigma") is not None:
            shift_invert_k.append(k)
        return eigsh(lap, k, **kwargs)

    # eigsh factors L - sigma I through its own module's splu unless it is
    # handed the inverse
    for module in (spla, arpack):
        monkeypatch.setattr(module, "splu", counting_splu)
    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    g = make_path_graph(400, 1)
    vecs, vals, scale = feasibility._lowest_modes(g)
    monkeypatch.undo()
    assert shift_invert_k == [4, 8, 16]
    assert factored == [(400, 400)]
    eigs, dense = np.linalg.eigh(g.laplacian_matrix.toarray())
    assert vals.size == 9 and abs(scale - max(eigs[-1], 1.0)) <= 1e-10
    assert np.abs(vals - eigs[:9]).max() <= 1e-10
    # the path's eigenvalues are simple: each mode is the dense one up to sign
    assert np.abs(np.abs(dense[:, :9].T @ vecs) - np.eye(9)).max() <= 1e-10


def test_project_feasible_num_modes_override(diamond):
    rng = np.random.default_rng(29)
    f = rng.standard_normal((4, 1))
    # diamond kernel is empty: the default projection is the identity
    assert np.abs(project_feasible(diamond, f) - f).max() == 0.0


# ----------------------------------------------------------------- switching


def test_feasibility_switching_identity_on_trivial():
    g = make_path_graph(5, 2)
    tau = feasibility_switching(g)
    assert np.abs(tau - np.eye(2)).max() == 0.0


def test_feasibility_switching_sign_path(sign_path):
    tau = feasibility_switching(sign_path, root=0)
    assert tau.reshape(-1).tolist() == [1.0, 1.0, -1.0]
    switched = switch(sign_path, tau)
    assert np.abs(switched.sigmas - 1.0).max() <= 1e-12
    # the previously infeasible Dirac pair becomes feasible
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [1.0]])
    assert is_feasible(switched, alpha, beta)


def test_feasibility_switching_consistent_gives_trivial():
    rng = np.random.default_rng(30)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=8, d=d, extra_edges=3, consistent=True)
        switched = switch(g, feasibility_switching(g))
        assert np.abs(switched.sigmas - np.eye(d)).max() <= 1e-9


def test_feasibility_switching_densities_always_feasible():
    rng = np.random.default_rng(31)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        consistent = [True, False, None][int(rng.integers(0, 3))]
        g = random_connected_graph(rng, n=8, d=d, extra_edges=3, consistent=consistent)
        switched = switch(g, feasibility_switching(g))
        alpha = random_density(rng, 8, d)
        beta = random_density(rng, 8, d)
        assert is_feasible(switched, alpha, beta)


def test_feasibility_switching_tree_edges_trivial():
    rng = np.random.default_rng(32)
    g = random_connected_graph(rng, n=9, d=2, extra_edges=3)
    switched = switch(g, feasibility_switching(g, root=0))
    _, parent = bfs_tree(g, 0)
    for e, (i, j) in enumerate(g.edge_index):
        if parent[i] == j or parent[j] == i:
            assert np.abs(switched.sigmas[e] - np.eye(2)).max() <= 1e-12
