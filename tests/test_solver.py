"""Transport solver: dual machinery, ascent, recovery, oracles.

Hand oracles frozen here:

* Single edge, d=1, trivial sigma, w=1: with phi = (t, -t) the edge value
  B^T phi = 2t, so D(phi) = 2t - (2|t| - 1)_+^2 / (2 lam); with sigma = -1
  the same numbers hold for phi = (t, t) and c = (1, 1).
* Diamond (conftest): unique flow magnitudes (0.75, 0.25, 0.75, 0.25),
  unregularized cost 2, regularized cost at lam=1 equal to 2.625.
* Path 0-1-2-3, d=2, trivial connection, pseudo-Dirac endpoints:
  back-substitution on B J = alpha - beta gives channel-0 flow
  (0.75, 0.5, 0.25) and channel-1 flow (0.25, 0.5, 0.75).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from conbeck import solver
from conbeck.errors import FeasibilityError, InvalidGraphError, NonConvergenceError
from conbeck.feasibility import kernel_numeric
from conbeck.graph import ConnectionGraph, apply_B, apply_BT, incidence, switch
from conbeck.manifold import epsilon_graph, sample_sphere_patch
from conbeck.solver import (
    SolveOptions,
    dual_feasible_unregularized,
    dual_gradient,
    dual_objective,
    primal_cost,
    recover_primal,
    solve_regularized,
    stable_learning_rate,
    unregularized_cost,
    unregularized_dual_value,
    wasserstein,
    wasserstein_lp,
)

from conftest import (
    curved_sphere_patch,
    make_path_graph,
    random_connected_graph,
    random_density,
)
from oracles import oracle_solve, random_orthogonal


def tree_flow(g, c):
    """Leaf-elimination oracle: the unique flow with B J = c on a tree."""
    assert g.m == g.n - 1, "tree oracle needs a tree"
    c = np.asarray(c, dtype=float).reshape(g.n, g.d).copy()
    flow = np.zeros((g.m, g.d))
    remaining = {e: tuple(map(int, g.edge_index[e])) for e in range(g.m)}
    degree = np.zeros(g.n, dtype=int)
    for i, j in remaining.values():
        degree[i] += 1
        degree[j] += 1
    leaves = [u for u in range(g.n) if degree[u] == 1]
    incident = [[] for _ in range(g.n)]
    for e, (i, j) in remaining.items():
        incident[i].append(e)
        incident[j].append(e)
    done = np.zeros(g.m, dtype=bool)
    while leaves:
        u = leaves.pop()
        edges = [e for e in incident[u] if not done[e]]
        if not edges:
            continue
        e = edges[0]
        i, j = remaining[e]
        sig = g.sigmas[e]
        if u == i:
            flow[e] = c[u]
            c[j] += sig.T @ flow[e]
        else:
            flow[e] = -(sig @ c[u])
            c[i] -= flow[e]
        c[u] = 0.0
        done[e] = True
        other = j if u == i else i
        degree[other] -= 1
        degree[u] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return flow


def pseudo_dirac_pair_path4():
    g = ConnectionGraph.trivial(4, 2, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    alpha = np.full((4, 2), 0.0)
    alpha[:, 1] = 0.25
    alpha[0, 0] = 1.0
    beta = np.full((4, 2), 0.0)
    beta[:, 0] = 0.25
    beta[3, 1] = 1.0
    return g, alpha, beta


# ------------------------------------------------------------ dual objective


def test_dual_objective_zero_phi_is_zero(diamond):
    c = np.array([[1.0], [0.0], [0.0], [-1.0]])
    assert dual_objective(diamond, np.zeros((4, 1)), c, 1.0) == 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("t", [0.2, 0.5, 0.8, 1.7, -2.3])
def test_dual_objective_single_edge_hand_formula(lam, t):
    g = ConnectionGraph.trivial(2, 1, [(0, 1, 1.0)])
    phi = np.array([[t], [-t]])
    c = np.array([[1.0], [-1.0]])
    expected = 2 * t - max(2 * abs(t) - 1.0, 0.0) ** 2 / (2 * lam)
    assert dual_objective(g, phi, c, lam) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("t", [0.3, 0.9, -1.4])
def test_dual_objective_single_edge_sign_flip_variant(t):
    # sigma = -1: B^T phi = phi_0 + phi_1, so phi = (t, t) plays the same
    # role and c = (1, 1) is feasible (the kernel is spanned by (1, -1)).
    g = ConnectionGraph.from_edges(2, 1, [(0, 1, 1.0, [[-1.0]])])
    phi = np.array([[t], [t]])
    c = np.array([[1.0], [1.0]])
    expected = 2 * t - max(2 * abs(t) - 1.0, 0.0) ** 2 / (2 * 1.0)
    assert dual_objective(g, phi, c, 1.0) == pytest.approx(expected, abs=1e-12)


def test_dual_objective_kernel_phi_equals_pairing(sign_path):
    f = kernel_numeric(sign_path).vectors[0]
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [-1.0]])  # feasible pair
    c = alpha - beta
    for scale in (1.0, 10.0, -3.0):
        val = dual_objective(sign_path, scale * f, c, 1.0)
        assert val == pytest.approx(float(np.vdot(scale * f, c)), abs=1e-12)
        assert val == pytest.approx(0.0, abs=1e-10)


# ------------------------------------------------------------- dual gradient


def test_dual_gradient_at_zero_is_difference(diamond):
    c = np.array([[1.0], [0.0], [0.0], [-0.5]])
    grad = dual_gradient(diamond, np.zeros((4, 1)), c, 1.0)
    assert np.abs(grad - c).max() == 0.0


def test_dual_gradient_finite_differences():
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 5:
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=6, d=d, extra_edges=3)
        phi = rng.standard_normal((g.n, d))
        margins = np.abs(
            np.linalg.norm(apply_BT(g, phi), axis=1) - g.weights
        )
        if margins.min() < 1e-3:
            continue  # exclude threshold-straddling edges
        c = rng.standard_normal((g.n, d))
        lam = float(rng.uniform(0.5, 2.0))
        grad = dual_gradient(g, phi, c, lam)
        h = 1e-6
        fd = np.zeros_like(phi).reshape(-1)
        flat = phi.reshape(-1).copy()
        for idx in range(flat.size):
            up = flat.copy()
            up[idx] += h
            dn = flat.copy()
            dn[idx] -= h
            fd[idx] = (
                dual_objective(g, up, c, lam) - dual_objective(g, dn, c, lam)
            ) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad.reshape(-1) - fd).max() / scale <= 1e-5
        checked += 1


# ------------------------------------------------------------ primal recovery


def test_recover_primal_zero_phi(diamond):
    flow = recover_primal(diamond, np.zeros((4, 1)), 1.0)
    assert np.abs(flow).max() == 0.0


def test_recover_primal_single_edge_magnitude():
    # d=1, sigma=-1, w=1, lam=1: B^T phi = phi_0 + phi_1 = 3 gives |J| = 2.
    g = ConnectionGraph.from_edges(2, 1, [(0, 1, 1.0, [[-1.0]])])
    phi = np.array([[1.5], [1.5]])
    flow = recover_primal(g, phi, 1.0)
    assert np.linalg.norm(flow[0]) == pytest.approx(2.0, abs=1e-12)


def test_recover_primal_inactive_edges_exact_zero():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, n=7, d=2, extra_edges=3)
    phi = 1e-3 * rng.standard_normal((g.n, g.d))  # far below the weights
    flow = recover_primal(g, phi, 1.0)
    assert np.all(flow == 0.0)


def test_recover_primal_direction_parallel_to_edge_value():
    rng = np.random.default_rng(42)
    g = random_connected_graph(rng, n=6, d=3, extra_edges=2)
    phi = 5.0 * rng.standard_normal((g.n, g.d))
    flow = recover_primal(g, phi, 2.0)
    gvals = apply_BT(g, phi)
    for e in range(g.m):
        nf = np.linalg.norm(flow[e])
        if nf == 0:
            continue
        cos = float(flow[e] @ gvals[e]) / (nf * np.linalg.norm(gvals[e]))
        assert cos == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- solving


def test_solve_identical_fields_trivial(diamond):
    alpha = np.array([[0.3], [0.2], [0.1], [0.4]])
    flow, phi, report = solve_regularized(diamond, alpha, alpha)
    assert np.abs(flow).max() == 0.0
    assert report.epochs_used == 0
    assert report.converged
    assert report.primal_cost == 0.0


def test_solve_diamond_frozen_values(diamond_problem):
    g, alpha, beta, expected_norms = diamond_problem
    flow, phi, report = solve_regularized(g, alpha, beta, SolveOptions(lam=1.0))
    assert report.converged
    norms = np.linalg.norm(flow, axis=1)
    assert np.abs(norms - expected_norms).max() <= 1e-5
    assert report.primal_cost == pytest.approx(2.625, abs=1e-5)
    assert unregularized_cost(g, flow) == pytest.approx(2.0, abs=1e-5)
    assert report.residual <= 1e-8 * (1 + np.linalg.norm(alpha - beta))
    assert abs(report.gap) <= 1e-6
    # gradient equals constraint residual
    resid = (alpha - beta) - apply_B(g, flow)
    assert np.linalg.norm(resid) == pytest.approx(report.residual, abs=1e-12)


def test_solve_gap_identity_matches_pairing(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    c = alpha - beta
    # at an arbitrary iterate: primal(J_phi) - D(phi) = -<phi, grad D(phi)>
    opts = SolveOptions(lam=1.0, max_epochs=137)
    flow, phi, report = solve_regularized(g, alpha, beta, opts)
    lhs = primal_cost(g, flow, 1.0) - dual_objective(g, phi, c, 1.0)
    rhs = -float(np.vdot(phi, dual_gradient(g, phi, c, 1.0)))
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert report.gap == pytest.approx(lhs, abs=1e-12)


def test_solve_monotone_dual_ascent_default_step(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    c = alpha - beta
    lam = g.w_max
    lr = 5e-3
    phi = np.zeros((g.n, g.d))
    prev = dual_objective(g, phi, c, lam)
    for _ in range(600):
        phi = phi + lr * dual_gradient(g, phi, c, lam)
        cur = dual_objective(g, phi, c, lam)
        assert cur >= prev - 1e-12
        prev = cur


def test_solve_infeasible_raises_with_components(sign_path):
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(FeasibilityError) as err:
        solve_regularized(sign_path, alpha, beta)
    assert err.value.components
    assert "component 0" in str(err.value)


def test_solve_nonconvergence_flagged(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    flow, phi, report = solve_regularized(
        g, alpha, beta, SolveOptions(lam=1.0, max_epochs=3)
    )
    assert not report.converged
    assert report.epochs_used == 3
    assert report.residual > 0


@pytest.mark.parametrize("endpoint", [-1, 3], ids=["negative", "past-n"])
def test_stable_learning_rate_refuses_an_invalid_graph(endpoint):
    g = ConnectionGraph(3, 1, [(0, 1), (1, endpoint)], [1.0, 1.0], np.ones((2, 1, 1)))
    with pytest.raises(InvalidGraphError, match="out of range"):
        stable_learning_rate(g, 1.0)


def test_solve_divergence_raises_with_stable_step(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    stable = stable_learning_rate(g, 1.0)
    opts = SolveOptions(lam=1.0, learning_rate=50 * stable, max_epochs=20000)
    with pytest.raises(NonConvergenceError) as info:
        solve_regularized(g, alpha, beta, opts)
    message = str(info.value)
    assert "diverged at epoch" in message
    assert repr(50 * stable) in message and repr(stable) in message
    epoch = int(message.split("epoch ")[1].split(":")[0])
    assert 0 < epoch < 1000


def test_solve_rejects_nonpositive_lambda(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    with pytest.raises(InvalidGraphError):
        solve_regularized(g, alpha, beta, SolveOptions(lam=0.0))


def test_solve_path_matches_back_substitution():
    g, alpha, beta = pseudo_dirac_pair_path4()
    expected = tree_flow(g, alpha - beta)
    assert np.abs(expected[:, 0] - [0.75, 0.5, 0.25]).max() <= 1e-15
    assert np.abs(expected[:, 1] - [0.25, 0.5, 0.75]).max() <= 1e-15
    opts = SolveOptions(
        lam=0.01,
        learning_rate=stable_learning_rate(g, 0.01),
        max_epochs=200000,
        grad_tol=1e-10,
    )
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.converged
    assert np.abs(flow - expected).max() <= 1e-6


def test_solve_switching_invariance():
    # switching the graph and transforming fields blockwise by tau^T
    # preserves per-edge flow norms and both costs
    rng = np.random.default_rng(43)
    for _ in range(3):
        d = int(rng.integers(1, 4))
        base = random_connected_graph(rng, n=7, d=d, extra_edges=3, consistent=True)
        # trivial connection on the same topology: densities are feasible there
        g = ConnectionGraph(
            base.n, d, base.edge_index, base.weights, np.tile(np.eye(d), (base.m, 1, 1))
        )
        tau = np.array([random_orthogonal(d, rng) for _ in range(g.n)])
        g2 = switch(g, tau)
        alpha = random_density(rng, g.n, d)
        beta = random_density(rng, g.n, d)
        a2 = np.einsum("nba,nb->na", tau, alpha)
        b2 = np.einsum("nba,nb->na", tau, beta)
        opts = SolveOptions(lam=1.0, learning_rate=stable_learning_rate(g, 1.0), max_epochs=100000)
        f1, _, r1 = solve_regularized(g, alpha, beta, opts)
        f2, _, r2 = solve_regularized(g2, a2, b2, opts)
        assert r1.converged and r2.converged
        n1 = np.linalg.norm(f1, axis=1)
        n2 = np.linalg.norm(f2, axis=1)
        assert np.abs(n1 - n2).max() <= 1e-6
        assert abs(r1.primal_cost - r2.primal_cost) <= 1e-5


def edge_major_ascent(g, alpha, beta, opts):
    """The edge-major fixed-step loop that :func:`solve_regularized` ran
    before its component-major rewrite: ``(flow, phi, epochs, status)``,
    with status ``"converged"``, ``"cut"`` or ``"diverged"``."""
    lam = g.w_max if opts.lam is None else opts.lam
    c_vec = (np.asarray(alpha, dtype=float) - np.asarray(beta, dtype=float)).reshape(-1)
    grad_tol = opts.grad_tol
    if grad_tol is None:
        grad_tol = 1e-8 * (1.0 + float(np.linalg.norm(c_vec)))
    bmat, bmat_t, w = g.incidence_matrix, g.incidence_matrix_T, g.weights
    phi = np.zeros(g.n * g.d)
    epochs = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            gvals = (bmat_t @ phi).reshape(g.m, g.d)
            norms = np.linalg.norm(gvals, axis=1)
            active = norms > w
            coef = np.where(active, (norms - w) / (lam * np.where(active, norms, 1.0)), 0.0)
            flow = coef[:, None] * gvals
            grad = c_vec - bmat @ flow.reshape(-1)
            grad_norm = float(np.linalg.norm(grad))
            if not math.isfinite(grad_norm):
                return flow, phi, epochs, "diverged"
            if grad_norm <= grad_tol:
                return flow, phi, epochs, "converged"
            if epochs >= opts.max_epochs:
                return flow, phi, epochs, "cut"
            phi += opts.learning_rate * grad
            epochs += 1


def edge_major_flow(g, phi, lam):
    """The closed-form flow by the edge-major formulas: ``B^T phi`` as an
    (m, d) array, its row norms and the ``np.where`` shrink."""
    gvals = apply_BT(g, phi)
    norms = np.linalg.norm(gvals, axis=1)
    active = norms > g.weights
    coef = np.where(active, (norms - g.weights) / (lam * np.where(active, norms, 1.0)), 0.0)
    return coef[:, None] * gvals


def edge_major_gradient(g, phi, c, lam):
    return c - apply_B(g, edge_major_flow(g, phi, lam))


def edge_major_dual(g, phi, c, lam):
    excess = np.linalg.norm(apply_BT(g, phi), axis=1) - g.weights
    penalty = np.where(excess > 0, excess, 0.0)
    return float(np.vdot(phi, c) - (penalty @ penalty) / (2.0 * lam))


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def random_problems(seed_base):
    """Four random connected problems per d in {1, 2, 3, 8} (d = 8 takes
    the edge-major norm), each ``(g, alpha, beta, lam)`` with ``alpha`` in
    the range of B, so every pair is feasible."""
    for d in (1, 2, 3, 8):
        rng = np.random.default_rng(seed_base + d)
        for _ in range(4):
            g = random_connected_graph(rng, n=int(rng.integers(6, 14)), d=d, extra_edges=6)
            alpha = apply_B(g, rng.standard_normal((g.m, d)))
            yield g, alpha, np.zeros((g.n, d)), float(rng.uniform(0.2, 2.0))


def assert_same_iterates(g, alpha, beta, opts):
    flow, phi, report = solve_regularized(g, alpha, beta, opts)
    ref_flow, ref_phi, ref_epochs, status = edge_major_ascent(g, alpha, beta, opts)
    assert status != "diverged"
    assert report.converged == (status == "converged")
    assert report.epochs_used == ref_epochs
    assert np.array_equal(flow, ref_flow) and np.array_equal(phi.reshape(-1), ref_phi)
    # the same signed zeros, so the saved flow is the same text
    assert np.array_equal(np.signbit(flow), np.signbit(ref_flow))
    return report


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_solve_iterates_equal_edge_major_loop(d):
    # d = 8 takes the edge-major norm inside the component-major loop
    rng = np.random.default_rng(100 + d)
    converged = 0
    for _ in range(4):
        g = random_connected_graph(rng, n=int(rng.integers(6, 14)), d=d, extra_edges=6)
        alpha = apply_B(g, rng.standard_normal((g.m, d)))  # in the range of B: feasible
        beta = np.zeros((g.n, d))
        lam = float(rng.uniform(0.2, 2.0))
        opts = SolveOptions(lam=lam, learning_rate=stable_learning_rate(g, lam), max_epochs=4000)
        converged += assert_same_iterates(g, alpha, beta, opts).converged
    assert converged  # the stop test is exercised, not only the cut-off


def test_solve_iterates_equal_edge_major_loop_at_cutoff(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    for epochs in (0, 1, 7):
        report = assert_same_iterates(g, alpha, beta, SolveOptions(lam=1.0, max_epochs=epochs))
        assert not report.converged and report.epochs_used == epochs


def test_solve_diverges_at_edge_major_loop_epoch(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    opts = SolveOptions(lam=1.0, learning_rate=50 * stable_learning_rate(g, 1.0), max_epochs=20000)
    _, _, epochs, status = edge_major_ascent(g, alpha, beta, opts)
    assert status == "diverged"
    with pytest.raises(NonConvergenceError, match=f"diverged at epoch {epochs}:"):
        solve_regularized(g, alpha, beta, opts)


def test_public_dual_helpers_equal_edge_major_formulas():
    checked = active = 0
    for g, alpha, beta, lam in random_problems(200):
        c = alpha - beta
        rng = np.random.default_rng(g.m)
        # phi = 0 gives every edge a zero norm; the scales mix active and
        # inactive edges
        for scale in (0.0, 0.3, 1.0, 3.0):
            phi = scale * rng.standard_normal((g.n, g.d))
            flow = recover_primal(g, phi, lam)
            assert flow.flags.c_contiguous
            assert_same_bits(flow, edge_major_flow(g, phi, lam))
            assert_same_bits(dual_gradient(g, phi, c, lam), edge_major_gradient(g, phi, c, lam))
            assert dual_objective(g, phi, c, lam) == edge_major_dual(g, phi, c, lam)
            checked += 1
            active += bool(np.any(flow))
    assert checked == 64 and 0 < active < checked


def test_solve_report_equals_public_helpers_at_its_point():
    converged = 0
    for g, alpha, beta, lam in random_problems(100):
        c = alpha - beta
        for epochs in (0, 3, 4000):
            opts = SolveOptions(lam=lam, learning_rate=stable_learning_rate(g, lam), max_epochs=epochs)
            flow, phi, report = solve_regularized(g, alpha, beta, opts)
            assert_same_bits(flow, recover_primal(g, phi, lam))
            assert report.dual_value == dual_objective(g, phi, c, lam)
            assert report.residual == float(np.linalg.norm(dual_gradient(g, phi, c, lam)))
            assert report.primal_cost == primal_cost(g, flow, lam)
            assert report.gap == report.primal_cost - report.dual_value
            converged += report.converged
    assert converged == 16  # every 4 000-epoch solve stops on the tolerance


# ---------------------------------------------------------------- working set
#
# On a graph with m d >= 1 024 the ascent evaluates most epochs on a working
# set of edges; these pin that its iterates, flow and divergence epoch are
# still those of the edge-major loop, bit for bit.


def localized_pair(cloud, d, rng):
    """Two Gaussian bumps (width 0.05) around vertices 40 and 250 of the
    cloud, each carrying one random d-vector; the flow between them leaves
    most edges of the patch inactive."""

    def bump(center):
        weight = np.exp(-((cloud - cloud[center]) ** 2).sum(axis=1) / (2 * 0.05**2))
        return weight[:, None] * rng.standard_normal(d)[None]

    return bump(40), bump(250)


def patch_problem(d):
    """``sample_sphere_patch(12, 24)`` at eps 0.3 (n = 288, m = 4 260): the
    Procrustes connection for d = 2, random orthogonal sigmas otherwise
    (curved, so every pair is feasible); two localized fields, the stable
    step and a tolerance of 0.12 |c|."""
    rng = np.random.default_rng(300 + d)
    cloud, _, _ = sample_sphere_patch(12, 24)
    if d == 2:
        g = curved_sphere_patch(12, 24, 0.3)
    else:
        skeleton = epsilon_graph(cloud, 0.3)
        sigmas = np.array([random_orthogonal(d, rng) for _ in range(skeleton.m)])
        g = ConnectionGraph(cloud.shape[0], d, skeleton.edge_index, skeleton.weights, sigmas)
    alpha, beta = localized_pair(cloud, d, rng)
    opts = SolveOptions(
        learning_rate=stable_learning_rate(g),
        grad_tol=0.12 * float(np.linalg.norm(alpha - beta)),
        max_epochs=20000,
    )
    return g, alpha, beta, opts


@pytest.fixture(scope="module")
def sphere_patch_problem():
    return patch_problem(2)


def count_calls(monkeypatch, name):
    """Count the calls of the ``_Dual`` method ``name``."""
    calls = []
    method = getattr(solver._Dual, name)

    def counted(self, phi):
        calls.append(1)
        return method(self, phi)

    monkeypatch.setattr(solver._Dual, name, counted)
    return calls


def count_full_evaluations(monkeypatch):
    """Count the calls of ``_Dual.evaluate``, the evaluation on every edge."""
    return count_calls(monkeypatch, "evaluate")


def test_solve_on_a_working_set_equals_edge_major_loop(sphere_patch_problem):
    g, alpha, beta, opts = sphere_patch_problem
    assert g.m * g.d >= 2 * solver._MIN_LEFT_OUT_ROWS
    assert assert_same_iterates(g, alpha, beta, opts).converged
    for epochs in (0, 1, 7):
        cut = SolveOptions(
            learning_rate=opts.learning_rate, grad_tol=opts.grad_tol, max_epochs=epochs
        )
        report = assert_same_iterates(g, alpha, beta, cut)
        assert not report.converged and report.epochs_used == epochs


def test_solve_evaluates_every_edge_in_under_a_tenth_of_the_epochs(
    sphere_patch_problem, monkeypatch
):
    g, alpha, beta, opts = sphere_patch_problem
    calls = count_full_evaluations(monkeypatch)
    _, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.converged and report.epochs_used > 1000
    assert 0 < len(calls) < report.epochs_used / 10


@pytest.mark.parametrize("d", [3, 8])
def test_solve_on_a_working_set_with_random_sigmas_equals_edge_major_loop(d, monkeypatch):
    # d = 8 takes the np.linalg.norm branch on the working set too
    g, alpha, beta, opts = patch_problem(d)
    calls = count_full_evaluations(monkeypatch)
    report = assert_same_iterates(g, alpha, beta, opts)
    assert report.converged
    assert len(calls) < report.epochs_used / 2  # the working set ran


def test_solve_slices_no_working_set_that_the_bound_refuses_at_once(
    sphere_patch_problem, monkeypatch
):
    # at 12 times the stable step the ascent oscillates without diverging,
    # and each working set fails the bound at the first epoch after its anchor
    g, alpha, beta, opts = sphere_patch_problem
    opts = SolveOptions(learning_rate=12 * opts.learning_rate, max_epochs=300)
    anchors, edge_sets = [], []
    take, edges_init = solver._Dual._anchor, solver._Edges.__init__

    def counted_anchor(self, phi):
        anchors.append(1)
        take(self, phi)

    def counted_edges(self, *args):
        edge_sets.append(1)
        edges_init(self, *args)

    monkeypatch.setattr(solver._Dual, "_anchor", counted_anchor)
    monkeypatch.setattr(solver._Edges, "__init__", counted_edges)
    report = assert_same_iterates(g, alpha, beta, opts)
    assert not report.converged and report.epochs_used == 300
    assert len(edge_sets) == 1  # every edge's; no working set was sliced
    assert 5 <= len(anchors) < 30  # refused sets are retried ever more rarely


@pytest.mark.parametrize("d", [1, 5])
def test_every_restricted_epoch_has_the_gradient_of_a_full_evaluation(d, monkeypatch):
    # at 12 times the stable step the ascent oscillates, so phi moves far
    # from each anchor and the bound is tested near where it fails
    g, alpha, beta, opts = patch_problem(d)
    reference = solver._Dual(g, alpha - beta, g.w_max)
    evaluate_near = solver._Dual.evaluate_near
    restricted = []

    def audited(self, phi):
        evaluate_near(self, phi)
        if self.restricted:
            reference.evaluate(phi)
            assert_same_bits(self.grad, reference.grad)
            restricted.append(1)

    monkeypatch.setattr(solver._Dual, "evaluate_near", audited)
    for scale in (1, 3, 12):
        step = SolveOptions(
            learning_rate=scale * opts.learning_rate, grad_tol=opts.grad_tol, max_epochs=6000
        )
        # d = 5 diverges at 12 times the step; the epochs before are audited
        with contextlib.suppress(NonConvergenceError):
            solve_regularized(g, alpha, beta, step)
    assert restricted


def test_solve_backs_off_from_anchors_that_leave_out_too_few_edges(
    sphere_patch_problem, monkeypatch
):
    # two standard-normal fields put flow on most edges, so each anchor
    # is declined
    g, _, _, opts = sphere_patch_problem
    rng = np.random.default_rng(17)
    alpha, beta = rng.standard_normal((2, g.n, g.d))
    anchors = count_calls(monkeypatch, "_anchor")
    opts = SolveOptions(learning_rate=opts.learning_rate, max_epochs=2000)
    _, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.epochs_used == 2000
    assert 0 < len(anchors) < report.epochs_used / 10


def test_solve_on_a_graph_below_the_floor_backs_off_its_anchors(
    diamond_problem, monkeypatch
):
    g, alpha, beta, _ = diamond_problem
    assert g.m * g.d < solver._MIN_LEFT_OUT_ROWS
    anchors = count_calls(monkeypatch, "_anchor")
    opts = SolveOptions(lam=1.0, learning_rate=1e-3, grad_tol=0.0, max_epochs=3000)
    _, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.epochs_used == 3000
    assert 0 < len(anchors) <= 7 + report.epochs_used / 64  # one evaluation path


@pytest.mark.parametrize("scale", [50.0, math.nan])
def test_solve_on_a_working_set_diverges_at_edge_major_loop_epoch(sphere_patch_problem, scale):
    g, alpha, beta, opts = sphere_patch_problem
    opts = SolveOptions(learning_rate=scale * opts.learning_rate, max_epochs=20000)
    _, _, epochs, status = edge_major_ascent(g, alpha, beta, opts)
    assert status == "diverged"
    with pytest.raises(NonConvergenceError, match=f"diverged at epoch {epochs}:"):
        solve_regularized(g, alpha, beta, opts)


# ------------------------------------------------- unregularized dual checks


def test_dual_feasible_unregularized_path_example():
    g = make_path_graph(3, 1)
    phi = np.array([[0.0], [1.0], [2.0]])
    assert dual_feasible_unregularized(g, phi)
    c = np.array([[1.0], [0.0], [-1.0]])
    assert unregularized_dual_value(phi, c) == pytest.approx(-2.0)
    assert unregularized_dual_value(-phi, c) == pytest.approx(2.0)


def test_dual_feasible_unregularized_rejects_excess():
    g = make_path_graph(3, 1)
    phi = np.array([[0.0], [1.1], [2.2]])  # edge values 1.1 > w = 1
    assert not dual_feasible_unregularized(g, phi)


def test_weak_duality_random():
    rng = np.random.default_rng(44)
    for _ in range(5):
        d = int(rng.integers(1, 3))
        g = random_connected_graph(rng, n=7, d=d, extra_edges=3)
        bmat = incidence(g).toarray()
        flow = rng.standard_normal((g.m, g.d))
        c = (bmat @ flow.reshape(-1)).reshape(g.n, g.d)
        phi = rng.standard_normal((g.n, g.d))
        scale = np.max(np.linalg.norm(apply_BT(g, phi), axis=1) / g.weights)
        phi /= max(scale, 1.0)  # now unregularized-dual feasible
        assert dual_feasible_unregularized(g, phi)
        assert unregularized_dual_value(phi, c) <= unregularized_cost(g, flow) + 1e-9


# -------------------------------------------------------------------- oracle


def test_oracle_tree_ignores_lambda():
    rng = np.random.default_rng(45)
    g = random_connected_graph(rng, n=8, d=2, extra_edges=0)
    true_flow = rng.standard_normal((g.m, g.d))
    c = apply_B(g, true_flow)
    alpha = c
    beta = np.zeros_like(c)
    for lam in (0.07, 1.0, 13.0):
        flow = oracle_solve(g, alpha, beta, lam=lam)
        assert np.abs(flow - true_flow).max() <= 1e-7
    assert np.abs(tree_flow(g, c) - true_flow).max() <= 1e-9


def test_oracle_matches_solver_randomized():
    rng = np.random.default_rng(46)
    for _ in range(5):
        d = int(rng.integers(1, 3))
        g = random_connected_graph(rng, n=7, d=d, extra_edges=3)
        # guaranteed-feasible pair: the difference is a divergence
        alpha = apply_B(g, rng.standard_normal((g.m, d)))
        beta = np.zeros_like(alpha)
        lam = float(rng.uniform(0.5, 2.0)) * g.w_max
        opts = SolveOptions(
            lam=lam,
            learning_rate=stable_learning_rate(g, lam),
            max_epochs=200000,
        )
        flow, _, report = solve_regularized(g, alpha, beta, opts)
        assert report.converged
        reference = oracle_solve(g, alpha, beta, lam=lam)
        assert np.abs(flow - reference).max() <= 1e-4


def test_oracle_infeasible_raises(sign_path):
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(FeasibilityError):
        oracle_solve(sign_path, alpha, beta, lam=1.0)


def test_oracle_diamond_frozen(diamond_problem):
    g, alpha, beta, expected_norms = diamond_problem
    flow = oracle_solve(g, alpha, beta, lam=1.0)
    assert np.abs(np.linalg.norm(flow, axis=1) - expected_norms).max() <= 1e-8


# ------------------------------------------------------------------ distance


def test_wasserstein_lp_diamond(diamond_problem):
    g, alpha, beta, expected_norms = diamond_problem
    value, flow = wasserstein_lp(g, alpha, beta)
    assert value == pytest.approx(2.0, abs=1e-9)
    assert np.abs(np.abs(flow.reshape(-1)) - expected_norms).max() <= 1e-9


def test_wasserstein_small_lambda_matches_lp():
    rng = np.random.default_rng(47)
    for _ in range(4):
        g = random_connected_graph(rng, n=7, d=1, extra_edges=2, consistent=True)
        # make the connection trivial to stay in classical LP territory
        g = ConnectionGraph(g.n, 1, g.edge_index, g.weights, np.ones((g.m, 1, 1)))
        alpha = random_density(rng, g.n, 1)
        beta = random_density(rng, g.n, 1)
        lam = 0.01 * g.w_max
        opts = SolveOptions(
            lam=lam,
            learning_rate=stable_learning_rate(g, lam),
            max_epochs=400000,
        )
        approx = wasserstein(g, alpha, beta, opts=opts)
        exact, _ = wasserstein_lp(g, alpha, beta)
        assert abs(approx - exact) <= 1e-3 * max(1.0, exact)


def test_wasserstein_symmetry_and_zero(diamond_problem):
    g, alpha, beta, _ = diamond_problem
    opts = SolveOptions(lam=0.1, learning_rate=stable_learning_rate(g, 0.1), max_epochs=200000)
    ab = wasserstein(g, alpha, beta, opts=opts)
    ba = wasserstein(g, beta, alpha, opts=opts)
    assert abs(ab - ba) <= 1e-6
    assert wasserstein(g, alpha, alpha, opts=opts) == 0.0


def test_wasserstein_infeasible_is_inf(sign_path):
    alpha = np.array([[1.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [1.0]])
    assert wasserstein(sign_path, alpha, beta, SolveOptions(lam=1.0)) == float("inf")
