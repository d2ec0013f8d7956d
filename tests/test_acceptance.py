"""Acceptance suite: twelve end-to-end guarantees at frozen tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to see one
``criterion NN PASS`` line per check.  All seeds are frozen so every run
exercises identical instances; budgets (epochs, wall-clock caps) were
sized with generous margin on the reference container.
"""

from __future__ import annotations

import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from conbeck.errors import FeasibilityError
from conbeck.feasibility import (
    is_feasible,
    kernel_numeric,
    kernel_structured,
    require_feasible,
)
from conbeck.graph import (
    ConnectionGraph,
    apply_B,
    apply_BT,
    connection_laplacian,
    is_consistent,
    switch,
    validate_graph,
)
from conbeck.hurdat import StormTrack, hurdat2_parse, track_to_field
from conbeck.manifold import (
    epsilon_graph,
    lift_to_ambient,
    procrustes_connection,
    sample_sphere_patch,
    sample_torus,
    tangent_frames,
)
from conbeck.solver import (
    SolveOptions,
    dual_gradient,
    dual_objective,
    primal_cost,
    solve_regularized,
    stable_learning_rate,
    unregularized_cost,
    wasserstein,
    wasserstein_lp,
)
from conbeck.toolkit import (
    edge_rings,
    interpolate_trajectory,
    nodal_support,
    pseudo_dirac,
)
from conftest import (
    make_grid_graph,
    make_path_graph,
    random_connected_graph,
    random_density,
)
from oracles import combinatorial_laplacian, oracle_solve, random_orthogonal


def _passed(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def _trivialized(base):
    """Same topology and weights as ``base`` but with identity matrices."""
    return ConnectionGraph(
        base.n,
        base.d,
        base.edge_index,
        base.weights,
        np.tile(np.eye(base.d), (base.m, 1, 1)),
    )


def _solver_options(g, lam, grad_tol, max_epochs=600_000):
    return SolveOptions(
        lam=lam,
        learning_rate=stable_learning_rate(g, lam),
        max_epochs=max_epochs,
        grad_tol=grad_tol,
    )


# --------------------------------------------------------------- criterion 1


def test_criterion_01_diamond_benchmark(diamond_problem):
    g, alpha, beta, expected_norms = diamond_problem
    opts = _solver_options(g, lam=1.0, grad_tol=1e-10, max_epochs=200_000)
    t0 = time.perf_counter()
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    elapsed = time.perf_counter() - t0

    norms = np.linalg.norm(flow, axis=1)
    assert np.abs(norms - expected_norms).max() <= 1e-5
    assert report.residual <= 1e-6
    assert abs(report.gap) <= 1e-5
    assert abs(unregularized_cost(g, flow) - 2.0) <= 1e-5
    assert abs(report.primal_cost - 2.625) <= 1e-5
    assert report.converged
    assert elapsed < 1.0
    _passed(
        1,
        "diamond benchmark reproduces flow norms (.75,.25,.75,.25), "
        f"costs 2 / 2.625, gap<=1e-5, in {elapsed * 1e3:.0f} ms",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_02_sign_path_feasibility(sign_path):
    g = sign_path
    reference = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    for basis in (kernel_numeric(g), kernel_structured(g)):
        assert basis.dimension == 1
        v = basis.vectors[0].ravel()
        v = v / np.linalg.norm(v)
        assert abs(abs(v @ reference) - 1.0) <= 1e-8

    delta0 = pseudo_dirac(3, 1, 0, 0)
    delta2 = pseudo_dirac(3, 1, 2, 0)
    assert not is_feasible(g, delta0, delta2)
    with pytest.raises(FeasibilityError):
        require_feasible(g, delta0, delta2)

    assert is_feasible(g, delta0, -delta2)
    opts = _solver_options(g, lam=1.0, grad_tol=1e-9, max_epochs=200_000)
    _, _, report = solve_regularized(g, delta0, -delta2, opts)
    assert report.converged and report.residual <= 1e-6
    _passed(
        2,
        "sign-flip path: kernel spans (1,1,-1)/sqrt(3) via both routes, "
        "(d0,d2) rejected as infeasible, (d0,-d2) solves cleanly",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_03_consistency_balance():
    t0 = time.perf_counter()
    for k in range(50):
        rng = np.random.default_rng(300 + k)
        n = int(rng.integers(3, 11))
        d = int(rng.integers(1, 4))
        extra = int(rng.integers(1, 5))
        mode = [True, False, None][k % 3]
        g = random_connected_graph(rng, n=n, d=d, extra_edges=extra, consistent=mode)
        cons = is_consistent(g)
        kdim = kernel_numeric(g).dimension
        ev_conn = np.sort(np.linalg.eigvalsh(connection_laplacian(g).toarray()))
        ev_comb = np.sort(np.repeat(np.linalg.eigvalsh(combinatorial_laplacian(g)), d))
        spec_match = bool(
            np.abs(ev_conn - ev_comb).max() <= 1e-8 * max(1.0, ev_conn.max())
        )
        assert cons == (kdim == d) == spec_match, (k, cons, kdim, d, spec_match)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(
        3,
        "consistency == full kernel == spectrum match on 50 random graphs "
        f"in {elapsed:.1f} s",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_duality_certificates():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_oracle = 0.0
    for k in range(30):
        rng = np.random.default_rng(400 + k)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=n, d=d, extra_edges=int(rng.integers(0, 5)))
        alpha = apply_B(g, rng.standard_normal((g.m, d)) * 0.5)
        beta = np.zeros((n, d))
        lam = [0.1, 1.0, 10.0][k % 3] * g.w_max
        opts = _solver_options(g, lam, grad_tol=None, max_epochs=2_000_000)
        _, _, report = solve_regularized(g, alpha, beta, opts)
        assert report.converged, k
        rel_gap = abs(report.gap) / (1.0 + abs(report.primal_cost))
        assert rel_gap <= 1e-5, (k, rel_gap)
        worst_gap = max(worst_gap, rel_gap)
        oracle_cost = primal_cost(g, oracle_solve(g, alpha, beta, lam=lam), lam)
        rel_oracle = abs(oracle_cost - report.primal_cost) / max(
            1.0, abs(report.primal_cost)
        )
        assert rel_oracle <= 1e-4, (k, rel_oracle)
        worst_oracle = max(worst_oracle, rel_oracle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        4,
        "30 solves certified: worst relative gap "
        f"{worst_gap:.1e}, worst oracle disagreement {worst_oracle:.1e}, "
        f"{elapsed:.1f} s",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_05_lp_agreement():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(500 + k)
        n = int(rng.integers(3, 9))
        base = random_connected_graph(
            rng, n=n, d=1, extra_edges=int(rng.integers(0, 4))
        )
        g = _trivialized(base)
        alpha = random_density(rng, n, 1)
        beta = random_density(rng, n, 1)
        lam = 0.01 * g.w_max
        opts = _solver_options(g, lam, grad_tol=1e-7)
        ws = wasserstein(g, alpha, beta, opts=opts)
        wl, _ = wasserstein_lp(g, alpha, beta)
        assert abs(ws - wl) <= 1e-3, (k, ws, wl)
        worst = max(worst, abs(ws - wl))

    # unit-weight path: cost of moving a unit from one end two hops away is 2
    path = make_path_graph(3, 1)
    opts = _solver_options(path, lam=0.01, grad_tol=1e-7)
    w_path = wasserstein(path, pseudo_dirac(3, 1, 0, 0), pseudo_dirac(3, 1, 2, 0), opts=opts)
    assert abs(w_path - 2.0) <= 1e-3
    _passed(
        5,
        "small-regularization cost matches the exact LP on 20 scalar graphs "
        f"(worst |diff| {worst:.1e}) and equals 2 on the two-hop path",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_switching_invariance():
    for k in range(10):
        rng = np.random.default_rng(600 + k)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        base = random_connected_graph(
            rng, n=n, d=d, extra_edges=int(rng.integers(1, 4))
        )
        g = _trivialized(base)
        tau = np.stack([random_orthogonal(d, rng) for _ in range(n)])
        gs = switch(g, tau)

        ev0 = np.sort(np.linalg.eigvalsh(connection_laplacian(g).toarray()))
        ev1 = np.sort(np.linalg.eigvalsh(connection_laplacian(gs).toarray()))
        assert np.abs(ev0 - ev1).max() <= 1e-9 * max(1.0, ev0.max())

        alpha = random_density(rng, n, d)
        beta = random_density(rng, n, d)
        alpha_s = np.einsum("nba,nb->na", tau, alpha)
        beta_s = np.einsum("nba,nb->na", tau, beta)
        lam = 0.5 * g.w_max
        opts = _solver_options(g, lam, grad_tol=1e-9)
        flow, _, rep = solve_regularized(g, alpha, beta, opts)
        flow_s, _, rep_s = solve_regularized(gs, alpha_s, beta_s, opts)
        assert rep.converged and rep_s.converged, k
        assert abs(rep.primal_cost - rep_s.primal_cost) <= 1e-5, k
        assert (
            np.abs(
                np.linalg.norm(flow, axis=1) - np.linalg.norm(flow_s, axis=1)
            ).max()
            <= 1e-6
        ), k
    _passed(
        6,
        "10 gauge changes leave the Laplacian spectrum, transport cost, "
        "and per-edge flow magnitudes unchanged",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_gradient_finite_differences():
    h = 1e-6
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(700 + k)
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n=n, d=d, extra_edges=int(rng.integers(0, 4)))
        lam = float(rng.uniform(0.5, 2.0))
        c = rng.standard_normal((n, d))
        # keep every edge value away from the threshold kink so the central
        # difference samples a smooth neighbourhood
        for _ in range(50):
            phi = rng.standard_normal((n, d))
            slack = np.abs(np.linalg.norm(apply_BT(g, phi), axis=1) - g.weights)
            if slack.min() > 1e-3:
                break
        analytic = dual_gradient(g, phi, c, lam).reshape(-1)
        fd = np.zeros_like(analytic)
        flat = phi.reshape(-1)
        for i in range(flat.size):
            step = np.zeros_like(flat)
            step[i] = h
            f_plus = dual_objective(g, (flat + step).reshape(n, d), c, lam)
            f_minus = dual_objective(g, (flat - step).reshape(n, d), c, lam)
            fd[i] = (f_plus - f_minus) / (2 * h)
        rel = np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())
        assert rel <= 1e-5, (k, rel)
        worst = max(worst, rel)
    _passed(
        7,
        "analytic dual gradient matches central differences on 20 instances "
        f"(worst relative error {worst:.1e})",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_tree_back_substitution():
    # on a tree the divergence constraint pins the flow uniquely, so the
    # solver must reproduce plain cumulative sums of alpha - beta
    g = make_path_graph(4, 2)
    alpha = pseudo_dirac(4, 2, 0, 0)
    beta = pseudo_dirac(4, 2, 3, 1)
    expected = np.cumsum(alpha - beta, axis=0)[:-1]
    opts = _solver_options(g, lam=1.0, grad_tol=1e-10, max_epochs=200_000)
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.converged
    assert np.abs(flow - expected).max() <= 1e-6
    assert np.abs(flow[:, 0] - [0.75, 0.5, 0.25]).max() <= 1e-6
    assert np.abs(flow[:, 1] - [0.25, 0.5, 0.75]).max() <= 1e-6

    # a channel whose net difference vanishes identically carries no flow
    g3 = make_path_graph(4, 3)
    flow3, _, _ = solve_regularized(
        g3,
        pseudo_dirac(4, 3, 0, 0),
        pseudo_dirac(4, 3, 3, 2),
        _solver_options(g3, lam=1.0, grad_tol=1e-10, max_epochs=200_000),
    )
    assert np.abs(flow3[:, 1]).max() <= 1e-12
    _passed(
        8,
        "path flow equals back-substituted cumulative sums entrywise "
        "(<=1e-6) and the balanced middle channel stays exactly inactive",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_09_metric_axioms():
    rng = np.random.default_rng(90)
    base = random_connected_graph(rng, n=6, d=2, extra_edges=3, consistent=True)
    g = _trivialized(base)
    tau = np.stack([random_orthogonal(base.d, rng) for _ in range(base.n)])
    gs = switch(g, tau)
    densities = [
        np.einsum("nba,nb->na", tau, random_density(rng, base.n, base.d))
        for _ in range(4)
    ]
    lam = 0.01 * gs.w_max
    opts = _solver_options(gs, lam, grad_tol=1e-6)
    dist = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            if a != b:
                dist[a, b] = wasserstein(gs, densities[a], densities[b], opts=opts)

    assert np.abs(dist - dist.T).max() <= 1e-4
    off_diag = dist[~np.eye(4, dtype=bool)]
    assert off_diag.min() > 1e-3  # distinct fields are strictly separated
    worst_triangle = -np.inf
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if len({a, b, c}) == 3:
                    worst_triangle = max(
                        worst_triangle, dist[a, c] - dist[a, b] - dist[b, c]
                    )
    assert worst_triangle <= 1e-4
    _passed(
        9,
        "pairwise distances on a gauged graph are symmetric (<=1e-4), "
        "positive, and satisfy every triangle inequality "
        f"(worst slack {worst_triangle:+.2e})",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_manifold_construction():
    # torus: curvature must leave a defective (inconsistent) connection
    cloud = sample_torus(10, 40)
    skeleton = epsilon_graph(cloud, eps=3.0)
    assert skeleton.connected
    frames = tangent_frames(cloud, skeleton, d=2, eps=3.0)
    g = procrustes_connection(frames, skeleton)
    assert validate_graph(g) == []
    gram_defect = np.abs(
        np.einsum("eij,ekj->eik", g.sigmas, g.sigmas) - np.eye(2)
    ).max()
    assert gram_defect <= 1e-8
    assert kernel_numeric(g).dimension < 2

    # sphere patch: learned frames stay tangent (orthogonal to the radius)
    sphere_cloud, _, _ = sample_sphere_patch(12, 20)
    sphere_skeleton = epsilon_graph(sphere_cloud, eps=0.2)
    assert sphere_skeleton.connected
    sphere_frames = tangent_frames(sphere_cloud, sphere_skeleton, d=2, eps=0.2)
    radial = sphere_cloud / np.linalg.norm(sphere_cloud, axis=1, keepdims=True)
    deviation = np.abs(np.einsum("npd,np->nd", sphere_frames, radial))
    assert deviation.mean() <= 0.15
    _passed(
        10,
        "torus pipeline yields orthogonal transports (defect "
        f"{gram_defect:.1e}) with a defective kernel; sphere frames stay "
        f"radially orthogonal (mean dev {deviation.mean():.3f})",
    )


# -------------------------------------------------------------- criterion 11


def _trajectory_endpoints(g, alpha, beta, steps, grad_tol):
    opts = _solver_options(g, lam=1.0, grad_tol=grad_tol, max_epochs=2_000_000)
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    assert report.converged
    rings = edge_rings(g, nodal_support(alpha))
    trajectory = interpolate_trajectory(g, alpha, flow, rings, steps)
    assert len(trajectory) == steps + 1
    assert np.array_equal(trajectory[0], alpha)
    return np.abs(trajectory[-1] - beta).max()


def test_criterion_11_trajectory_endpoints(diamond):
    # steps = diameter + 1 for each instance
    errs = [
        _trajectory_endpoints(
            make_path_graph(4, 2),
            pseudo_dirac(4, 2, 0, 0),
            pseudo_dirac(4, 2, 3, 1),
            steps=4,
            grad_tol=1e-10,
        ),
        _trajectory_endpoints(
            diamond,
            pseudo_dirac(4, 1, 0, 0),
            pseudo_dirac(4, 1, 3, 0),
            steps=3,
            grad_tol=1e-10,
        ),
        _trajectory_endpoints(
            make_grid_graph(10, 10, 2),
            pseudo_dirac(100, 2, 0, 0),
            pseudo_dirac(100, 2, 99, 1),
            steps=19,
            grad_tol=1e-9,
        ),
    ]
    assert max(errs) <= 1e-8
    _passed(
        11,
        "trajectories start exactly at the source and reach the target "
        f"within {max(errs):.1e} on path, diamond, and 10x10 grid",
    )


# -------------------------------------------------------------- criterion 12


HURDAT_SAMPLE = """\
AL092011, IRENE, 3,
20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,
20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,
20110821, 1200,  , TS, 16.8N, 62.1W, 50, 1003,
EP011949, UNNAMED, 2,
19490611, 0000,  , TS, 20.2N, 106.3W, 45, -999,
19490611, 0600,  , TS, 20.2N, 106.4W, 45, -999,
"""


def _synthetic_track(lats, lons):
    start = datetime(2020, 1, 1)
    return StormTrack(
        id="SY012020",
        name="SYNTH",
        times=tuple(start + timedelta(hours=6 * k) for k in range(len(lats))),
        lats=np.asarray(lats, dtype=float),
        lons=np.asarray(lons, dtype=float),
    )


def test_criterion_12_hurdat_ingestion():
    tracks, issues = hurdat2_parse(HURDAT_SAMPLE)
    assert issues == []
    assert [t.id for t in tracks] == ["AL092011", "EP011949"]
    assert tracks[0].lats[0] == 15.0 and tracks[0].lons[0] == -59.0

    south_east = "AL011900, TEST, 1,\n19000101, 0000,  , TS, 10.0S, 20.0E, 0, 0,\n"
    tracks_se, issues_se = hurdat2_parse(south_east)
    assert issues_se == []
    assert tracks_se[0].lats[0] == -10.0 and tracks_se[0].lons[0] == 20.0

    wrapped = "AL011900, TEST, 1,\n19000101, 0000,  , TS, 10.0N, 200.0W, 0, 0,\n"
    assert hurdat2_parse(wrapped)[0][0].lons[0] == 160.0

    truncated = (
        "AL092011, IRENE, 3,\n"
        "20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,\n"
        "20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,\n"
    )
    _, issues_tr = hurdat2_parse(truncated)
    assert len(issues_tr) == 1 and "line 1" in issues_tr[0]

    assert hurdat2_parse("") == ([], [])

    # a due-north great-circle track projects onto the meridian tangent
    patch_cloud, _, _ = sample_sphere_patch(24, 40)
    patch_skeleton = epsilon_graph(patch_cloud, eps=0.12)
    patch_frames = tangent_frames(patch_cloud, patch_skeleton, d=2, eps=0.12)
    lats = np.linspace(12.0, 60.0, 40)
    track = _synthetic_track(lats, np.full_like(lats, -45.0))
    field = track_to_field(track, patch_frames, patch_cloud)
    lifted = lift_to_ambient(patch_frames, field)
    support = np.flatnonzero(np.linalg.norm(lifted, axis=1) > 1e-12)
    assert support.size >= 10
    lon = np.deg2rad(-45.0)
    cosines = []
    for i in support:
        lat = np.arcsin(np.clip(patch_cloud[i, 2], -1.0, 1.0))
        analytic = np.array(
            [-np.sin(lat) * np.cos(lon), -np.sin(lat) * np.sin(lon), np.cos(lat)]
        )
        direction = lifted[i] / np.linalg.norm(lifted[i])
        cosines.append(float(direction @ analytic))
    mean_cos = float(np.mean(cosines))
    assert mean_cos >= 0.9
    _passed(
        12,
        "storm-archive parser honours sign/wrap conventions and reports "
        "truncation by line; a meridian track embeds with mean cosine "
        f"{mean_cos:.3f} against the analytic tangent",
    )
