"""Shared fixtures: small hand-checked graphs and randomized generators."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from conbeck.graph import ConnectionGraph
from conbeck.manifold import (
    epsilon_graph,
    procrustes_connection,
    sample_sphere_patch,
    tangent_frames,
)

from oracles import random_orthogonal

# ``pythonpath`` in pyproject.toml puts src/ on this process's path; child
# ``python -m conbeck`` processes find the package through the environment
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def sign_path():
    """Path 0-1-2, d=1, unit weights, sigma_01 = +1, sigma_12 = -1.

    Hand-checked facts: the cycle space is empty, the connection is
    consistent, and ker(L) is spanned by (1, 1, -1)/sqrt(3) (a kernel
    vector f satisfies f(i) = sigma_ij f(j) across each edge).
    """
    return ConnectionGraph.from_edges(
        3, 1, [(0, 1, 1.0, [[1.0]]), (1, 2, 1.0, [[-1.0]])]
    )


@pytest.fixture
def diamond():
    """Four-cycle 0-1-3-2-0, d=1, unit weights, sigma_02 = -1, others +1.

    The single fundamental cycle has product -1, so the connection is
    inconsistent and ker(L) = {0}: every pair of densities is feasible.
    B is square (4 x 4) and nonsingular, so each right-hand side has a
    unique flow.  For alpha = delta_0 and beta = 0.5 * delta_3 the unique
    flow has magnitudes 0.75 on edges (0,1) and (1,3) and 0.25 on edges
    (0,2) and (2,3), giving sum w|J| = 2 and, with lambda = 1, a
    regularized cost of 2 + 0.5 * (2 * 0.5625 + 2 * 0.0625) = 2.625.
    """
    edges = [
        (0, 1, 1.0, [[1.0]]),
        (0, 2, 1.0, [[-1.0]]),
        (1, 3, 1.0, [[1.0]]),
        (2, 3, 1.0, [[1.0]]),
    ]
    return ConnectionGraph.from_edges(4, 1, edges)


@pytest.fixture
def diamond_problem(diamond):
    alpha = np.array([[1.0], [0.0], [0.0], [0.0]])
    beta = np.array([[0.0], [0.0], [0.0], [0.5]])
    norms = np.array([0.75, 0.25, 0.75, 0.25])
    return diamond, alpha, beta, norms


def make_path_graph(n, d, weights=None):
    """Trivial-connection path 0-1-...-(n-1)."""
    if weights is None:
        weights = [1.0] * (n - 1)
    return ConnectionGraph.trivial(n, d, [(i, i + 1, w) for i, w in enumerate(weights)])


def make_grid_graph(rows, cols, d):
    """Trivial-connection unit-weight grid, vertices numbered row-major."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1, 1.0))
            if r + 1 < rows:
                edges.append((u, u + cols, 1.0))
    return ConnectionGraph.trivial(rows * cols, d, edges)


def random_connected_graph(rng, n, d, extra_edges=2, consistent=None, w_range=(0.5, 2.0)):
    """Random connected connection graph.

    A random spanning tree plus ``extra_edges`` distinct chords.  With
    ``consistent=True`` the sigmas are a switched trivial connection
    (sigma_ij = tau_i^T tau_j), hence every cycle product is the identity.
    With ``consistent=False`` one chord is additionally perturbed by a
    nontrivial orthogonal factor, breaking a cycle.  ``None`` leaves the
    sigmas fully random.
    """
    pairs = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs.add((u, v))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(all_pairs)
    chords = []
    for p in all_pairs:
        if len(chords) >= extra_edges:
            break
        if p not in pairs:
            pairs.add(p)
            chords.append(p)
    pairs = sorted(pairs)
    w = rng.uniform(*w_range, size=len(pairs))

    if consistent is None:
        sig = np.array([random_orthogonal(d, rng) for _ in pairs])
    else:
        tau = np.array([random_orthogonal(d, rng) for _ in range(n)])
        sig = np.array([tau[i].T @ tau[j] for i, j in pairs])
        if consistent is False:
            if not chords:
                raise ValueError("need at least one chord to break consistency")
            e = pairs.index(chords[0])
            if d == 1:
                sig[e] = -sig[e]
            else:
                theta = rng.uniform(0.5, np.pi - 0.5)
                rot = np.eye(d)
                rot[0, 0] = rot[1, 1] = np.cos(theta)
                rot[0, 1] = -np.sin(theta)
                rot[1, 0] = np.sin(theta)
                sig[e] = sig[e] @ rot
    edges = [(i, j, w[e], sig[e]) for e, (i, j) in enumerate(pairs)]
    return ConnectionGraph.from_edges(n, d, edges)


def random_density(rng, n, d):
    """Random vector density: nonnegative entries, each channel sums to 1."""
    vals = rng.uniform(0.1, 1.0, size=(n, d))
    return vals / vals.sum(axis=0, keepdims=True)


def queue_bfs(g, sources):
    """Plain multi-source queue BFS, neighbors in increasing index.

    Returns ``(order, parent, hops)``: the visit order, each vertex's BFS
    parent (-1 for sources) and its hop distance to the nearest source.
    """
    adj = [[] for _ in range(g.n)]
    for i, j in g.edge_index.tolist():
        adj[i].append(j)
        adj[j].append(i)
    order = list(dict.fromkeys(int(v) for v in sources))
    parent = [-1] * g.n
    hops = [-1] * g.n
    for v in order:
        hops[v] = 0
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in sorted(adj[u]):
            if hops[v] == -1:
                hops[v] = hops[u] + 1
                parent[v] = u
                order.append(v)
    return order, parent, hops


def curved_sphere_patch(n_lat=6, n_lon=12, eps=0.3):
    """Procrustes connection on a sphere patch, d = 2: curvature leaves
    ker L = {0} and a degenerate pair of near-kernel modes."""
    cloud, _, _ = sample_sphere_patch(n_lat, n_lon)
    skeleton = epsilon_graph(cloud, eps)
    return procrustes_connection(tangent_frames(cloud, skeleton, 2, eps), skeleton)


def flat_sphere_patch(rng, n_lat=6, n_lon=12, eps=0.3):
    """Flat connection sigma_ij = tau_i^T tau_j with Haar tau on a sphere
    patch, d = 2; returns ``(g, tau)``, where ker L = {f(i) = tau_i^T x}."""
    cloud, _, _ = sample_sphere_patch(n_lat, n_lon)
    skeleton = epsilon_graph(cloud, eps)
    tau = np.array([random_orthogonal(2, rng) for _ in range(cloud.shape[0])])
    i, j = skeleton.edge_index.T
    sigmas = np.einsum("eba,ebc->eac", tau[i], tau[j])
    return ConnectionGraph(cloud.shape[0], 2, skeleton.edge_index, skeleton.weights, sigmas), tau


def near_flat_sphere_patch(rng, noise, n_lat=6, n_lon=12, eps=0.3):
    """:func:`flat_sphere_patch` with each sigma turned by a random angle of
    scale ``noise``: still valid, and flat up to that noise; returns ``(g, tau)``."""
    g, tau = flat_sphere_patch(rng, n_lat, n_lon, eps)
    theta = noise * rng.standard_normal(g.m)
    c, s = np.cos(theta), np.sin(theta)
    turn = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    return ConnectionGraph(g.n, 2, g.edge_index, g.weights, g.sigmas @ turn), tau


def twisted_ring(n=200, angle=0.5):
    """Ring of n vertices, d = 3, identity on every edge but the closing
    one, which rotates by ``angle`` about the third axis: that axis is the
    kernel, and the twist leaves many modes under NEAR_KERNEL_RATIO."""
    c, s = np.cos(angle), np.sin(angle)
    sigmas = np.repeat(np.eye(3)[None], n, axis=0)
    sigmas[-1] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    edges = np.array([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    return ConnectionGraph(n, 3, edges, np.ones(n), sigmas)
