"""Test oracles: a random orthogonal matrix, the BFS tree's visit order
and parents, the connection matrix between two vertices, the tree products
as a vertex-by-vertex chain, the dense ordinary Laplacian of the skeleton,
path products as a loop over :func:`sigma_between`, tangent frames one
vertex at a time, epsilon pairs and nearest nodes by brute force, the document dicts
whose ``json.dump(..., indent=2)`` text the :mod:`conbeck.io` table writers
must reproduce, and an independent dense primal-route solve of the
regularized problem.

:func:`oracle_solve` takes a full dense SVD of B, O((m d)^2) memory, so it
serves only as a cross-check of :func:`conbeck.solver.solve_regularized`
on small instances.
"""

from __future__ import annotations

import numpy as np

from conbeck.errors import FeasibilityError, InvalidGraphError
from conbeck.graph import ConnectionGraph, _shaped, _spanning_tree
from conbeck.solver import _resolve_lam


def random_orthogonal(d, rng):
    """Haar-ish random orthogonal d x d matrix (QR with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def bfs_tree(g: ConnectionGraph, root=0):
    """Breadth-first spanning tree with deterministic neighbor order.

    Neighbors are visited in increasing vertex index.  Returns
    ``(order, parent)`` where ``order`` lists vertices in visit order and
    ``parent[root] = -1``.
    """
    order, parent, *_ = _spanning_tree(g, root)
    return order.tolist(), parent


def sigma_between(g: ConnectionGraph, u, v):
    """Connection matrix oriented ``u -> v``: that of the last edge stored as
    ``(u, v)``, else the transpose of the last one stored as ``(v, u)``."""
    hit = (g.edge_index[:, None] == [(u, v), (v, u)]).all(axis=2)
    for way, sigma in enumerate((g.sigmas, np.swapaxes(g.sigmas, 1, 2))):
        if hit[:, way].any():
            return sigma[np.flatnonzero(hit[:, way])[-1]]
    raise InvalidGraphError(f"no edge between {u} and {v}")


def sequential_tree_products(g: ConnectionGraph, root):
    """Tree products along the BFS tree from ``root``, one vertex at a time
    in visit order, each from its parent's through :func:`sigma_between`."""
    order, parent = bfs_tree(g, root)
    t = np.zeros((g.n, g.d, g.d))
    t[order[0]] = np.eye(g.d)
    for u in order[1:]:
        t[u] = sigma_between(g, u, parent[u]) @ t[parent[u]]
    return t


def combinatorial_laplacian(g: ConnectionGraph):
    """Ordinary weighted graph Laplacian of the skeleton, dense (n, n)."""
    g.require_valid()
    i, j = g.edge_index.T
    lap = np.zeros((g.n, g.n))
    np.add.at(lap, (i, j), -g.weights)
    np.add.at(lap, (j, i), -g.weights)
    ends = g.edge_index.reshape(-1)  # i0, j0, i1, j1, ...: degrees sum in edge order
    np.add.at(lap, (ends, ends), np.repeat(g.weights, 2))
    return lap


def path_product(g: ConnectionGraph, path):
    """Product of connection matrices along a vertex path.

    The factors multiply on the right in traversal order:
    ``sigma_P = sigma_{v0 v1} @ sigma_{v1 v2} @ ...``.  A single-vertex
    path yields the identity.
    """
    g.require_valid()
    if len(path) == 0:
        raise InvalidGraphError("empty path")
    out = np.eye(g.d)
    for u, v in zip(path[:-1], path[1:]):
        out = out @ sigma_between(g, u, v)
    return out


def per_vertex_tangent_frames(cloud, skeleton, d, eps):
    """Local PCA frames as :func:`conbeck.manifold.tangent_frames` defines
    them, one SVD per vertex over its neighbours in increasing order."""
    cloud = np.asarray(cloud, dtype=float)
    nbrs = [set() for _ in range(cloud.shape[0])]
    for i, j in skeleton.edge_index.tolist():
        nbrs[i].add(j)
        nbrs[j].add(i)
    frames = np.zeros((cloud.shape[0], cloud.shape[1], d))
    for i, near in enumerate(nbrs):
        offsets = cloud[sorted(near)] - cloud[i]
        u = np.linalg.norm(offsets, axis=1) / np.sqrt(eps)
        weighted = offsets.T * np.where(u < 1.0, 1.0 - u**2, 0.0)
        frames[i] = np.linalg.svd(weighted, full_matrices=False)[0][:, :d]
    return frames


def brute_force_pairs(cloud, eps):
    """Every pair ``i < j`` at distance ``sqrt(sum((x_i - x_j)**2)) < eps``,
    in index order, as ``(pairs, distances, first_coincident)``; the last is
    the first pair at distance 0, or None."""
    cloud = np.asarray(cloud, dtype=float)
    iu, ju = np.triu_indices(cloud.shape[0], k=1)
    diff = cloud[iu] - cloud[ju]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    zero = np.flatnonzero(dist == 0.0)
    first = (int(iu[zero[0]]), int(ju[zero[0]])) if zero.size else None
    keep = dist < eps
    return np.stack([iu[keep], ju[keep]], axis=1), dist[keep], first


def brute_force_nearest(points, cloud):
    """For each point, the lowest index of the cloud nodes at the minimum of
    ``sqrt(sum((b - x)**2))``, one point at a time."""
    cloud = np.asarray(cloud, dtype=float)
    return np.array(
        [np.argmin(np.linalg.norm(cloud - b, axis=1)) for b in np.asarray(points, dtype=float)],
        dtype=int,
    )


def field_to_dict(field):
    field = np.asarray(field, dtype=float)
    n, d = field.shape
    return {"n": n, "d": d, "values": field.tolist()}


def flow_to_dict(flow):
    flow = np.asarray(flow, dtype=float)
    m, d = flow.shape
    return {"m": m, "d": d, "values": flow.tolist()}


def frames_to_dict(frames):
    frames = np.asarray(frames, dtype=float)
    n, p, d = frames.shape
    return {"n": n, "p": p, "d": d, "frames": frames.tolist()}


def tau_to_dict(tau):
    tau = np.asarray(tau, dtype=float)
    n, d, _ = tau.shape
    return {"n": n, "d": d, "tau": tau.tolist()}


def trajectory_to_dict(states, ambient=None):
    states = [np.asarray(s, dtype=float) for s in states]
    n, d = states[0].shape
    obj = {
        "n": n,
        "d": d,
        "steps": len(states) - 1,
        "states": [s.tolist() for s in states],
    }
    if ambient is not None:
        obj["ambient"] = [np.asarray(a, dtype=float).tolist() for a in ambient]
    return obj


def oracle_solve(g: ConnectionGraph, alpha, beta, lam=None, eps=1e-9, max_iter=200):
    """Independent primal-route solve of the regularized problem.

    Minimizes the smoothed objective
    ``sum_e w(e) sqrt(|J(e)|^2 + eps^2) + (lam/2) sum_e |J(e)|^2`` over the
    affine feasible set ``B J = c``: a least-squares particular solution
    plus a damped Newton iteration in an orthonormal null-space
    parameterization of ``B``, run as a continuation over decreasing
    smoothing levels down to ``eps`` (a cold Newton start at tiny ``eps``
    can stall on the near-kink curvature).  Dense linear algebra
    throughout; intended for small instances as a cross-check of
    :func:`solve_regularized`.
    """
    g.require_valid()
    lam = _resolve_lam(g, lam)
    c_vec = (_shaped(g, alpha, "alpha", g.n) - _shaped(g, beta, "beta", g.n)).reshape(-1)
    bmat = g.incidence_matrix.toarray()
    m, d = g.m, g.d

    j0, *_ = np.linalg.lstsq(bmat, c_vec, rcond=None)
    resid = float(np.linalg.norm(bmat @ j0 - c_vec))
    if resid > 1e-8 * (1.0 + float(np.linalg.norm(c_vec))):
        raise FeasibilityError(
            f"no feasible flow: least-squares constraint residual {resid:.3g}"
        )

    svals = np.linalg.svd(bmat, compute_uv=False)
    cutoff = svals.max() * max(bmat.shape) * np.finfo(float).eps if svals.size else 0.0
    rank = int(np.count_nonzero(svals > cutoff))
    _, _, vt = np.linalg.svd(bmat, full_matrices=True)
    null = vt[rank:].T  # (m d, k)
    k = null.shape[1]
    if k == 0:
        return j0.reshape(m, d)

    w = g.weights
    null3 = null.reshape(m, d, k)

    def objective(y, smooth):
        flow = (j0 + null @ y).reshape(m, d)
        sq = np.einsum("ed,ed->e", flow, flow)
        s = np.sqrt(sq + smooth * smooth)
        return float(w @ s + 0.5 * lam * sq.sum()), flow, s

    schedule = [1e-3]
    while schedule[-1] > eps:
        schedule.append(max(schedule[-1] * 1e-2, eps))

    y = np.zeros(k)
    flow = None
    for smooth in schedule:
        value, flow, s = objective(y, smooth)
        grad0_norm = None
        for _ in range(max_iter):
            coef = w / s + lam
            grad_flow = coef[:, None] * flow
            grad = np.einsum("edk,ed->k", null3, grad_flow)
            gnorm = float(np.linalg.norm(grad))
            if grad0_norm is None:
                grad0_norm = gnorm
            if gnorm <= 1e-11 * (1.0 + grad0_norm):
                break
            # per-edge Hessian blocks: w (I/s - J J^T / s^3) + lam I
            blocks = (
                (w / s)[:, None, None] * np.eye(d)
                - (w / s**3)[:, None, None] * np.einsum("ea,eb->eab", flow, flow)
                + lam * np.eye(d)
            )
            hn = np.einsum("eab,ebk->eak", blocks, null3)
            hess = np.einsum("eak,eal->kl", null3, hn)
            step = np.linalg.solve(hess, -grad)
            t = 1.0
            for _ in range(60):
                trial, trial_flow, trial_s = objective(y + t * step, smooth)
                if trial <= value + 1e-4 * t * float(grad @ step):
                    break
                t *= 0.5
            y = y + t * step
            value, flow, s = trial, trial_flow, trial_s
    return flow
