"""Field utilities: pseudo-Diracs, ring interpolation, distances, clustering.

Rings partition the edge set by hop distance from the support of a
source field; truncating an optimal flow to growing disks yields a
discrete interpolation trajectory from the source toward the target.
Pairwise regularized transport costs assemble into distance matrices
that feed a small deterministic spectral clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, InvalidGraphError, NonConvergenceError
from .feasibility import _finite
from .graph import ConnectionGraph, _bfs, _shaped, apply_B
from .solver import SolveOptions, _resolve_lam, solve_regularized

__all__ = [
    "pseudo_dirac",
    "nodal_support",
    "RingPartition",
    "edge_rings",
    "interpolate_trajectory",
    "active_edges",
    "distance_matrix",
    "ClusterResult",
    "spectral_cluster",
]


def pseudo_dirac(n, d, node, channel):
    """Density concentrated at one (node, channel), uniform elsewhere.

    The selected channel is the indicator of ``node``; every other channel
    is the uniform density 1/n, so all channel sums equal one.
    """
    if not 0 <= node < n:
        raise InvalidGraphError(f"node {node} out of range for n = {n}")
    if not 0 <= channel < d:
        raise InvalidGraphError(f"channel {channel} out of range for d = {d}")
    field = np.full((n, d), 1.0 / n)
    field[:, channel] = 0.0
    field[node, channel] = 1.0
    return field


#: :func:`nodal_support` keeps the vertices whose field norm exceeds this.
SUPPORT_TOL = 1e-9


def _two_dimensional(array, name, rows):
    """``array`` as a float array, which must be 2-D, ``(rows, d)``: the
    functions that call this take no graph, so a flat array cannot be
    shaped.  Any other array raises :class:`InvalidGraphError` naming
    ``name`` and its shape."""
    values = np.asarray(array, dtype=float)
    if values.ndim != 2:
        raise InvalidGraphError(
            f"{name} has shape {values.shape}; expected a 2-D ({rows}, d) array"
        )
    return values


def nodal_support(field):
    """Vertices where the field's per-vertex norm exceeds ``SUPPORT_TOL``.
    ``field`` must be 2-D, (n, d)."""
    norms = np.linalg.norm(_two_dimensional(field, "field", "n"), axis=1)
    return np.flatnonzero(norms > SUPPORT_TOL)


@dataclass(frozen=True)
class RingPartition:
    """Edge rings by hop distance from a support set.

    ``vertex_distance[i]`` is the unweighted hop distance from vertex ``i``
    to the support; ``edge_ring[e] = min(dist_i, dist_j)``.  The k-th disk
    is the set of edges with ring index strictly below ``k``.
    """

    vertex_distance: np.ndarray
    edge_ring: np.ndarray

    def disk(self, k):
        """Boolean mask over edges of the k-th disk ``{e : r(e) < k}``."""
        return self.edge_ring < k

    @property
    def max_ring(self):
        return int(self.edge_ring.max()) if self.edge_ring.size else 0


def edge_rings(g: ConnectionGraph, support):
    """Multi-source BFS rings of the edge set around ``support`` vertices."""
    g.require_valid()
    support = np.asarray(support, dtype=int).reshape(-1)
    if support.size == 0:
        raise InvalidGraphError("ring partition needs a nonempty support")
    if support.min() < 0 or support.max() >= g.n:
        raise InvalidGraphError("support vertex out of range")
    _, _, dist = _bfs(g.n, g.edge_index, support)
    ring = np.minimum(dist[g.edge_index[:, 0]], dist[g.edge_index[:, 1]])
    return RingPartition(dist, ring)


def interpolate_trajectory(g: ConnectionGraph, alpha, flow, rings: RingPartition, steps):
    """Truncated-flow trajectory ``alpha_k = alpha - B (J restricted to disk k)``.

    Returns ``steps + 1`` fields; the first is ``alpha`` exactly (``B 0`` is
    all ``+0.0``) and, once every active edge is inside the disk, the
    trajectory sits at ``alpha - B J``.  A negative ``steps`` raises
    :class:`InvalidGraphError`.
    """
    g.require_valid()
    alpha = _shaped(g, alpha, "alpha", g.n)
    flow = _shaped(g, flow, "flow", g.m)
    if steps < 0:
        raise InvalidGraphError(f"steps must be at least 0, got {steps}")
    return [
        alpha - apply_B(g, np.where(rings.disk(k)[:, None], flow, 0.0))
        for k in range(steps + 1)
    ]


def active_edges(flow, delta=0.0):
    """Indices of edges whose flow norm strictly exceeds ``delta``.
    ``flow`` must be 2-D, (m, d)."""
    return np.flatnonzero(np.linalg.norm(_two_dimensional(flow, "flow", "m"), axis=1) > delta)


def _solve_pair(g, fields, opts, a, b):
    """``(cost, converged)`` of one pair; ``(inf, True)`` when infeasible."""
    try:
        _, _, report = solve_regularized(g, fields[a], fields[b], opts)
    except FeasibilityError:
        return float("inf"), True
    return report.primal_cost, report.converged


#: Per-worker ``(graph, fields, opts)``, set once by :func:`_init_worker`.
_WORKER_STATE = None


def _init_worker(g, fields, opts):
    global _WORKER_STATE
    _WORKER_STATE = (g, fields, opts)


def _solve_pair_in_worker(pair):
    return _solve_pair(*_WORKER_STATE, *pair)


def distance_matrix(
    g: ConnectionGraph,
    fields,
    opts: SolveOptions | None = None,
    jobs=1,
    require_convergence=True,
    return_converged=False,
):
    """Symmetric matrix of pairwise regularized transport costs.

    Infeasible pairs get ``inf``, as in :func:`~conbeck.solver.wasserstein`:
    the solver's feasibility test refuses them before any ascent, so each
    pair is tested once.  The diagonal is exactly zero.  The kernel is
    computed once, as ``g.kernel``.  With ``jobs > 1`` the pairwise
    solves (they are independent) run in a pool of ``min(jobs, pairs)``
    processes, or serially when that is one: each worker
    receives the graph, its kernel and the fields once, and a task is just
    a pair of indices.  Results are deterministic either way.  A pair that
    exhausts the epoch budget raises :class:`NonConvergenceError` unless
    ``require_convergence=False``.  With ``return_converged=True`` a boolean
    matrix of per-pair convergence flags is returned alongside (infeasible
    pairs and the diagonal count as converged).  An invalid graph, an
    ``opts.lam`` that is not positive and finite, or a field with a NaN or
    infinite entry raises :class:`InvalidGraphError` before any solve, even
    when there is no pair.
    """
    if opts is None:
        opts = SolveOptions()
    g.require_valid()
    _resolve_lam(g, opts.lam)
    fields = [_finite(g, f, f"field {k}") for k, f in enumerate(fields)]
    k = len(fields)
    dist = np.zeros((k, k))
    conv = np.ones((k, k), dtype=bool)
    tasks = [(a, b) for a in range(k) for b in range(a + 1, k)]

    def finish(a, b, cost, converged):
        if not converged and require_convergence:
            raise NonConvergenceError(
                f"pairwise solve ({a}, {b}) did not converge within "
                f"{opts.max_epochs} epochs"
            )
        dist[a, b] = dist[b, a] = cost
        conv[a, b] = conv[b, a] = converged

    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        g.kernel  # once here, not once per worker: the pickle carries it
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(g, fields, opts)
        ) as pool:
            results = pool.map(_solve_pair_in_worker, tasks)
            for (a, b), (cost, converged) in zip(tasks, results):
                finish(a, b, cost, converged)
    else:
        for a, b in tasks:
            finish(a, b, *_solve_pair(g, fields, opts, a, b))
    if return_converged:
        return dist, conv
    return dist


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    converged: bool
    inertia: float


#: Seeded k-means restarts in :func:`spectral_cluster` (the lowest inertia
#: wins) and Lloyd iterations allowed per restart.
KMEANS_RESTARTS = 20
KMEANS_MAX_ITER = 300


def _lloyd(points, k, rng):
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    converged = False
    for _ in range(KMEANS_MAX_ITER):
        sq = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = sq.argmin(axis=1)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:  # reseed an empty cluster at the farthest point
                far = sq.min(axis=1).argmax()
                centers[c] = points[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, converged, inertia


def spectral_cluster(affinity, num_clusters, seed=0):
    """Normalized-Laplacian spectral embedding plus deterministic k-means.

    The affinity is embedded with the ``num_clusters`` lowest eigenvectors
    of ``I - D^{-1/2} A D^{-1/2}`` (rows normalized to the unit sphere),
    then clustered by Lloyd's algorithm with :data:`KMEANS_RESTARTS`
    seeded restarts, keeping the lowest-inertia run.  Returns a
    :class:`ClusterResult` whose ``converged`` flag reports whether the
    winning restart settled within :data:`KMEANS_MAX_ITER` iterations;
    labels are still returned on non-convergence.
    """
    a = np.asarray(affinity, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidGraphError("affinity must be a square matrix")
    if not 1 <= num_clusters <= a.shape[0]:
        raise InvalidGraphError(
            f"need 1 <= num_clusters <= {a.shape[0]}, got {num_clusters}"
        )
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0
    _, vecs = np.linalg.eigh(lap)
    embed = vecs[:, :num_clusters]
    norms = np.linalg.norm(embed, axis=1, keepdims=True)
    embed = np.where(norms > 0, embed / np.where(norms > 0, norms, 1.0), embed)

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        labels, converged, inertia = _lloyd(embed, num_clusters, rng)
        if best is None or inertia < best[2] - 1e-12:
            best = (labels, converged, inertia)
    return ClusterResult(labels=best[0], converged=best[1], inertia=best[2])
