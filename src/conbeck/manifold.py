"""Point clouds to connection graphs: epsilon graphs, local PCA, Procrustes.

The construction follows the manifold-learning recipe: connect points
closer than ``eps``, estimate a d-dimensional tangent frame at every
point from a kernel-weighted SVD of the neighbor offsets, and align
neighboring frames with an orthogonal Procrustes fit to obtain the
connection matrices.  Sampling helpers for the torus and a spherical
patch provide reproducible inputs.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGraphError
from .graph import ConnectionGraph, _component_of_zero, _neighbours

__all__ = [
    "GraphSkeleton",
    "epsilon_graph",
    "tangent_frames",
    "procrustes_connection",
    "sample_torus",
    "sample_sphere_patch",
    "sphere_point",
    "project_to_tangent",
    "lift_to_ambient",
]


@dataclass
class GraphSkeleton:
    """Edges and weights of an epsilon graph, before any connection exists."""

    n: int
    edge_index: np.ndarray  # (m, 2), index oriented
    weights: np.ndarray  # (m,)
    distances: np.ndarray  # (m,)
    isolated: list = field(default_factory=list)
    connected: bool = True

    @property
    def m(self):
        return self.edge_index.shape[0]


#: :func:`_grid_cells` makes its cells wider than the search radius by this
#: relative margin plus this fraction of the largest coordinate, so that
#: rounding in ``x / side`` never puts two points closer than the radius
#: more than one cell apart, however far from the origin they lie.
CELL_MARGIN = 1e-9
CELL_FLOOR = 1e-14

#: No cell is narrower than this.  Coordinate gaps below about 2**-537
#: square to zero, so the distance formula puts a pair with only such gaps
#: at distance 0; cells of at least twice that side make the pair share or
#: touch a cell, and :func:`epsilon_graph` reports it as coincident.
CELL_MIN_SIDE = 2.0**-536


def _grid_cells(cloud, radius):
    """Cell coordinates, shape (n, k) with k <= 3, of the points on a cubic
    grid of side just above ``radius`` (and at least ``CELL_MIN_SIDE``)
    over their widest coordinates.

    Each axis is renumbered so that a gap of two or more cells becomes
    exactly two: touching cells still touch, and every coordinate stays
    below 2n whatever the ratio of extent to radius.  Axes are dropped,
    narrowest first, until the cell keys fit in 62 bits.
    """
    n, p = cloud.shape
    extent = np.ptp(cloud, axis=0) if n else np.zeros(p)
    x = cloud[:, np.argsort(-extent, kind="stable")[:3]]
    largest = float(np.abs(x).max()) if x.size else 0.0
    side = (radius if radius > 0 else 0.0) * (1 + CELL_MARGIN) + CELL_FLOOR * largest
    cells = np.floor(x / max(side, CELL_MIN_SIDE))
    out = np.empty(x.shape, dtype=np.int64)
    for k in range(x.shape[1]):
        values, inverse = np.unique(cells[:, k], return_inverse=True)
        steps = np.minimum(np.diff(values), 2).astype(np.int64)
        out[:, k] = np.concatenate([[1], 1 + np.cumsum(steps)])[inverse]
    while math.prod(int(c) + 2 for c in out.max(axis=0, initial=0)) >= 1 << 62:
        out = out[:, :-1]
    return out


def _grid_pairs(cloud, radius):
    """Yield ``(i, j)`` index arrays of every pair of points whose grid
    cells (see :func:`_grid_cells`) touch, one stencil offset at a time.

    Every pair closer than ``radius`` is among them, each pair once.  The
    stencil is the cell itself and the half of its neighbours with a
    positive key step: at most 14 offsets, for any ambient dimension.
    """
    cells = _grid_cells(cloud, radius)
    # mixed radix with room for the -1 and +1 neighbours of every coordinate
    radix = (cells.max(axis=0, initial=0) + 2).tolist()
    strides = np.array([math.prod(radix[k + 1 :]) for k in range(len(radix))], dtype=np.int64)
    key = cells @ strides
    order = np.argsort(key, kind="stable")  # by cell, then by index
    occupied, start, count = np.unique(key[order], return_index=True, return_counts=True)
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=cells.shape[1]))) @ strides
    for step in np.sort(steps[steps >= 0]):
        at = np.searchsorted(occupied, occupied + step).clip(max=occupied.size - 1)
        a = np.flatnonzero(occupied[at] == occupied + step)
        b = at[a]
        sizes = count[a] * count[b]
        pair = np.repeat(np.arange(a.size), sizes)
        rank = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        width = count[b][pair]
        i = order[start[a][pair] + rank // width]
        j = order[start[b][pair] + rank % width]
        yield (i[i < j], j[i < j]) if step == 0 else (i, j)


def epsilon_graph(cloud, eps, weights="inverse"):
    """Skeleton with an edge wherever ``0 < |x_i - x_j| < eps`` (strict).

    ``weights`` is ``"inverse"`` (1/distance, the default) or ``"unit"``.
    Coincident points are rejected; isolated vertices and disconnectedness
    are reported on the returned skeleton rather than raised, since only
    transport operations require connectivity.  Candidate pairs come from
    a uniform cell grid of side ``eps`` (:func:`_grid_pairs`); one
    distance formula and the strict test decide.
    """
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2:
        raise InvalidGraphError("cloud must be a 2-d array of shape (n, p)")
    if weights not in ("inverse", "unit"):
        raise InvalidGraphError(f"unknown weight scheme {weights!r}")
    if not np.isfinite(cloud).all():
        raise InvalidGraphError("cloud has non-finite coordinates")
    n = cloud.shape[0]
    keys, dists, coincident = [], [], []
    for i, j in _grid_pairs(cloud, eps):
        diff = cloud.take(i, axis=0) - cloud.take(j, axis=0)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        del diff
        dup = dist == 0.0
        if dup.any():
            coincident.append(np.stack([i[dup], j[dup]], axis=1))
        keep = dist < eps
        i, j = i[keep], j[keep]
        # each kept pair once, as the code lo * n + hi of its index-oriented ends
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        dists.append(dist[keep])
    if coincident:
        a, b = min(tuple(sorted(pair)) for pair in np.concatenate(coincident).tolist())
        raise InvalidGraphError(
            f"coincident points {a} and {b}; duplicate positions are not allowed"
        )
    # concatenate, sort and split one array at a time, freeing each input
    key = np.concatenate(keys)
    del keys
    d_edge = np.concatenate(dists)
    del dists
    by_pair = np.argsort(key)
    key = key[by_pair]
    d_edge = d_edge[by_pair]
    del by_pair
    edge_index = np.empty((key.size, 2), dtype=key.dtype)
    np.floor_divide(key, n, out=edge_index[:, 0])
    np.remainder(key, n, out=edge_index[:, 1])
    del key
    w = 1.0 / d_edge if weights == "inverse" else np.ones_like(d_edge)

    isolated = np.flatnonzero(np.bincount(edge_index.reshape(-1), minlength=n) == 0).tolist()
    connected = bool(_component_of_zero(n, edge_index).all())
    return GraphSkeleton(n, edge_index, w, d_edge, isolated, connected)


#: :func:`_nearest` compares at most this many (point, node) distances at once.
NEAREST_BLOCK = 1 << 18


def _nearest(points, cloud):
    """Index of the cloud node nearest each point: the lowest index at the
    minimum of ``sqrt(sum((b - x)**2))``, the squares summed in coordinate
    order, by brute force over the cloud in blocks of at most
    ``NEAREST_BLOCK`` distances."""
    n = cloud.shape[0]
    rows = max(1, NEAREST_BLOCK // max(n, 1))
    nearest = np.empty(points.shape[0], dtype=int)
    for s in range(0, points.shape[0], rows):
        block = points[s : s + rows]
        square = np.zeros((block.shape[0], n))
        for b, x in zip(block.T, cloud.T):
            diff = b[:, None] - x
            square += np.multiply(diff, diff, out=diff)
        nearest[s : s + rows] = np.sqrt(square).argmin(axis=1)
    return nearest


#: :func:`tangent_frames` takes the SVDs of vertices of equal degree
#: together, at most this many neighbour offsets in one batch.
FRAME_BATCH_OFFSETS = 1 << 14


def tangent_frames(cloud, skeleton: GraphSkeleton, d, eps):
    """Kernel-weighted local PCA frames, shape (n, p, d).

    At each point the neighbor offsets are column-weighted by the
    Epanechnikov kernel ``K(u) = 1 - u^2`` on [0, 1] evaluated at
    ``distance / sqrt(eps)`` and the top-``d`` left singular vectors form
    the frame: the bandwidth of Singer & Wu's local PCA, with ``eps`` read
    as the graph radius.  Vertices of equal degree are
    solved as one stack of SVDs, in batches of at most
    ``FRAME_BATCH_OFFSETS`` offsets.
    """
    cloud = np.asarray(cloud, dtype=float)
    n, p = cloud.shape
    if d > p:
        raise InvalidGraphError(f"intrinsic dimension d={d} exceeds ambient p={p}")
    kernel_scale = float(np.sqrt(eps))
    indptr, nbrs = _neighbours(n, skeleton.edge_index)
    degree = np.diff(indptr)
    frames = np.zeros((n, p, d))
    unsupported = np.zeros(n, dtype=bool)
    for size in np.unique(degree[degree >= d]):
        group = np.flatnonzero(degree == size)
        for batch in np.array_split(group, -(-group.size * size // FRAME_BATCH_OFFSETS)):
            slots = indptr[batch, None] + np.arange(size)
            offsets = cloud[nbrs[slots]] - cloud[batch, None]  # (k, N, p)
            u = np.linalg.norm(offsets, axis=-1) / kernel_scale
            kern = np.where(u < 1.0, 1.0 - u**2, 0.0)
            unsupported[batch] = ~np.any(kern > 0, axis=-1)
            weighted = np.swapaxes(offsets, 1, 2) * kern[:, None]  # B_i = X_i D_i, (k, p, N)
            left, _, _ = np.linalg.svd(weighted, full_matrices=False)
            frames[batch] = left[:, :, :d]
    bad = np.flatnonzero((degree < d) | unsupported)
    if bad.size:
        i = bad[0]
        if degree[i] < d:
            raise InvalidGraphError(
                f"vertex {i} has {degree[i]} neighbors; at least {d} are "
                "required to estimate a rank-d tangent frame"
            )
        raise InvalidGraphError(
            f"vertex {i}: all neighbors fall outside the kernel support "
            f"(scale sqrt(eps) = {kernel_scale:.3g})"
        )
    return frames


#: :func:`procrustes_connection` warns of alignments with a singular value at or below this.
DEGENERATE_TOL = 1e-8

#: :func:`procrustes_connection` aligns at most this many edges at once.
PROCRUSTES_BLOCK = 1 << 12


def procrustes_connection(frames, skeleton: GraphSkeleton):
    """Connection graph with ``sigma_ij`` the orthogonal Procrustes fit.

    For each skeleton edge the alignment ``O_i^T O_j`` is projected to the
    nearest orthogonal matrix through its SVD ``U V^T``, in blocks of at
    most ``PROCRUSTES_BLOCK`` edges written into one (m, d, d) array.
    Edges whose alignment is numerically rank deficient (smallest singular
    value at or below :data:`DEGENERATE_TOL`) are flagged with a warning:
    their Procrustes fit is not unique.
    """
    frames = np.asarray(frames, dtype=float)
    n, _, d = frames.shape
    i, j = skeleton.edge_index.T
    sigmas = np.empty((skeleton.m, d, d))
    smallest = np.empty(skeleton.m)
    for start in range(0, skeleton.m, PROCRUSTES_BLOCK):
        block = slice(start, start + PROCRUSTES_BLOCK)
        u, s, vt = np.linalg.svd(np.swapaxes(frames[i[block]], 1, 2) @ frames[j[block]])
        np.matmul(u, vt, out=sigmas[block])
        smallest[block] = s.min(axis=-1)
    flagged = np.flatnonzero(smallest <= DEGENERATE_TOL).tolist()
    if flagged:
        warnings.warn(
            f"{len(flagged)} edge(s) have rank-deficient frame alignments "
            f"(first few: {flagged[:5]}); their connection matrices are not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    return ConnectionGraph(n, d, skeleton.edge_index, skeleton.weights, sigmas)


#: Major and minor radii ``(R, r)`` of the torus :func:`sample_torus` samples.
TORUS_RADII = (5.0, 1.0)


def sample_torus(n_theta, n_psi):
    """Regular grid on the torus, theta-major ordering, shape (n_theta*n_psi, 3).

    Embedding: ``((R + r cos theta) cos psi, (R + r cos theta) sin psi,
    r sin theta)`` with ``(R, r) = TORUS_RADII`` and both angles sampled on
    [0, 2 pi) excluding the periodic endpoint.
    """
    major_radius, minor_radius = TORUS_RADII
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    psi = np.linspace(0.0, 2 * np.pi, n_psi, endpoint=False)
    tt, pp = np.meshgrid(theta, psi, indexing="ij")
    ring = major_radius + minor_radius * np.cos(tt)
    pts = np.stack(
        [ring * np.cos(pp), ring * np.sin(pp), minor_radius * np.sin(tt)], axis=-1
    )
    return pts.reshape(-1, 3)


def sphere_point(theta, psi):
    """Unit-sphere embedding ``(sin(pi/2 - theta) cos(-psi), sin(pi/2 - theta) sin(-psi), cos(pi/2 - theta))``.

    ``theta`` is the latitude and ``psi`` the west-positive azimuth, both
    in radians; equivalently ``(cos theta cos lon, cos theta sin lon,
    sin theta)`` for the east-positive longitude ``lon = -psi``.
    """
    theta = np.asarray(theta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    colat = np.pi / 2 - theta
    return np.stack(
        [np.sin(colat) * np.cos(-psi), np.sin(colat) * np.sin(-psi), np.cos(colat)],
        axis=-1,
    )


#: Latitude and west-positive azimuth ranges, in radians, of the North
#: Atlantic window that :func:`sample_sphere_patch` covers.
PATCH_THETA_RANGE = (7 * np.pi / 180, 67 * np.pi / 180)
PATCH_PSI_RANGE = (-30 * np.pi / 180, 120 * np.pi / 180)


def sample_sphere_patch(n_theta, n_psi):
    """Inclusive grid over the North Atlantic window of the unit sphere.

    The window is the latitude/azimuth rectangle ``PATCH_THETA_RANGE`` x
    ``PATCH_PSI_RANGE`` used by the hurricane pipeline.  Returns ``(cloud,
    theta_grid, psi_grid)`` with theta-major ordering.
    """
    theta = np.linspace(*PATCH_THETA_RANGE, n_theta)
    psi = np.linspace(*PATCH_PSI_RANGE, n_psi)
    tt, pp = np.meshgrid(theta, psi, indexing="ij")
    cloud = sphere_point(tt.reshape(-1), pp.reshape(-1))
    return cloud, theta, psi


def project_to_tangent(frames, ambient):
    """Per-vertex coordinates ``O_i^T y_i`` of ambient vectors, shape (n, d)."""
    frames = np.asarray(frames, dtype=float)
    ambient = np.asarray(ambient, dtype=float)
    return np.einsum("npd,np->nd", frames, ambient)


def lift_to_ambient(frames, field):
    """Per-vertex ambient vectors ``O_i f(i)`` of a tangent field, shape (n, p)."""
    frames = np.asarray(frames, dtype=float)
    field = np.asarray(field, dtype=float)
    return np.einsum("npd,nd->np", frames, field)
