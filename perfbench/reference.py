"""Independent references for checking the program's outputs.

Nothing here imports the program under test.  The operator, the
epsilon pairs, the storm snapping, the flat-connection kernel and the
regularized dual optimum are computed again from the inputs the benchmark
wrote, with SciPy.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.spatial import cKDTree

from inputs import sphere_point


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -------------------------------------------------------------- operators


def incidence(n, d, pairs, sigmas):
    """Connection incidence B, shape (n d, m d): +I at the tail i and
    -sigma^T at the head j of each edge, so (B^T phi)(e) = phi_i - sigma phi_j."""
    pairs = np.asarray(pairs)
    m = pairs.shape[0]
    rows, cols, vals = [], [], []
    for a in range(d):
        rows.append(pairs[:, 0] * d + a)
        cols.append(np.arange(m) * d + a)
        vals.append(np.ones(m))
        for b in range(d):
            rows.append(pairs[:, 1] * d + a)
            cols.append(np.arange(m) * d + b)
            vals.append(-sigmas[:, b, a])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * d, m * d),
    )


def graph_arrays(obj):
    """(n, d, pairs, weights, sigmas) of a graph JSON object."""
    n, d = int(obj["n"]), int(obj["d"])
    edges = obj["edges"]
    pairs = np.array([(e["i"], e["j"]) for e in edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([e["w"] for e in edges], dtype=float)
    sigmas = np.array([e["sigma"] for e in edges], dtype=float).reshape(-1, d, d)
    return n, d, pairs, weights, sigmas


# ---------------------------------------------------------- point clouds


def epsilon_pairs(cloud, eps):
    """Sorted pairs i < j with 0 < |x_i - x_j| < eps, and their distances."""
    pairs = cKDTree(cloud).query_pairs(eps, output_type="ndarray").reshape(-1, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    dist = np.linalg.norm(cloud[pairs[:, 0]] - cloud[pairs[:, 1]], axis=1)
    keep = (dist > 0) & (dist < eps)
    return pairs[keep], dist[keep]


def check_graph_against_cloud(obj, cloud, eps, d):
    """Edge set equals the epsilon pairs, weights are 1/distance and every
    sigma is orthogonal.  Pairs within 1e-12 of eps may go either way."""
    n, gd, pairs, weights, sigmas = graph_arrays(obj)
    require(n == cloud.shape[0] and gd == d, f"graph has n={n}, d={gd}")
    ref_pairs, ref_dist = epsilon_pairs(cloud, eps)
    got = {tuple(p) for p in pairs.tolist()}
    want = {tuple(p) for p in ref_pairs.tolist()}
    require(len(got) == len(pairs), "graph repeats an edge")
    for i, j in got ^ want:
        boundary = abs(np.linalg.norm(cloud[i] - cloud[j]) - eps) < 1e-12
        require(boundary, f"edge ({i}, {j}) differs from the epsilon pairs")
    order = {p: k for k, p in enumerate(map(tuple, ref_pairs.tolist()))}
    idx = np.array([order.get(tuple(p), -1) for p in pairs.tolist()])
    ok = idx >= 0
    require(
        np.allclose(weights[ok], 1.0 / ref_dist[idx[ok]], rtol=1e-12, atol=0),
        "edge weights are not 1/distance",
    )
    gram = np.einsum("eab,eac->ebc", sigmas, sigmas)
    require(
        np.abs(gram - np.eye(d)).max() < 1e-10, "a connection matrix is not orthogonal"
    )
    return n, d, pairs, weights, sigmas


def check_frames(obj, cloud, d, eps):
    """Frames are orthonormal and tangent to the unit sphere.  Local PCA of
    an eps-ball tilts a frame by O(eps), most at the patch boundary where
    the ball is one-sided (about eps / 2 there)."""
    frames = np.array(obj["frames"], dtype=float)
    require(frames.shape == (cloud.shape[0], cloud.shape[1], d), "frames have the wrong shape")
    gram = np.einsum("npa,npb->nab", frames, frames)
    require(np.abs(gram - np.eye(d)).max() < 1e-10, "frames are not orthonormal")
    normal = np.einsum("npa,np->na", frames, cloud)
    require(np.abs(normal).max() <= eps, "frames are not tangent to the sphere")
    return frames


def snapped_nodes(cloud, lats, lons):
    """Mesh nodes nearest to each fix that starts a nonzero step, by brute
    force over the cloud.  The generated fixes lie within 0.15 degree of a
    grid node, far from any tie."""
    pts = sphere_point(lats, lons)
    steps = np.linalg.norm(pts[1:] - pts[:-1], axis=1) > 1e-12
    dist = np.linalg.norm(pts[:-1][steps][:, None, :] - cloud[None, :, :], axis=2)
    return set(dist.argmin(axis=1).tolist())


def check_field_support(values, cloud, lats, lons):
    """A storm field is nonzero exactly on the nodes its fixes snap to."""
    nearest = snapped_nodes(cloud, lats, lons)
    support = set(np.flatnonzero(np.linalg.norm(values, axis=1) > 1e-12).tolist())
    require(
        support == nearest,
        f"field support {sorted(support)} differs from the snapped nodes {sorted(nearest)}",
    )


# -------------------------------------------------------------- kernels


def flat_kernel(tau):
    """Orthonormal basis of {i -> tau_i^T x : x in R^d}, shape (d, n, d)."""
    n, d, _ = tau.shape
    return np.transpose(tau, (1, 0, 2)) / np.sqrt(n)


def principal_cosines(a, b):
    """Cosines of the principal angles between the spans of the rows."""
    qa, _ = np.linalg.qr(a.reshape(a.shape[0], -1).T)
    qb, _ = np.linalg.qr(b.reshape(b.shape[0], -1).T)
    return np.linalg.svd(qa.T @ qb, compute_uv=False)


def near_kernel_projection(bmat, weights, d, fields, ratio=1e-3):
    """Remove the modes of L = B W B^T with eigenvalue at most
    ratio * max(lambda_max, 1) from a stack of fields, shape (k, n, d)."""
    wdiag = sp.diags(np.repeat(weights, d))
    lap = (bmat @ wdiag @ bmat.T).toarray()
    eigs, vecs = np.linalg.eigh(lap)
    modes = vecs[:, eigs <= ratio * max(eigs[-1], 1.0)]
    flat = fields.reshape(fields.shape[0], -1)
    return (flat - (flat @ modes) @ modes.T).reshape(fields.shape)


# ---------------------------------------------------------------- duals


def dual_optimum(bmat, weights, c, lam, d, gtol=1e-5, maxiter=20000):
    """L-BFGS maximum of the regularized dual
    <phi, c> - 1/(2 lam) sum_e [|(B^T phi)(e)| - w(e)]_+^2.

    Returns (value, phi, residual)."""
    c = c.reshape(-1)
    bt = bmat.T.tocsr()
    m = weights.size

    def neg(phi):
        g = (bt @ phi).reshape(m, d)
        norms = np.linalg.norm(g, axis=1)
        excess = np.maximum(norms - weights, 0.0)
        coef = np.where(excess > 0, excess / (lam * np.where(norms > 0, norms, 1.0)), 0.0)
        grad = c - bmat @ (coef[:, None] * g).reshape(-1)
        return -(phi @ c - excess @ excess / (2.0 * lam)), -grad

    res = scipy.optimize.minimize(
        neg, np.zeros(c.size), jac=True, method="L-BFGS-B",
        options={"maxiter": maxiter, "maxcor": 20, "gtol": gtol, "ftol": 0.0},
    )
    value, grad = neg(res.x)
    return -value, res.x, float(np.linalg.norm(grad))


def flow_certificates(bmat, weights, flow, c, lam):
    """Regularized cost of a flow and its constraint residual |c - B J|."""
    norms = np.linalg.norm(flow, axis=1)
    cost = float(weights @ norms + 0.5 * lam * norms @ norms)
    residual = float(np.linalg.norm(c.reshape(-1) - bmat @ flow.reshape(-1)))
    return cost, residual
