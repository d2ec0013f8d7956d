"""Spectral feasibility: kernel bases, feasibility tests, switching.

A source/target pair (alpha, beta) admits a finite-cost flow exactly when
the difference alpha - beta is orthogonal to ker(L) = ker(B^T).  The
kernel is computed two ways: numerically from the operator spectrum, and
structurally from the fixed space of the fundamental cycle products
expanded along spanning-tree paths.  The structured route verifies itself
against the numeric one at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConsistencyError, FeasibilityError
from .graph import ConnectionGraph, _chord_products, tree_products

__all__ = [
    "KernelBasis",
    "kernel_numeric",
    "kernel_structured",
    "is_feasible",
    "feasibility_report",
    "project_feasible",
    "feasibility_switching",
]


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of (near-)kernel vector fields.

    ``vectors`` has shape (k, n, d) with 0 <= k <= d for connected graphs;
    ``tol`` is the absolute zero-eigenvalue threshold that was applied.
    """

    vectors: np.ndarray
    tol: float

    @property
    def dimension(self):
        return self.vectors.shape[0]

    def inner_products(self, field):
        """Inner products of a field against each basis vector, shape (k,)."""
        return np.einsum("knd,nd->k", self.vectors, np.asarray(field, dtype=float))


def kernel_numeric(g: ConnectionGraph, tol=1e-8):
    """Kernel of the connection Laplacian from its spectrum.

    The kernel dimension k is the number of eigenvalues of L at or below
    ``tol * max(lambda_max, 1)``; ties resolve toward inclusion.  The basis
    is the k lowest eigenvectors of the same dense L.  Their residual
    ``|B^T f|`` stays at machine level: the eigensolver's error in a
    kernel vector lies along eigenvectors of nonzero eigenvalue, where
    B^T does not amplify it.  Costs O((n d)^3) time and O((n d)^2) memory,
    independent of the edge count.  :attr:`ConnectionGraph.kernel` caches
    the result for the default ``tol``.
    """
    g.require_valid()
    lap = g.laplacian_matrix.toarray()
    eigs = np.linalg.eigvalsh(lap)
    threshold = tol * max(float(eigs[-1]), 1.0)
    k = int(np.count_nonzero(eigs <= threshold))
    if k == 0:
        return KernelBasis(np.zeros((0, g.n, g.d)), threshold)
    _, vecs = scipy.linalg.eigh(lap, subset_by_index=(0, k - 1))
    return KernelBasis(vecs.T.reshape(k, g.n, g.d), threshold)


def kernel_structured(g: ConnectionGraph, root=0, tol=1e-8):
    """Kernel basis via cycle fixed spaces and tree-path expansion.

    Solves for the joint fixed space W = {x : sigma_C x = x} over the
    fundamental cycle products, then expands each basis vector x along
    BFS tree paths as ``f(i) = sigma_{P_{i,root}} x`` and normalizes.
    Raises :class:`ConsistencyError` if a produced vector fails
    ``|B^T f| <= tol`` or the span disagrees with :func:`kernel_numeric`.
    """
    g.require_valid()
    d = g.d
    t, prods = _chord_products(g, root)
    if prods.size:
        stacked = (prods - np.eye(d)).reshape(-1, d)
        _, svals, vt = np.linalg.svd(stacked, full_matrices=True)
        svals = np.concatenate([svals, np.zeros(d - svals.size)])
        k = int(np.count_nonzero(svals <= tol))
        roots = vt[d - k :][::-1] if k else np.zeros((0, d))
    else:
        roots = np.eye(d)
        k = d
    fields = np.einsum("nab,kb->kna", t, roots) / np.sqrt(g.n)
    basis = KernelBasis(fields, tol)

    resid = np.linalg.norm(g.incidence_matrix_T @ fields.reshape(k, g.n * d).T, axis=0)
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        raise ConsistencyError(
            f"structured kernel vector {bad[0]} has |B^T f| = {resid[bad[0]]:.3g} > {tol:.3g}"
        )
    numeric = g.kernel
    if numeric.dimension != k:
        raise ConsistencyError(
            f"structured kernel dimension {k} disagrees with numeric "
            f"dimension {numeric.dimension}"
        )
    if k:
        gram = np.einsum(
            "knd,lnd->kl", numeric.vectors, fields
        )
        smin = float(np.linalg.svd(gram, compute_uv=False).min())
        if smin < 1 - 1e-7:
            raise ConsistencyError(
                f"structured and numeric kernel spans disagree (cos angle {smin:.6f})"
            )
    return basis


def feasibility_report(g: ConnectionGraph, alpha, beta, tol=1e-8):
    """Feasibility verdict with the violated kernel components.

    Returns ``(feasible, violations, basis)`` where violations is a list of
    ``(component_index, inner_product)`` pairs with magnitude above
    ``tol * max(1, |alpha - beta|_2)``.
    """
    diff = np.asarray(alpha, dtype=float) - np.asarray(beta, dtype=float)
    diff = diff.reshape(g.n, g.d)
    basis = g.kernel
    scale = max(1.0, float(np.linalg.norm(diff)))
    ips = basis.inner_products(diff)
    violations = [
        (int(k), float(ip)) for k, ip in enumerate(ips) if abs(ip) > tol * scale
    ]
    return (not violations), violations, basis


def is_feasible(g: ConnectionGraph, alpha, beta, tol=1e-8):
    """Whether alpha - beta is orthogonal to ker(L), within ``tol`` (scaled)."""
    feasible, _, _ = feasibility_report(g, alpha, beta, tol)
    return feasible


def require_feasible(g: ConnectionGraph, alpha, beta, tol=1e-8):
    """Raise :class:`FeasibilityError` naming violated components if infeasible."""
    feasible, violations, basis = feasibility_report(g, alpha, beta, tol)
    if not feasible:
        parts = ", ".join(f"component {k}: <diff, f_{k}> = {ip:.6g}" for k, ip in violations)
        raise FeasibilityError(
            f"alpha - beta is not orthogonal to the operator kernel ({parts}); "
            "no finite-cost flow exists",
            components=violations,
        )
    return basis


#: :func:`project_feasible` removes the modes of L up to this fraction of ``max(lambda_max, 1)``.
NEAR_KERNEL_RATIO = 1e-3


def project_feasible(g: ConnectionGraph, field, anchor=None, num_modes=None):
    """Remove near-kernel components from a field, or from a stack of them.

    Modes are the eigenvectors of L with eigenvalue at most
    ``NEAR_KERNEL_RATIO * max(lambda_max, 1)`` (or exactly ``num_modes``
    lowest modes when given).  With an ``anchor``, the anchor's components
    along those modes are kept, so the result is feasible against the likewise
    projected anchor; the default anchor is the zero field.  ``field`` is
    one (n, d) field or a (k, n, d) stack; a stack is projected against a
    single eigendecomposition and returned with the same shape.
    """
    g.require_valid()
    field = np.asarray(field, dtype=float)
    stacked = field.ndim == 3
    rows = field.reshape(-1, g.n * g.d)
    ref = 0.0 if anchor is None else np.asarray(anchor, dtype=float).reshape(-1)
    lap = g.laplacian_matrix.toarray()
    eigs, vecs = np.linalg.eigh(lap)
    if num_modes is None:
        num_modes = int(np.count_nonzero(eigs <= NEAR_KERNEL_RATIO * max(eigs[-1], 1.0)))
    modes = vecs[:, :num_modes]
    out = rows - ((rows - ref) @ modes) @ modes.T
    return out.reshape(-1, g.n, g.d) if stacked else out.reshape(g.n, g.d)


def feasibility_switching(g: ConnectionGraph, root=0):
    """Switching function tau(i) = sigma along the tree path from i to root.

    On the switched graph every tree edge carries the identity, the kernel
    consists of constant fields only, and any two vector densities (equal
    channel sums) are mutually feasible.
    """
    return tree_products(g, root)
