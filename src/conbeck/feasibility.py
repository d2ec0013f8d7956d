"""Spectral feasibility: kernel bases, feasibility tests, switching.

A source/target pair (alpha, beta) admits a finite-cost flow exactly when
the difference alpha - beta is orthogonal to ker(L) = ker(B^T).  On a
connected graph ker(L) is the space of parallel sections: the fixed space
of the fundamental cycle products, expanded along spanning-tree paths.
That structured route is the one :attr:`ConnectionGraph.kernel` uses when
the connection is flat within the tolerance; otherwise the kernel is the
bottom of the near-kernel modes that :func:`project_feasible` removes.
Those modes come from one sparse shift-invert eigensolve of L per graph,
cached as ``g.near_kernel_modes``, so the kernel is the same whichever of
the two runs first.  The numeric route, a dense eigensolve of L, is kept
as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, InvalidGraphError
from .graph import ConnectionGraph, _shaped, tree_products

__all__ = [
    "KernelBasis",
    "kernel_numeric",
    "kernel_structured",
    "is_feasible",
    "require_feasible",
    "feasibility_report",
    "project_feasible",
    "feasibility_switching",
]


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of (near-)kernel vector fields.

    ``vectors`` has shape (k, n, d) with 0 <= k <= d for connected graphs;
    ``tol`` is the absolute threshold that was applied: the zero-eigenvalue
    threshold, or, for the parallel sections of :func:`kernel_structured`,
    their residual tolerance.
    """

    vectors: np.ndarray
    tol: float

    @property
    def dimension(self):
        return self.vectors.shape[0]

    def inner_products(self, field):
        """Inner products of a field against each basis vector, shape (k,)."""
        return np.einsum("knd,nd->k", self.vectors, np.asarray(field, dtype=float))


#: Eigenvalues of L at or below this fraction of ``max(lambda_max, 1)`` count
#: as kernel; the parallel sections must have a residual ``|B^T f|`` at or below it.
KERNEL_TOL = 1e-8


def kernel_numeric(g: ConnectionGraph):
    """Kernel of the connection Laplacian from its spectrum.

    The kernel dimension k is the number of eigenvalues of L at or below
    ``KERNEL_TOL * max(lambda_max, 1)``; ties resolve toward inclusion.
    The basis is the k lowest eigenvectors of the same dense L.  Their residual
    ``|B^T f|`` stays at machine level: the eigensolver's error in a
    kernel vector lies along eigenvectors of nonzero eigenvalue, where
    B^T does not amplify it.  Costs O((n d)^3) time and O((n d)^2) memory,
    independent of the edge count.  No command calls it: it is the dense
    reference that tests hold :func:`kernel_structured` against.  It stays
    in the package because the benchmark in ``perfbench/`` imports it, for
    its self-test and its kernel timing.
    """
    import scipy.linalg  # only this reference needs it; keeps CLI start-up light

    g.require_valid()
    lap = g.laplacian_matrix.toarray()
    eigs = np.linalg.eigvalsh(lap)
    threshold = KERNEL_TOL * max(float(eigs[-1]), 1.0)
    k = int(np.count_nonzero(eigs <= threshold))
    if k == 0:
        return KernelBasis(np.zeros((0, g.n, g.d)), threshold)
    _, vecs = scipy.linalg.eigh(lap, subset_by_index=(0, k - 1))
    return KernelBasis(vecs.T.reshape(k, g.n, g.d), threshold)


def kernel_structured(g: ConnectionGraph):
    """Kernel basis from parallel sections, with the dense rule's count.

    The d fields ``f_k(i) = t[i] e_k / sqrt(n)``, expanded along the BFS
    tree from vertex 0 (``t`` its tree products), are orthonormal.  ``B^T``
    vanishes on them across tree edges and maps them to ``t[i] (I - h_e) /
    sqrt(n)`` across a chord ``e = (i, j)`` with holonomy ``h_e = t[i]^T
    sigma_e t[j]``; as every ``t[i]`` is orthogonal, ``|B^T f|`` (the 2-norm
    of the (m d) x d residual) is the 2-norm of the stacked chord defects
    ``(h_e - I) / sqrt(n)``, and no B is formed.  When it is at most
    ``KERNEL_TOL`` and :func:`_at_most_d_kernel_modes` rules out any other
    mode at or below ``KERNEL_TOL * max(lambda_max, 1)``, the fields are
    the basis: O(m d^2) time and memory.  Otherwise the basis is
    the near-kernel modes of ``g.near_kernel_modes``, the one sparse solve
    :func:`project_feasible` also reads, with eigenvalue at or below that
    threshold; this is the count rule of :func:`kernel_numeric`, with no
    dense L above the smallest graphs, and the same basis in any call order.
    :attr:`ConnectionGraph.kernel` caches the result.
    """
    d = g.d
    _, _, depth, chord, t, defects = g._tree
    defects = defects.reshape(-1, d) / np.sqrt(g.n)
    flat = not chord.any() or np.linalg.norm(defects, 2) <= KERNEL_TOL
    if flat and _at_most_d_kernel_modes(g, depth.max()):
        return KernelBasis(np.moveaxis(t, 2, 0) / np.sqrt(g.n), KERNEL_TOL)
    modes, vals, scale = g.near_kernel_modes
    threshold = KERNEL_TOL * scale
    return KernelBasis(modes[:, vals <= threshold].T.reshape(-1, g.n, d), threshold)


def _at_most_d_kernel_modes(g: ConnectionGraph, depth):
    """Whether L provably has at most d eigenvalues at or below ``KERNEL_TOL * max(lambda_max, 1)``.

    Switched to the frame of a BFS tree of depth D, a unit field f with
    ``f^T L f <= theta`` keeps every f(i) within ``sqrt(D theta / w_min)``
    of f(root), by Cauchy-Schwarz along tree paths of at most D edges.
    When that is below ``1 / sqrt(n)``, f(root) is nonzero for every such
    field, so the eigenvectors under ``theta`` span at most d dimensions.
    ``theta`` is bounded through ``lambda_max <= 2 max_i deg_i``.  The test
    fails when ``w_min <= n D theta``, where a weak edge can carry a
    non-kernel mode under the threshold.
    """
    theta = KERNEL_TOL * max(2.0 * g.weighted_degrees.max(), 1.0)
    return depth == 0 or g.n * depth * theta < g.weights.min()


def _finite(g: ConnectionGraph, field, name):
    """``field`` as a float (n, d) array, shaped by :func:`conbeck.graph._shaped`.
    A NaN or infinite entry raises :class:`InvalidGraphError` naming the field
    and its first such vertex."""
    values = _shaped(g, field, name, g.n)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise InvalidGraphError(
            f"{name} is not finite at vertex {bad[0]}: {values[bad[0]].tolist()}"
        )
    return values


def feasibility_report(g: ConnectionGraph, alpha, beta, tol=1e-8):
    """Feasibility verdict with the violated kernel components.

    Returns ``(feasible, violations, basis)`` where violations is a list of
    ``(component_index, inner_product)`` pairs with magnitude above
    ``tol * max(1, |alpha - beta|_2)``.  A field with a NaN or infinite
    entry raises :class:`InvalidGraphError`.
    """
    diff = _finite(g, alpha, "alpha") - _finite(g, beta, "beta")
    basis = g.kernel
    scale = max(1.0, float(np.linalg.norm(diff)))
    ips = basis.inner_products(diff)
    violations = [
        (int(k), float(ip)) for k, ip in enumerate(ips) if abs(ip) > tol * scale
    ]
    return (not violations), violations, basis


def is_feasible(g: ConnectionGraph, alpha, beta):
    """Whether alpha - beta is orthogonal to ker(L); see :func:`feasibility_report`."""
    feasible, _, _ = feasibility_report(g, alpha, beta)
    return feasible


def require_feasible(g: ConnectionGraph, alpha, beta):
    """Raise :class:`FeasibilityError` naming violated components if infeasible."""
    feasible, violations, basis = feasibility_report(g, alpha, beta)
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

#: Shift-invert pole for the lowest modes, as a fraction of ``max(lambda_max, 1)``.
#: Negative, because L is positive semidefinite and may be singular.
MODE_SHIFT = -1e-6

#: Least Lanczos basis size of scipy's ``eigsh`` (its ``ncv`` is ``max(2 k + 1, 20)``).
#: An L no larger than the basis is solved densely: ARPACK would span all of it.
ARPACK_MIN_NCV = 20


def _lowest_modes(g: ConnectionGraph):
    """Orthonormal eigenvectors of L with eigenvalue at or below
    ``NEAR_KERNEL_RATIO * max(lambda_max, 1)`` as columns, shape (n d, k),
    their eigenvalues, and the scale ``max(lambda_max, 1)``.

    Shift-invert ``eigsh`` returns them, its ``k`` doubling until the
    largest returned eigenvalue passes the threshold.  L - sigma I is
    factored once, as ``eigsh`` itself would factor it (CSC, SuperLU's
    default ordering), and every call solves with that one LU.  A dense
    ``eigh`` of L serves only where the Lanczos basis of ``k`` modes would
    not be smaller than L (see ``ARPACK_MIN_NCV``).  Every ``eigsh`` call
    starts from the same vector, so the modes are reproducible bit for bit.
    Reached only through :attr:`ConnectionGraph.near_kernel_modes`.
    """
    # only these modes need SciPy; keeps CLI start-up light
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    lap = g.laplacian_matrix
    size = lap.shape[0]
    k = 2 * g.d + 2
    shift_inverse = None
    while size > max(2 * k + 1, ARPACK_MIN_NCV):
        if shift_inverse is None:
            v0 = np.random.default_rng(0).standard_normal(size)
            lam_max = eigsh(lap, 1, which="LA", v0=v0, return_eigenvectors=False)[0]
            scale = max(float(lam_max), 1.0)
            threshold = NEAR_KERNEL_RATIO * scale
            sigma = MODE_SHIFT * scale
            lu = splu((lap - sigma * sp.eye(size)).tocsc())
            shift_inverse = LinearOperator(lap.shape, matvec=lu.solve, dtype=lap.dtype)
        vals, vecs = eigsh(lap, k, sigma=sigma, v0=v0, OPinv=shift_inverse)
        if vals.max() > threshold:
            keep = vals <= threshold
            return vecs[:, keep], vals[keep], scale
        k *= 2
    eigs, vecs = np.linalg.eigh(lap.toarray())
    scale = max(float(eigs[-1]), 1.0)
    count = int(np.count_nonzero(eigs <= NEAR_KERNEL_RATIO * scale))
    return vecs[:, :count], eigs[:count], scale


def project_feasible(g: ConnectionGraph, field):
    """Remove near-kernel components from a field, or from a stack of them.

    The modes are the eigenvectors of L with eigenvalue at most
    ``NEAR_KERNEL_RATIO * max(lambda_max, 1)``, so the result is feasible
    against any likewise projected field.  ``field`` is one field, (n, d) or
    flat, or a (k, n, d) stack, projected against a single set of modes; the
    result has the shape of ``field``.  The modes are
    ``g.near_kernel_modes``, one sparse eigensolve per graph (see
    :func:`_lowest_modes`) that :func:`kernel_structured` also reads, so no
    dense L is formed above the smallest graphs.  A field with a NaN or
    infinite entry raises :class:`InvalidGraphError`.
    """
    g.require_valid()
    field = np.asarray(field, dtype=float)
    if field.ndim == 3:
        for k, one in enumerate(field):
            _finite(g, one, f"field {k}")
    else:
        _finite(g, field, "field")
    rows = field.reshape(-1, g.n * g.d)
    modes = g.near_kernel_modes[0]
    out = rows - (rows @ modes) @ modes.T
    return out.reshape(field.shape)


def feasibility_switching(g: ConnectionGraph, root=0):
    """Switching function tau(i) = sigma along the tree path from i to root.

    On the switched graph every tree edge carries the identity, the kernel
    consists of constant fields only, and any two vector densities (equal
    channel sums) are mutually feasible.
    """
    return tree_products(g, root)
