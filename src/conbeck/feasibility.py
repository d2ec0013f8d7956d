"""Spectral feasibility: kernel bases, feasibility tests, switching.

A source/target pair (alpha, beta) admits a finite-cost flow exactly when
the difference alpha - beta is orthogonal to ker(L) = ker(B^T).  On a
connected graph ker(L) is the space of parallel sections: the fixed space
of the fundamental cycle products, expanded along spanning-tree paths.
That structured route is the one :attr:`ConnectionGraph.kernel` uses when
the connection is flat within the tolerance and every vertex is close to
the root (one test, ``rho > 0``, computed once; see :func:`_tree_reach`).
On a curved connection the same spanning tree and the same test often
prove that L has no eigenvalue under the kernel threshold (a holonomy
defect far from singular on one chord), and the kernel is empty without an
operator or SciPy.
Otherwise the kernel is the bottom of the near-kernel modes that
:func:`project_feasible` removes.  Those modes come from one sparse
shift-invert eigensolve of L per graph, cached as ``g.near_kernel_modes``,
so the kernel is the same whichever of the two runs first.  The numeric
route, a dense eigensolve of L, is kept as an independent reference.
The tree products from any root are :func:`feasibility_switching`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, InvalidGraphError
from .graph import ConnectionGraph, _shaped, _spanning_tree

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
    their residual tolerance, or, for an empty kernel that the spanning tree
    proves, the ``theta`` that L's spectrum lies above.
    """

    vectors: np.ndarray
    tol: float

    @property
    def dimension(self):
        return self.vectors.shape[0]

    def inner_products(self, field):
        """Inner products of a field against each basis vector, shape (k,).

        ``field`` has shape (n, d) or the flat (n d,) for the basis's own n
        and d; any other shape raises :class:`InvalidGraphError`.
        """
        _, n, d = self.vectors.shape
        values = np.asarray(field, dtype=float)
        if values.shape not in ((n, d), (n * d,)):
            raise InvalidGraphError(f"field has shape {values.shape}; expected {(n, d)}")
        return np.einsum("knd,nd->k", self.vectors, values.reshape(n, d))


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
    ``(h_e - I) / sqrt(n)``, and no B is formed.  Both tree bounds need the
    one test ``rho = 1 / sqrt(n) - max_u delta_u > 0`` of :func:`_tree_reach`,
    under which every field f with ``f^T L f <= theta = KERNEL_TOL * max(2
    max_i deg_i, 1)``, at least the dense rule's threshold, has a nonzero
    root value.  Then the eigenvectors under ``theta`` span at most d
    dimensions, so when the residual is at most ``KERNEL_TOL`` the fields
    are the basis: O(m d^2) time and memory.  Otherwise, when
    :func:`_no_kernel_mode` proves from the same tree that L has no
    eigenvalue at or below ``theta``, the basis is empty and its ``tol`` is
    ``theta``: O(m d^3), with no operator and no SciPy.  On the graphs
    neither test decides, the basis is the near-kernel modes of
    ``g.near_kernel_modes``, the one sparse solve :func:`project_feasible`
    also reads, with eigenvalue at or below that threshold; this is the
    count rule of :func:`kernel_numeric`, with no dense L above the smallest
    graphs, and the same basis in any call order.  :attr:`ConnectionGraph.kernel`
    caches the result.
    """
    d = g.d
    _, _, depth, chord, t, defects = g._tree
    defects = defects.reshape(-1, d) / np.sqrt(g.n)
    flat = not chord.any() or np.linalg.norm(defects, 2) <= KERNEL_TOL
    theta, reach = _tree_reach(g, depth)
    rho = 1.0 / np.sqrt(g.n) - reach.max()
    if rho > 0.0 and flat:
        return KernelBasis(np.moveaxis(t, 2, 0) / np.sqrt(g.n), KERNEL_TOL)
    if rho > 0.0 and _no_kernel_mode(g, theta, reach, rho):
        return KernelBasis(np.zeros((0, g.n, d)), theta)
    modes, vals, scale = g.near_kernel_modes
    threshold = KERNEL_TOL * scale
    return KernelBasis(modes[:, vals <= threshold].T.reshape(-1, g.n, d), threshold)


def _tree_reach(g: ConnectionGraph, depth):
    """``theta = KERNEL_TOL * max(2 max_i deg_i, 1)`` and, per vertex, the
    reach ``delta_u = sqrt(depth_u theta / w_min)`` of the BFS tree.

    ``theta`` bounds the dense rule's threshold through ``lambda_max <= 2
    max_i deg_i``.  Switched to the tree's frame, a field f with ``f^T L f
    <= theta`` keeps each f(u) within ``delta_u`` of f(root): the tree path
    has ``depth_u`` edges, each of weight at least ``w_min``, so
    Cauchy-Schwarz bounds the sum of the steps.  A unit f has some ``|f(u)|
    >= 1 / sqrt(n)``, so its root value has norm at least ``rho = 1 /
    sqrt(n) - max_u delta_u``.  ``rho`` is not positive when ``w_min <= n D
    theta`` (D the tree depth), where a weak edge can carry a non-kernel
    mode under the threshold.
    """
    theta = KERNEL_TOL * max(2.0 * g.weighted_degrees.max(), 1.0)
    return theta, np.sqrt(depth * theta / g.weights.min(initial=np.inf))


def _no_kernel_mode(g: ConnectionGraph, theta, reach, rho):
    """Whether L provably has no eigenvalue at or below ``theta``, given ``rho
    > 0`` and a chord (see :func:`_tree_reach`).

    A unit field f with ``f^T L f <= theta`` has, in the tree's frame, a
    root value r of norm at least ``rho``, and each f(u) within ``delta_u``
    of r.  A chord ``e = (i, j)`` then costs ``w_e |f(i) - h_e f(j)|^2 >=
    w_e (s_e rho - delta_i - delta_j)^2``, with ``s_e`` the least singular
    value of the holonomy defect ``h_e - I``.  If one chord's bound exceeds
    ``2 theta`` no such f exists; the factor 2 covers rounding and the
    orthogonality slack of sigma.  The test fails on large or near-flat
    graphs, on a weak edge (small ``w_min``), and where every holonomy fixes
    a vector, as each rotation of R^3 fixes its axis.
    """
    _, _, _, chord, _, defects = g._tree
    i, j = g.edge_index[chord].T
    gap = np.linalg.svd(defects, compute_uv=False)[:, -1] * rho - reach[i] - reach[j]
    return bool((g.weights[chord] * np.maximum(gap, 0.0) ** 2).max() > 2.0 * theta)


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

    ``tau[i]``, shape (n, d, d), is the product of connection matrices along
    the BFS tree path from ``i`` down to ``root``, so a kernel vector with
    root value ``x`` expands as ``f(i) = tau[i] @ x``.  On the switched
    graph every tree edge carries the identity, the kernel consists of
    constant fields only, and any two vector densities (equal channel sums)
    are mutually feasible.
    """
    return _spanning_tree(g, root)[4]
