"""Connection graphs and their block operators.

A connection graph is an undirected weighted graph together with an
orthogonal matrix ``sigma_ij`` of size d x d attached to every edge.
Edges are stored once in index orientation ``i < j``; the reverse
matrix ``sigma_ji = sigma_ij^T`` is materialized on demand.  The edge
order of the input is the canonical edge order used by every operator
and serialization in the package.

The two central operators are the connection incidence matrix ``B``
(an nd x md block matrix with ``+I_d`` at the tail block and
``-sigma^T`` at the head block of each edge column) and the connection
Laplacian ``L = B W B^T`` whose off-diagonal blocks are
``-w_ij sigma_ij``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidGraphError

__all__ = [
    "ConnectionGraph",
    "validate_graph",
    "incidence",
    "connection_laplacian",
    "apply_B",
    "apply_BT",
    "fundamental_cycles",
    "is_consistent",
    "switch",
    "polar_project",
]

#: Max-norm tolerance for accepting a sigma as orthogonal at load time.
ORTHOGONALITY_TOL = 1e-8

#: Below this orthogonality defect a matrix counts as exactly orthogonal and
#: is left bit-for-bit untouched, keeping save/load round trips exact.
EXACT_ORTHOGONALITY_TOL = 1e-13


def polar_project(mat):
    """Nearest orthogonal matrix to ``mat`` (polar decomposition factor).

    Also takes a (k, p, d) stack, projecting each matrix to the nearest
    one with orthonormal columns.
    """
    u, _, vt = np.linalg.svd(np.asarray(mat, dtype=float), full_matrices=False)
    return u @ vt


def _snap(mats, lo=EXACT_ORTHOGONALITY_TOL):
    """Orthogonality defects of a (k, p, d) stack, and the stack snapped.

    Returns ``(defect, snapped)``: ``defect[k] = max|A_k^T A_k - I|`` and a
    copy of the stack with the polar factor in place of each matrix whose
    defect lies in ``(lo, ORTHOGONALITY_TOL]``.
    """
    mats = np.asarray(mats, dtype=float)
    gram = np.swapaxes(mats, -1, -2) @ mats
    defect = np.abs(gram - np.eye(mats.shape[-1])).max(axis=(-2, -1))
    snapped = np.array(mats)
    pick = (defect > lo) & (defect <= ORTHOGONALITY_TOL)
    snapped[pick] = polar_project(mats[pick])
    return defect, snapped


def _block_entries(block_rows, block_cols, blocks, d):
    """COO triplets placing ``blocks[k]`` (d x d) at block ``(block_rows[k], block_cols[k])``."""
    rr = np.repeat(np.arange(d), d)
    cc = np.tile(np.arange(d), d)
    rows = (block_rows[:, None] * d + rr).ravel()
    cols = (block_cols[:, None] * d + cc).ravel()
    return rows, cols, blocks.reshape(-1)


def _diagonal_entries(block_rows, block_cols, values, d):
    """COO triplets placing ``values[k] * I_d`` at block ``(block_rows[k], block_cols[k])``."""
    ar = np.arange(d)
    rows = (block_rows[:, None] * d + ar).ravel()
    cols = (block_cols[:, None] * d + ar).ravel()
    return rows, cols, np.repeat(values, d)


def _csr(parts, shape):
    import scipy.sparse as sp  # only the operators need it; keeps CLI start-up light

    rows, cols, data = (np.concatenate(arrays) for arrays in zip(*parts))
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _neighbours(n, edge_index):
    """Neighbour table ``(indptr, nbrs)`` of an edge list: vertex ``u``'s
    distinct neighbours, in increasing order, are ``nbrs[indptr[u]:indptr[u + 1]]``."""
    i, j = np.asarray(edge_index, dtype=int).reshape(-1, 2).T
    pairs = np.sort(np.concatenate([i * n + j, j * n + i]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    return indptr, pairs % n


def _bfs(n, edge_index, sources):
    """Multi-source breadth-first search over a FIFO queue, O(n + m) at any
    depth, as ``(order, parent, hops)``: the visit order, BFS parents
    (``-1`` at the sources and unreached vertices) and hop distances to the
    nearest source (``-1`` where unreached).  Repeated sources count once,
    in their given order, and each vertex scans its neighbours in
    increasing order, so a vertex's parent is the first in the queue to
    reach it."""
    indptr, nbrs = (a.tolist() for a in _neighbours(n, edge_index))
    order = list(dict.fromkeys(np.asarray(sources, dtype=int).tolist()))
    parent = [-1] * n
    hops = [-1] * n
    for s in order:
        hops[s] = 0
    for u in order:  # the order list is the queue: the loop reaches what it appends
        step = hops[u] + 1
        for v in nbrs[indptr[u] : indptr[u + 1]]:
            if hops[v] < 0:
                hops[v] = step
                parent[v] = u
                order.append(v)
    return np.array(order, dtype=int), np.array(parent, dtype=int), np.array(hops, dtype=int)


def _component_of_zero(n, edge_index):
    """Mask of the vertices in vertex 0's component, shape (n,).

    Each round hooks, for every edge whose endpoints have different roots,
    the larger root under the smaller one, then shortcuts every vertex to
    its root.  Every root with an edge to another root merges in each
    round, so the roots of a component at least halve: at most
    ``log2(n) + 1`` rounds of whole-array operations, with no per-vertex
    Python loop.
    """
    i, j = np.asarray(edge_index, dtype=int).reshape(-1, 2).T
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            return root == root[:1]  # empty when n = 0
        # roots only merge, so an edge inside one component stays inside it
        i, j, ri, rj = i[cross], j[cross], ri[cross], rj[cross]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _index_oriented(edge_index, sigmas):
    """Edges given as ``(j, i)`` with ``j > i`` flipped to ``(i, j)``, their
    sigma transposed; returns new ``(edge_index, sigmas)`` arrays."""
    rev = edge_index[:, 0] > edge_index[:, 1]
    edge_index = np.where(rev[:, None], edge_index[:, ::-1], edge_index)
    sigmas = np.where(rev[:, None, None], np.swapaxes(sigmas, 1, 2), sigmas)
    return edge_index, sigmas


def _stacked(array, dtype, name, block, rows=None):
    """``array`` as a stack of ``block``-shaped entries, shape (rows, *block),
    or (-1, *block) when ``rows`` is None.  An array whose size does not fit
    raises :class:`InvalidGraphError` naming ``name`` and its shape."""
    values = np.asarray(array, dtype=dtype)
    size = int(np.prod(block))
    if values.size % size if rows is None else values.size != rows * size:
        expected = ", ".join(map(str, ("m" if rows is None else rows, *block)))
        raise InvalidGraphError(f"{name} has shape {values.shape}; expected ({expected})")
    return values.reshape(-1, *block)


#: Attributes a pickled ConnectionGraph carries (see ``__getstate__``).
_PICKLED_STATE = frozenset(("n", "d", "edge_index", "weights", "sigmas", "violations", "kernel"))


class ConnectionGraph:
    """Immutable container for a connection graph.

    Parameters
    ----------
    n : int
        Number of vertices, labeled ``0 .. n-1``.
    d : int
        Fiber dimension (size of the sigma blocks).
    edge_index : (m, 2) int array
        Endpoints per edge, expected in index orientation ``i < j``.
    weights : (m,) float array
        Positive edge weights.
    sigmas : (m, d, d) float array
        Orthogonal connection matrices, one per edge, oriented ``i -> j``.

    Construction checks n, d and the array sizes, raising
    :class:`InvalidGraphError`, and coerces shapes; semantic invariants
    (orientation, orthogonality, connectivity) are checked by
    :func:`validate_graph` and enforced lazily by the operators via
    :meth:`require_valid`.
    """

    def __init__(self, n, d, edge_index, weights, sigmas):
        self.n = int(n)
        self.d = int(d)
        if self.n < 1 or self.d < 1:
            raise InvalidGraphError("need n >= 1 and d >= 1")
        self.edge_index = _stacked(edge_index, int, "edge_index", (2,))
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.sigmas = _stacked(sigmas, float, "sigmas", (self.d, self.d))
        m = self.edge_index.shape[0]
        if self.weights.shape[0] != m or self.sigmas.shape[0] != m:
            raise InvalidGraphError(
                "edge_index, weights and sigmas disagree on the edge count "
                f"({m}, {self.weights.shape[0]}, {self.sigmas.shape[0]})"
            )
        for arr in (self.edge_index, self.weights, self.sigmas):
            arr.setflags(write=False)

    # -- basic derived data -------------------------------------------------

    @property
    def m(self):
        return self.edge_index.shape[0]

    @cached_property
    def weighted_degrees(self):
        ends = self.edge_index.T.reshape(-1)
        return np.bincount(ends, np.concatenate([self.weights, self.weights]), minlength=self.n)

    @cached_property
    def max_degree(self):
        """Largest unweighted vertex degree."""
        return int(np.bincount(self.edge_index.reshape(-1), minlength=self.n).max())

    @property
    def w_max(self):
        return float(self.weights.max()) if self.m else 0.0

    # -- validation ---------------------------------------------------------

    @cached_property
    def violations(self):
        """List of human-readable invariant violations (empty when valid)."""
        n, m = self.n, self.m
        i, j = self.edge_index.T
        in_range = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        loop = in_range & (i == j)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # a stable sort by (lo, hi) puts each repeat of an unordered pair
        # right after an earlier edge with that pair
        paired = np.flatnonzero(in_range & ~loop)
        order = paired[np.lexsort((hi[paired], lo[paired]))]
        duplicate = np.zeros(m, dtype=bool)
        later, earlier = order[1:], order[:-1]
        duplicate[later] = (lo[later] == lo[earlier]) & (hi[later] == hi[earlier])
        out = []
        for e in np.flatnonzero(~in_range | loop | (i > j) | duplicate):
            if not in_range[e]:
                out.append(f"edge {e}: endpoint out of range ({i[e]}, {j[e]})")
            elif loop[e]:
                out.append(f"edge {e}: self-loop at vertex {i[e]}")
            else:
                if i[e] > j[e]:
                    out.append(f"edge {e}: endpoints not in index orientation ({i[e]} > {j[e]})")
                if duplicate[e]:
                    out.append(f"edge {e}: duplicate of edge ({lo[e]}, {hi[e]})")
        w = self.weights
        for e in np.flatnonzero(~(w > 0) | ~np.isfinite(w)):
            out.append(f"edge {e}: weight {w[e]} is not positive and finite")
        defect, _ = _snap(self.sigmas)
        for e in np.flatnonzero(~(defect <= ORTHOGONALITY_TOL)):
            out.append(
                f"edge {e}: sigma is not orthogonal (|sigma^T sigma - I|_max = {defect[e]:.3g})"
            )
        if n > 1 and not out:
            # join vertex 0 and the vertices the edges touch, relabelled
            # 0, 1, ... in order, so the cost does not grow with n
            labels, local = np.unique(np.append(0, self.edge_index), return_inverse=True)
            reached = labels[_component_of_zero(labels.size, local[1:].reshape(-1, 2))]
            if reached.size < n:
                # reached is sorted and starts at 0: the first unreached
                # vertex is its first gap
                gap = np.flatnonzero(reached != np.arange(reached.size))
                first = gap[0] if gap.size else reached.size
                out.append(
                    f"graph is disconnected ({n - reached.size} vertices unreachable "
                    f"from 0, e.g. vertex {first})"
                )
        return out

    def require_valid(self):
        if self.violations:
            raise InvalidGraphError("; ".join(self.violations))
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, n, d, edges):
        """Build from ``(i, j, w, sigma)`` tuples.

        Edges given as ``(j, i)`` with ``j > i`` are flipped to index
        orientation, transposing their sigma.
        """
        idx = np.array([(i, j) for i, j, _, _ in edges], dtype=int).reshape(-1, 2)
        w = np.array([we for _, _, we, _ in edges], dtype=float)
        sig = np.array([np.reshape(s, (d, d)) for *_, s in edges], dtype=float)
        idx, sig = _index_oriented(idx, sig.reshape(-1, d, d))
        return cls(n, d, idx, w, sig)

    @classmethod
    def trivial(cls, n, d, edges_with_weights):
        """Trivial connection (identity sigmas) on the given weighted edges."""
        edges = [(i, j, w, np.eye(d)) for i, j, w in edges_with_weights]
        return cls.from_edges(n, d, edges)

    def canonicalized(self):
        """Copy with each near-orthogonal sigma replaced by its polar factor.

        Matrices whose orthogonality defect exceeds the load tolerance are
        left untouched so that validation can still report them; matrices
        already orthogonal to machine precision are kept bit-for-bit so that
        save/load round trips are exact.
        """
        _, sig = _snap(self.sigmas)
        return ConnectionGraph(self.n, self.d, self.edge_index, self.weights, sig)

    # -- operators ----------------------------------------------------------

    @cached_property
    def incidence_matrix(self):
        """Connection incidence matrix ``B`` as CSR, shape (nd, md)."""
        self.require_valid()
        n, d, m = self.n, self.d, self.m
        i, j = self.edge_index.T
        edges = np.arange(m)
        tails = _diagonal_entries(i, edges, np.ones(m), d)
        heads = _block_entries(j, edges, -np.transpose(self.sigmas, (0, 2, 1)), d)
        return _csr([tails, heads], (n * d, m * d))

    @cached_property
    def incidence_matrix_T(self):
        return self.incidence_matrix.T.tocsr()

    @cached_property
    def laplacian_matrix(self):
        """Connection Laplacian ``L`` as CSR, shape (nd, nd), assembled blockwise.

        Off-diagonal blocks are ``-w_ij sigma_ij`` and its transpose; the
        diagonal blocks are exactly ``deg_i I_d``.
        """
        self.require_valid()
        n, d = self.n, self.d
        i, j = self.edge_index.T
        blocks = -(self.weights[:, None, None] * self.sigmas)
        vertices = np.arange(n)
        parts = [
            _block_entries(i, j, blocks, d),
            _block_entries(j, i, np.transpose(blocks, (0, 2, 1)), d),
            _diagonal_entries(vertices, vertices, self.weighted_degrees, d),
        ]
        return _csr(parts, (n * d, n * d))

    @cached_property
    def _tree(self):
        """The BFS spanning tree from vertex 0 as :func:`_spanning_tree`
        returns it, then the holonomy defects ``t[i]^T sigma_e t[j] - I`` of
        its chords ``e = (i, j)``, in edge order.  Computed once, read-only
        and not pickled; :func:`is_consistent`, :func:`fundamental_cycles`
        and :attr:`kernel` all read it.
        """
        *tree, chord, t = _spanning_tree(self, 0)
        i, j = self.edge_index[chord].T
        defects = np.swapaxes(t[i], 1, 2) @ self.sigmas[chord] @ t[j] - np.eye(self.d)
        tree = (*tree, chord, t, defects)
        for arr in tree:
            arr.setflags(write=False)
        return tree

    @cached_property
    def kernel(self):
        """Kernel basis of ``L`` at the default tolerance, computed once.

        The parallel sections along the BFS tree when the connection is
        flat within the tolerance, O(m d^2); an empty basis when the same
        tree proves L has no eigenvalue under the threshold; else the modes
        of :attr:`near_kernel_modes` under the dense rule's threshold; see
        :func:`conbeck.feasibility.kernel_structured`.  Feasibility tests,
        solves and distance matrices on this graph all share this basis.
        """
        from . import feasibility  # local import to avoid a cycle

        return feasibility.kernel_structured(self)

    @cached_property
    def near_kernel_modes(self):
        """The lowest modes of L, from the graph's only spectral solve:
        ``(vectors, eigenvalues, max(lambda_max, 1))`` up to
        ``NEAR_KERNEL_RATIO * max(lambda_max, 1)``, computed once.
        :func:`conbeck.feasibility.project_feasible` removes them, and
        :attr:`kernel` keeps those under its threshold when the parallel
        sections fail.  Not pickled.
        """
        from . import feasibility  # local import to avoid a cycle

        return feasibility._lowest_modes(self)

    # -- pickling -----------------------------------------------------------

    def __getstate__(self):
        """Defining arrays plus the cached validation verdict and kernel.

        The sparse operators are left out: they are cheap to rebuild and
        would make up most of the pickle.
        """
        return {k: v for k, v in self.__dict__.items() if k in _PICKLED_STATE}

    def __setstate__(self, state):
        self.__dict__.update(state)
        for arr in (self.edge_index, self.weights, self.sigmas):
            arr.setflags(write=False)


def validate_graph(g: ConnectionGraph):
    """Return the list of invariant violations of ``g`` (empty when valid)."""
    return list(g.violations)


def incidence(g: ConnectionGraph):
    """Connection incidence matrix ``B`` of ``g`` as a CSR sparse matrix."""
    return g.incidence_matrix


def connection_laplacian(g: ConnectionGraph):
    """Connection Laplacian ``L = B W B^T`` of ``g`` as a CSR sparse matrix."""
    return g.laplacian_matrix


def _shaped(g: ConnectionGraph, array, name, rows):
    """``array`` as a float (rows, d) array: ``rows`` is ``g.n`` for a vertex
    field or potential and ``g.m`` for an edge flow.  It must have that shape
    or the flat (rows * d,) one; any other shape raises
    :class:`InvalidGraphError` naming ``name`` and the expected shape."""
    values = np.asarray(array, dtype=float)
    if values.shape not in ((rows, g.d), (rows * g.d,)):
        raise InvalidGraphError(f"{name} has shape {values.shape}; expected {(rows, g.d)}")
    return values.reshape(rows, g.d)


def apply_BT(g: ConnectionGraph, phi):
    """Apply ``B^T`` to a vertex field: ``(B^T phi)(e) = phi(i) - sigma_e phi(j)``.

    ``phi`` has shape (n, d); the result has shape (m, d).
    """
    phi = _shaped(g, phi, "phi", g.n)
    return (g.incidence_matrix_T @ phi.reshape(-1)).reshape(g.m, g.d)


def apply_B(g: ConnectionGraph, flow):
    """Apply ``B`` to an edge flow, returning the net divergence field (n, d)."""
    flow = _shaped(g, flow, "flow", g.m)
    return (g.incidence_matrix @ flow.reshape(-1)).reshape(g.n, g.d)


def _spanning_tree(g: ConnectionGraph, root):
    """BFS spanning tree from ``root``, neighbors in increasing index, as
    ``(order, parent, depth, chord, t)``: visit order, parents (``-1`` at the
    root), hop depths, the mask of non-tree edges, and the tree products
    ``t[u] = sigma_{u, parent[u]} t[parent[u]]``, ``t[root] = I``, formed
    one BFS level at a time."""
    g.require_valid()
    if not 0 <= root < g.n:
        raise InvalidGraphError(f"root {root} is not a vertex of a graph with {g.n} vertices")
    order, parent, depth = _bfs(g.n, g.edge_index, [root])
    i, j = g.edge_index.T
    tail_up, head_up = parent[i] == j, parent[j] == i
    # sigma from each non-root vertex to its parent, read off its parent edge
    up = np.empty((g.n, g.d, g.d))
    up[i[tail_up]] = g.sigmas[tail_up]
    up[j[head_up]] = np.swapaxes(g.sigmas[head_up], 1, 2)
    t = np.empty((g.n, g.d, g.d))
    t[root] = np.eye(g.d)
    # the visit order lists the levels one after another
    bounds = np.searchsorted(depth[order], np.arange(1, depth.max() + 2))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        level = order[start:stop]
        t[level] = up[level] @ t[parent[level]]
    return order, parent, depth, ~(tail_up | head_up), t


def fundamental_cycles(g: ConnectionGraph):
    """Fundamental cycles of the BFS spanning tree rooted at vertex 0.

    One cycle per non-tree edge, in canonical edge order; each cycle is a
    vertex path starting and ending at vertex 0 that traverses the chord.
    Trees yield an empty list.
    """
    _, parent, _, chord, *_ = g._tree

    def path_to_root(u):
        path = [int(u)]
        while parent[path[-1]] != -1:
            path.append(int(parent[path[-1]]))
        return path

    return [
        list(reversed(path_to_root(i))) + path_to_root(j)
        for i, j in g.edge_index[chord]
    ]


def is_consistent(g: ConnectionGraph, tol=1e-8):
    """Whether every cycle product equals the identity within ``tol`` (max-norm).

    Checks the fundamental cycles of a BFS spanning tree; these generate
    all rooted cycle products, so the reduction is exact.
    """
    *_, defects = g._tree
    return not (np.abs(defects) > tol).any()


def switch(g: ConnectionGraph, tau):
    """Apply a switching function: ``sigma'_ij = tau(i)^T sigma_ij tau(j)``.

    ``tau`` has shape (n, d, d) with orthogonal blocks (a tau of another
    size raises :class:`InvalidGraphError`); topology and weights are
    unchanged.  The switched graph has the same Laplacian spectrum.
    """
    g.require_valid()
    tau = _stacked(tau, float, "tau", (g.d, g.d), rows=g.n)
    defect, fixed = _snap(tau, lo=-np.inf)
    bad = np.flatnonzero(defect > ORTHOGONALITY_TOL)
    if bad.size:
        raise InvalidGraphError(
            f"switching block {bad[0]} is not orthogonal (defect {defect[bad[0]]:.3g})"
        )
    ti = fixed[g.edge_index[:, 0]]
    tj = fixed[g.edge_index[:, 1]]
    new_sig = np.einsum("eba,ebc,ecd->ead", ti, g.sigmas, tj)
    return ConnectionGraph(g.n, g.d, g.edge_index, g.weights, new_sig)
