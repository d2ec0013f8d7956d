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
import scipy.sparse as sp

from .errors import InvalidGraphError

__all__ = [
    "ConnectionGraph",
    "validate_graph",
    "incidence",
    "connection_laplacian",
    "combinatorial_laplacian",
    "apply_B",
    "apply_BT",
    "path_product",
    "fundamental_cycles",
    "is_consistent",
    "switch",
    "bfs_tree",
    "tree_products",
    "polar_project",
    "random_orthogonal",
]

#: Max-norm tolerance for accepting a sigma as orthogonal at load time.
ORTHOGONALITY_TOL = 1e-8

#: Below this orthogonality defect a matrix counts as exactly orthogonal and
#: is left bit-for-bit untouched, keeping save/load round trips exact.
EXACT_ORTHOGONALITY_TOL = 1e-13


def polar_project(mat):
    """Nearest orthogonal matrix to ``mat`` (polar decomposition factor)."""
    u, _, vt = np.linalg.svd(np.asarray(mat, dtype=float))
    return u @ vt


def random_orthogonal(d, rng):
    """Haar-ish random orthogonal d x d matrix (QR with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


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

    Construction only coerces shapes; semantic invariants (orientation,
    orthogonality, connectivity) are checked by :func:`validate_graph`
    and enforced lazily by the operators via :meth:`require_valid`.
    """

    def __init__(self, n, d, edge_index, weights, sigmas):
        self.n = int(n)
        self.d = int(d)
        self.edge_index = np.asarray(edge_index, dtype=int).reshape(-1, 2)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.sigmas = np.asarray(sigmas, dtype=float).reshape(-1, self.d, self.d)
        m = self.edge_index.shape[0]
        if self.weights.shape[0] != m or self.sigmas.shape[0] != m:
            raise InvalidGraphError(
                "edge_index, weights and sigmas disagree on the edge count "
                f"({m}, {self.weights.shape[0]}, {self.sigmas.shape[0]})"
            )
        if self.n < 1 or self.d < 1:
            raise InvalidGraphError("need n >= 1 and d >= 1")
        for arr in (self.edge_index, self.weights, self.sigmas):
            arr.setflags(write=False)

    # -- basic derived data -------------------------------------------------

    @property
    def m(self):
        return self.edge_index.shape[0]

    @cached_property
    def edge_position(self):
        """Dict mapping ``(i, j)`` with ``i < j`` to the edge index."""
        return {(int(i), int(j)): e for e, (i, j) in enumerate(self.edge_index)}

    @cached_property
    def neighbors(self):
        """Per-vertex list of ``(neighbor, edge_index)`` sorted by neighbor."""
        adj = [[] for _ in range(self.n)]
        for e, (i, j) in enumerate(self.edge_index):
            if 0 <= i < self.n and 0 <= j < self.n:
                adj[i].append((int(j), e))
                adj[j].append((int(i), e))
        for lst in adj:
            lst.sort()
        return adj

    @cached_property
    def weighted_degrees(self):
        deg = np.zeros(self.n)
        np.add.at(deg, self.edge_index[:, 0], self.weights)
        np.add.at(deg, self.edge_index[:, 1], self.weights)
        return deg

    @cached_property
    def max_degree(self):
        """Largest unweighted vertex degree."""
        counts = np.zeros(self.n, dtype=int)
        np.add.at(counts, self.edge_index[:, 0], 1)
        np.add.at(counts, self.edge_index[:, 1], 1)
        return int(counts.max()) if self.n else 0

    @property
    def w_max(self):
        return float(self.weights.max()) if self.m else 0.0

    def sigma_between(self, u, v):
        """Connection matrix oriented ``u -> v`` for an existing edge."""
        pos = self.edge_position
        if (u, v) in pos:
            return self.sigmas[pos[(u, v)]]
        if (v, u) in pos:
            return self.sigmas[pos[(v, u)]].T
        raise InvalidGraphError(f"no edge between {u} and {v}")

    # -- validation ---------------------------------------------------------

    @cached_property
    def violations(self):
        """List of human-readable invariant violations (empty when valid)."""
        out = []
        seen = set()
        for e, (i, j) in enumerate(self.edge_index):
            if not (0 <= i < self.n and 0 <= j < self.n):
                out.append(f"edge {e}: endpoint out of range ({i}, {j})")
                continue
            if i == j:
                out.append(f"edge {e}: self-loop at vertex {i}")
                continue
            if i > j:
                out.append(f"edge {e}: endpoints not in index orientation ({i} > {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                out.append(f"edge {e}: duplicate of edge {key}")
            seen.add(key)
        for e, w in enumerate(self.weights):
            if not (w > 0) or not np.isfinite(w):
                out.append(f"edge {e}: weight {w} is not positive and finite")
        eye = np.eye(self.d)
        for e, sig in enumerate(self.sigmas):
            err = np.abs(sig.T @ sig - eye).max()
            if not err <= ORTHOGONALITY_TOL:
                out.append(f"edge {e}: sigma is not orthogonal (|sigma^T sigma - I|_max = {err:.3g})")
        if self.n > 1 and not out:
            reached = _bfs_reach(self)
            if not reached.all():
                missing = np.flatnonzero(~reached)
                out.append(
                    f"graph is disconnected ({missing.size} vertices unreachable "
                    f"from 0, e.g. vertex {missing[0]})"
                )
        return out

    def require_valid(self):
        if self.violations:
            raise InvalidGraphError("; ".join(self.violations))
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, n, d, edges, normalize=True):
        """Build from ``(i, j, w, sigma)`` tuples.

        With ``normalize=True`` edges given as ``(j, i)`` with ``j > i``
        are flipped to index orientation, transposing their sigma.
        """
        idx = np.zeros((len(edges), 2), dtype=int)
        w = np.zeros(len(edges))
        sig = np.zeros((len(edges), d, d))
        for e, (i, j, we, se) in enumerate(edges):
            se = np.asarray(se, dtype=float).reshape(d, d)
            if normalize and i > j:
                i, j, se = j, i, se.T
            idx[e] = (i, j)
            w[e] = we
            sig[e] = se
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
        sig = np.array(self.sigmas)
        eye = np.eye(self.d)
        for e in range(self.m):
            defect = np.abs(sig[e].T @ sig[e] - eye).max()
            if EXACT_ORTHOGONALITY_TOL < defect <= ORTHOGONALITY_TOL:
                sig[e] = polar_project(sig[e])
        return ConnectionGraph(self.n, self.d, self.edge_index, self.weights, sig)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "d": self.d,
            "edges": [
                {
                    "i": int(i),
                    "j": int(j),
                    "w": float(w),
                    "sigma": [float(x) for x in sig.reshape(-1)],
                }
                for (i, j), w, sig in zip(self.edge_index, self.weights, self.sigmas)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, validate=True):
        from .io import graph_from_dict  # local import to avoid a cycle

        return graph_from_dict(obj, validate=validate)

    # -- operators ----------------------------------------------------------

    @cached_property
    def incidence_matrix(self):
        """Connection incidence matrix ``B`` as CSR, shape (nd, md)."""
        self.require_valid()
        n, d, m = self.n, self.d, self.m
        ar = np.arange(d)
        rows_i = (self.edge_index[:, 0, None] * d + ar).ravel()
        cols_i = (np.arange(m)[:, None] * d + ar).ravel()
        data_i = np.ones(m * d)
        rr = np.repeat(ar, d)
        cc = np.tile(ar, d)
        rows_s = (self.edge_index[:, 1, None] * d + rr).ravel()
        cols_s = (np.arange(m)[:, None] * d + cc).ravel()
        data_s = -np.transpose(self.sigmas, (0, 2, 1)).reshape(m * d * d)
        mat = sp.coo_matrix(
            (
                np.concatenate([data_i, data_s]),
                (np.concatenate([rows_i, rows_s]), np.concatenate([cols_i, cols_s])),
            ),
            shape=(n * d, m * d),
        )
        return mat.tocsr()

    @cached_property
    def incidence_matrix_T(self):
        return self.incidence_matrix.T.tocsr()

    @cached_property
    def laplacian_matrix(self):
        """Connection Laplacian ``L`` as CSR, shape (nd, nd), assembled blockwise."""
        self.require_valid()
        n, d, m = self.n, self.d, self.m
        rr = np.repeat(np.arange(d), d)
        cc = np.tile(np.arange(d), d)
        rows, cols, data = [], [], []
        # off-diagonal blocks -w sigma (and the transpose block)
        for e, (i, j) in enumerate(self.edge_index):
            blk = self.weights[e] * self.sigmas[e]
            rows.append(i * d + rr)
            cols.append(j * d + cc)
            data.append(-blk.reshape(-1))
            rows.append(j * d + rr)
            cols.append(i * d + cc)
            data.append(-blk.T.reshape(-1))
        # diagonal blocks deg_i * I_d
        rows.append((np.arange(n)[:, None] * d + np.arange(d)).ravel())
        cols.append(rows[-1])
        data.append(np.repeat(self.weighted_degrees, d))
        mat = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n * d, n * d),
        )
        return mat.tocsr()

    @cached_property
    def kernel(self):
        """Kernel basis of ``L`` at the default tolerance, computed once.

        See :func:`conbeck.feasibility.kernel_numeric`; feasibility tests,
        solves and distance matrices on this graph all share this basis.
        """
        from . import feasibility  # local import to avoid a cycle

        return feasibility.kernel_numeric(self)

    # -- pickling -----------------------------------------------------------

    def __getstate__(self):
        """Defining arrays plus the cached validation verdict and kernel.

        The sparse operators and adjacency lists are left out: they are
        cheap to rebuild and would make up most of the pickle.
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


def combinatorial_laplacian(g: ConnectionGraph):
    """Ordinary weighted graph Laplacian of the skeleton, dense (n, n)."""
    g.require_valid()
    lap = np.zeros((g.n, g.n))
    for e, (i, j) in enumerate(g.edge_index):
        w = g.weights[e]
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def apply_BT(g: ConnectionGraph, phi):
    """Apply ``B^T`` to a vertex field: ``(B^T phi)(e) = phi(i) - sigma_e phi(j)``.

    ``phi`` has shape (n, d); the result has shape (m, d).
    """
    phi = _check_field(g, phi)
    pi = phi[g.edge_index[:, 0]]
    pj = phi[g.edge_index[:, 1]]
    return pi - np.einsum("eab,eb->ea", g.sigmas, pj)


def apply_B(g: ConnectionGraph, flow):
    """Apply ``B`` to an edge flow, returning the net divergence field (n, d)."""
    flow = np.asarray(flow, dtype=float).reshape(g.m, g.d)
    out = np.zeros((g.n, g.d))
    np.add.at(out, g.edge_index[:, 0], flow)
    np.subtract.at(out, g.edge_index[:, 1], np.einsum("eab,ea->eb", g.sigmas, flow))
    return out


def _check_field(g, field):
    field = np.asarray(field, dtype=float)
    if field.shape != (g.n, g.d):
        field = field.reshape(g.n, g.d)
    return field


def _bfs_reach(g: ConnectionGraph):
    reached = np.zeros(g.n, dtype=bool)
    reached[0] = True
    stack = [0]
    adj = g.neighbors
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if not reached[v]:
                reached[v] = True
                stack.append(v)
    return reached


def bfs_tree(g: ConnectionGraph, root=0):
    """Breadth-first spanning tree with deterministic neighbor order.

    Neighbors are visited in increasing vertex index.  Returns
    ``(order, parent)`` where ``order`` lists vertices in visit order and
    ``parent[root] = -1``.
    """
    g.require_valid()
    parent = np.full(g.n, -1, dtype=int)
    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    order = [root]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v, _ in g.neighbors[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    return order, parent


def tree_products(g: ConnectionGraph, root=0):
    """Path products ``sigma_{P_{i,root}}`` along BFS tree paths, shape (n, d, d).

    ``t[i]`` is the product of connection matrices along the tree path from
    ``i`` down to the root, so a kernel vector with root value ``x`` expands
    as ``f(i) = t[i] @ x``.
    """
    order, parent = bfs_tree(g, root)
    t = np.zeros((g.n, g.d, g.d))
    t[root] = np.eye(g.d)
    for u in order[1:]:
        t[u] = g.sigma_between(u, parent[u]) @ t[parent[u]]
    return t


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
        out = out @ g.sigma_between(u, v)
    return out


def fundamental_cycles(g: ConnectionGraph, root=0):
    """Fundamental cycles of the BFS spanning tree rooted at ``root``.

    One cycle per non-tree edge, in canonical edge order; each cycle is a
    vertex path starting and ending at ``root`` that traverses the chord.
    Trees yield an empty list.
    """
    order, parent = bfs_tree(g, root)
    tree_edges = set()
    for u in order:
        if parent[u] != -1:
            a, b = min(u, parent[u]), max(u, parent[u])
            tree_edges.add((a, b))

    def path_to_root(u):
        path = [u]
        while parent[path[-1]] != -1:
            path.append(int(parent[path[-1]]))
        return path

    cycles = []
    for i, j in g.edge_index:
        i, j = int(i), int(j)
        if (i, j) in tree_edges:
            continue
        down = path_to_root(i)  # i .. root
        up = path_to_root(j)  # j .. root
        cycles.append(list(reversed(down)) + up)
    return cycles


def is_consistent(g: ConnectionGraph, tol=1e-8, root=0):
    """Whether every cycle product equals the identity within ``tol`` (max-norm).

    Checks the fundamental cycles of a BFS spanning tree; these generate
    all rooted cycle products, so the reduction is exact.
    """
    g.require_valid()
    _, parent = bfs_tree(g, root)
    t = tree_products(g, root)
    eye = np.eye(g.d)
    for e, (i, j) in enumerate(g.edge_index):
        if parent[i] == j or parent[j] == i:
            continue
        prod = t[i].T @ g.sigmas[e] @ t[j]
        if np.abs(prod - eye).max() > tol:
            return False
    return True


def switch(g: ConnectionGraph, tau):
    """Apply a switching function: ``sigma'_ij = tau(i)^T sigma_ij tau(j)``.

    ``tau`` has shape (n, d, d) with orthogonal blocks; topology and weights
    are unchanged.  The switched graph has the same Laplacian spectrum.
    """
    g.require_valid()
    tau = np.asarray(tau, dtype=float).reshape(g.n, g.d, g.d)
    eye = np.eye(g.d)
    fixed = np.array(tau)
    for i in range(g.n):
        err = np.abs(tau[i].T @ tau[i] - eye).max()
        if err > ORTHOGONALITY_TOL:
            raise InvalidGraphError(
                f"switching block {i} is not orthogonal (defect {err:.3g})"
            )
        fixed[i] = polar_project(tau[i])
    ti = fixed[g.edge_index[:, 0]]
    tj = fixed[g.edge_index[:, 1]]
    new_sig = np.einsum("eba,ebc,ecd->ead", ti, g.sigmas, tj)
    return ConnectionGraph(g.n, g.d, g.edge_index, g.weights, new_sig)
