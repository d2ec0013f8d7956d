"""Quadratically regularized Beckmann transport on connection graphs.

Primal problem, for a feasible difference ``c = alpha - beta``::

    inf  sum_e w(e) |J(e)|_2  +  (lam/2) sum_e |J(e)|_2^2   s.t.  B J = c

Its dual is smooth and unconstrained::

    sup_phi  <phi, c> - (1/(2 lam)) sum_e [ |(B^T phi)(e)|_2 - w(e) ]_+^2

where ``[.]_+`` keeps only the strictly positive part.  The dual is
solved by plain fixed-step gradient ascent from ``phi = 0``; the primal
flow is recovered in closed form edge by edge from the dual iterate,

    J(e) = ((|g_e| - w(e)) / lam) * g_e / |g_e|   if |g_e| > w(e), else 0,

with ``g = B^T phi``.  The sign is pinned by the requirement
``B J(phi*) = c`` at the dual maximizer; the gradient of the dual equals
exactly the constraint residual ``c - B J(phi)``, so the stopping
gradient norm doubles as a feasibility certificate for the reported flow.

One private evaluator per ``(g, c, lam)`` computes all of it at a given
``phi``: ``g = B^T phi``, the excess ``|g_e| - w(e)``, the closed-form flow
and the residual ``c - B J``.  The ascent runs it once per epoch, the
report reads the dual value and the gap from its final evaluation, and
:func:`recover_primal`, :func:`dual_gradient` and :func:`dual_objective`
are each one evaluation.  It works component-major: ``B^T phi`` comes out
as a (d, m) array whose row ``a`` holds component ``a`` of every edge,
because the rows of ``B^T`` and the columns of ``B`` are reordered once
per evaluator.  The edge norms are then sums of d contiguous rows, and
the shrink factor, the flow and the residual are formed in buffers
allocated before the first evaluation.  Every sum keeps its terms and
their order, so the results are those of the edge-major formulas bit for
bit.

The ascent evaluates most epochs on a working set: the edges whose excess
was at least ``-0.4 w(e)`` at the anchor ``phi0``, the last full
evaluation.  While ``L D`` stays below the smallest slack ``w(e) - |g_e|``
of the edges left out, less a round-off allowance, none of them can carry
flow (``L = 1 + max_e |sigma_e|_2``, ``D = sqrt(d) |phi - phi0|_inf``), so
their terms of ``B J``, each ``+-0``, are dropped.  After k anchors in a
row that save nothing (they leave out fewer than half the edges or 1 024
rows of ``B^T``, or the bound fails before their first use), the next
``2^k - 1`` epochs (at most 63) evaluate every edge.  A last full
evaluation gives the flow and the report; no output bit changes.

:func:`wasserstein_lp` gives the exact linear-programming value for d = 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FeasibilityError, InvalidGraphError, NonConvergenceError
from .feasibility import require_feasible
from .graph import ORTHOGONALITY_TOL, ConnectionGraph, _shaped, apply_BT

__all__ = [
    "SolveOptions",
    "SolveReport",
    "dual_objective",
    "dual_gradient",
    "recover_primal",
    "primal_cost",
    "unregularized_cost",
    "solve_regularized",
    "dual_feasible_unregularized",
    "unregularized_dual_value",
    "wasserstein",
    "wasserstein_lp",
    "stable_learning_rate",
]


@dataclass
class SolveOptions:
    """Knobs for the dual-ascent solver.

    ``lam=None`` resolves to the largest edge weight.  ``grad_tol=None``
    resolves to ``1e-8 * (1 + |c|_2)``.
    """

    lam: float | None = None
    learning_rate: float = 5e-3
    max_epochs: int = 10000
    grad_tol: float | None = None


@dataclass
class SolveReport:
    """Certificates and bookkeeping for one solve."""

    primal_cost: float
    dual_value: float
    gap: float
    residual: float
    epochs_used: int
    converged: bool
    lam: float
    learning_rate: float

    def to_json_dict(self):
        return asdict(self)


def _resolve_lam(g, lam):
    if lam is None:
        lam = g.w_max
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise InvalidGraphError(f"regularization lambda must be positive and finite, got {lam}")
    return lam


def _edge_norms(flow):
    return np.linalg.norm(flow, axis=1)


#: The working set taken at an anchor keeps the edges whose excess there
#: is at least ``-_KEEP * w_e``; every edge it leaves out has a slack
#: ``w_e - |g_e|`` above ``_KEEP * w_e``.
_KEEP = 0.4

#: An anchor takes a working set only when it leaves out at least half the
#: edges and at least this many rows of ``B^T``; below that, slicing the
#: operators and keeping the bound cost more than the smaller products save.
_MIN_LEFT_OUT_ROWS = 1024

#: Round-off allowance of the bound, per term, relative to the scale of
#: ``w`` and ``phi``: about 10^4 units in the last place, far more than the
#: rounding of the norms at the anchor and at ``phi``, and of ``D``, can
#: move an edge's computed excess.
_ROUNDOFF = 1e-12


class _Edges:
    """Component-major rows of ``B^T`` and columns of ``B`` for a set of
    edges, with their weights and the evaluation buffers sized for them."""

    def __init__(self, bmat_t, bmat, w, d):
        self.bmat_t, self.bmat, self.w = bmat_t, bmat, w
        self.excess = np.empty(len(w))
        self.coef = np.empty(len(w))
        self.flow = np.empty((d, len(w)))


class _Dual:
    """The smooth dual of one ``(g, c, lam)``, evaluated component-major.

    :meth:`evaluate` fills, for one ``phi``, the buffers ``excess``
    (``|g_e| - w_e``), ``coef`` (the shrink factor of the closed-form flow),
    ``flow`` (that flow, (d, m)) and ``grad`` (the residual ``c - B J``,
    which is the dual gradient); :meth:`value` reads the dual value off
    the last evaluation.

    The ascent evaluates through :meth:`evaluate_near` instead, which owns
    the working set: it runs the same body on the edges kept at the anchor
    ``phi0`` while ``L D``, with ``D = sqrt(d) |phi - phi0|_inf``, shows
    that every edge left out is still inactive, and backs off from anchors
    that save nothing.
    """

    def __init__(self, g, c, lam):
        m, d = g.m, g.d
        # entry a m + e of a component-major edge vector is component a of
        # edge e, entry e d + a of an edge-major one; SciPy's selection of
        # the rows of B^T and the columns of B keeps each row's entries in
        # storage order, so every product sums the same terms in the same order
        order = (np.arange(m) * d + np.arange(d)[:, None]).ravel()
        self.edges = _Edges(
            g.incidence_matrix_T[order], g.incidence_matrix[:, order], g.weights, d
        )
        self.excess, self.flow = self.edges.excess, self.edges.flow
        self.c, self.lam = c.reshape(-1), lam
        self.grad = np.empty(g.n * d)
        self.left = self.working = None
        self.restricted = False
        self.misses = self.hold = 0
        self.keep_floor = -_KEEP * g.weights
        self.left_out = np.empty(m, dtype=bool)
        self.phi0 = np.empty(g.n * d)
        self.delta = np.empty(g.n * d)
        # (B^T phi)_e = phi_i - sigma_e phi_j moves by at most lip times the
        # largest move of a vertex: a valid graph's |sigma^T sigma - I|_max
        # is at most ORTHOGONALITY_TOL, so |sigma|_2^2 <= 1 + d ORTHOGONALITY_TOL
        self.lip = 1.0 + math.sqrt(1.0 + d * ORTHOGONALITY_TOL)
        self.root_d = math.sqrt(d)
        self.w_max = g.w_max

    def _evaluate(self, edges, phi):
        """The evaluation body, on ``edges``; ``grad`` covers every vertex."""
        gvals = (edges.bmat_t @ phi).reshape(edges.flow.shape)
        norms, coef = edges.excess, edges.coef
        # the squares are summed left to right, the order NumPy's pairwise
        # sum takes for fewer than eight terms, so the norms equal those of
        # np.linalg.norm on the edge-major array bit for bit
        if len(gvals) >= 8:
            norms[:] = np.linalg.norm(np.ascontiguousarray(gvals.T), axis=1)
        else:
            np.multiply(gvals[0], gvals[0], out=norms)
            for row in gvals[1:]:
                norms += np.multiply(row, row, out=coef)
            np.sqrt(norms, out=norms)
        # coef = (|g_e| - w_e) / (lam |g_e|) on active edges, exactly 0 elsewhere
        np.multiply(norms, self.lam, out=coef)
        norms -= edges.w
        np.divide(norms, coef, out=coef)
        np.maximum(coef, 0.0, out=coef)
        np.multiply(gvals, coef, out=edges.flow)
        np.subtract(self.c, edges.bmat @ edges.flow.reshape(-1), out=self.grad)

    def evaluate(self, phi):
        """Evaluate at the flat ``phi`` on every edge.  A zero norm divides
        by zero to ``-inf``, which the clip at zero removes; callers silence
        that warning."""
        self._evaluate(self.edges, phi)

    def evaluate_near(self, phi):
        """Evaluate at ``phi`` as :meth:`evaluate` does, with the same bits
        in ``grad``; ``excess`` and ``flow`` are left as they were when
        ``restricted`` is set.

        ``D = sqrt(d) |phi - phi0|_inf`` bounds ``max_i |phi_i - phi0_i|``
        from the anchor ``phi0``, so no edge's ``|g_e|`` has moved by more
        than ``lip D``.  While that stays below the smallest slack of the
        edges left out at the anchor, less the round-off allowance, each of
        them is still inactive: its flow is ``+-0``, and each of its terms
        ``B_ij (+-0)`` adds nothing to a row sum of ``B J`` that starts at
        ``+0.0``.  So only the working set's rows of ``B^T`` and columns of
        ``B`` are multiplied.  Otherwise, or when ``D`` is not finite, every
        edge is evaluated and ``phi`` becomes the next anchor.  An anchor
        saves nothing when :meth:`_anchor` declines it or the bound refuses
        its set before the set is sliced; after k of those in a row, the
        next ``2^k - 1`` epochs (at most 63) evaluate every edge.
        """
        if self.left is not None:
            np.abs(np.subtract(phi, self.phi0, out=self.delta), out=self.delta)
            # a NaN in phi makes D NaN, which fails the bound
            self.restricted = self.lip * self.root_d * float(self.delta.max()) < self.slack
        if self.restricted:
            if self.working is None:
                # sliced at the first epoch that uses them, so an anchor whose
                # bound fails at once costs no slicing
                kept = np.flatnonzero(~self.left)
                d, m = self.flow.shape
                rows = (kept + m * np.arange(d)[:, None]).ravel()
                e = self.edges
                self.working = _Edges(e.bmat_t[rows], e.bmat[:, rows], e.w[kept], d)
            self._evaluate(self.working, phi)
            return
        self.evaluate(phi)
        if self.left is not None:
            self._settle(saved=self.working is not None)
        if self.hold:
            self.hold -= 1
        else:
            self._anchor(phi)

    def _settle(self, saved):
        """Close the last anchor, counting it in the back-off unless it saved products."""
        self.left = None
        self.misses = 0 if saved else self.misses + 1
        self.hold = 2 ** min(self.misses, 6) - 1

    def _anchor(self, phi):
        """Take the edges to leave out at ``phi``, just evaluated on every edge."""
        self.working = None
        left = np.less(self.excess, self.keep_floor, out=self.left_out)
        count = int(np.count_nonzero(left))
        d, m = self.flow.shape
        if 2 * count < m or count * d < _MIN_LEFT_OUT_ROWS:
            self._settle(saved=False)
            return
        self.left = left
        self.phi0[:] = phi
        # while the bound holds, |phi| stays below |phi0| + D and lip D below
        # the slack, itself below w_max; the norms at the anchor and at phi
        # each round off by a few (d + 2)^2 units in the last place of that scale
        phi_max = float(np.abs(phi, out=self.delta).max())
        scale = self.w_max * (1 + self.root_d) + self.lip * self.root_d * phi_max
        most = float(np.where(left, self.excess, -np.inf).max())
        self.slack = -most - _ROUNDOFF * scale * (d + 2) ** 2

    def value(self, phi):
        """Dual value at ``phi``, the point of the last evaluation on every edge."""
        penalty = np.where(self.excess > 0, self.excess, 0.0)
        return float(np.vdot(phi, self.c) - (penalty @ penalty) / (2.0 * self.lam))


def _evaluated(g, phi, c, lam):
    """The dual of ``(g, c, lam)`` evaluated once at ``phi``, and ``phi`` flat."""
    lam = _resolve_lam(g, lam)
    phi = _shaped(g, phi, "phi", g.n).reshape(-1)
    dual = _Dual(g, _shaped(g, c, "c", g.n), lam)
    with np.errstate(divide="ignore"):
        dual.evaluate(phi)
    return dual, phi


def dual_objective(g: ConnectionGraph, phi, c, lam):
    """Value of the regularized dual at ``phi``."""
    dual, phi = _evaluated(g, phi, c, lam)
    return dual.value(phi)


def recover_primal(g: ConnectionGraph, phi, lam):
    """Closed-form flow from a dual variable; exactly zero on inactive edges."""
    dual, _ = _evaluated(g, phi, np.zeros(g.n * g.d), lam)
    return np.ascontiguousarray(dual.flow.T)


def dual_gradient(g: ConnectionGraph, phi, c, lam):
    """Gradient of the dual: the constraint residual ``c - B J(phi)``."""
    dual, _ = _evaluated(g, phi, c, lam)
    return dual.grad.reshape(g.n, g.d)


def primal_cost(g: ConnectionGraph, flow, lam):
    """Regularized primal objective of a flow."""
    lam = _resolve_lam(g, lam)
    norms = _edge_norms(_shaped(g, flow, "flow", g.m))
    return float(g.weights @ norms + 0.5 * lam * (norms @ norms))


def unregularized_cost(g: ConnectionGraph, flow):
    """Plain Beckmann objective ``sum_e w(e) |J(e)|`` of a flow."""
    return float(g.weights @ _edge_norms(_shaped(g, flow, "flow", g.m)))


#: Fraction of the monotone-ascent step bound that :func:`stable_learning_rate` returns.
STEP_SAFETY = 0.9


def stable_learning_rate(g: ConnectionGraph, lam=None):
    """Step size guaranteeing monotone ascent.

    The dual Hessian is bounded by ``lambda_max(B B^T) / lam`` and
    ``lambda_max(B B^T) <= 2 * max_degree``, so
    ``STEP_SAFETY * lam / (2 * max_degree)`` keeps the fixed step inside
    the monotone regime.  An invalid graph raises :class:`InvalidGraphError`.
    """
    g.require_valid()
    lam = _resolve_lam(g, lam)
    return STEP_SAFETY * lam / (2.0 * max(g.max_degree, 1))


def solve_regularized(g: ConnectionGraph, alpha, beta, opts: SolveOptions | None = None):
    """Dual gradient ascent from zero with closed-form primal recovery.

    Returns ``(flow, phi, report)``.  Infeasible pairs raise
    :class:`FeasibilityError` up front, naming the violated kernel
    components, and a field with a NaN or infinite entry raises
    :class:`InvalidGraphError`.  Non-convergence within ``max_epochs`` is
    reported via ``report.converged`` rather than an exception; a residual
    that turns non-finite (the step is too large and the ascent diverged)
    raises :class:`NonConvergenceError` at once.
    """
    if opts is None:
        opts = SolveOptions()
    g.require_valid()
    lam = _resolve_lam(g, opts.lam)
    alpha, beta = _shaped(g, alpha, "alpha", g.n), _shaped(g, beta, "beta", g.n)
    c = alpha - beta
    require_feasible(g, alpha, beta)

    c_vec = c.reshape(-1)
    grad_tol = opts.grad_tol
    if grad_tol is None:
        grad_tol = 1e-8 * (1.0 + float(np.linalg.norm(c_vec)))

    dual = _Dual(g, c, lam)
    lr = float(opts.learning_rate)
    phi = np.zeros(g.n * g.d)
    step = np.empty_like(phi)

    epochs_used = 0
    converged = False
    # a diverging ascent overflows on its way to the non-finite residual
    # that the loop reports, so overflow warnings would only repeat it;
    # the evaluation divides by the zero norms of edges it then clips to zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            dual.evaluate_near(phi)
            grad_norm = float(np.linalg.norm(dual.grad))
            if not math.isfinite(grad_norm):
                raise NonConvergenceError(
                    f"dual ascent diverged at epoch {epochs_used}: the residual is "
                    f"{grad_norm} with step {lr!r}; the stable step for lambda = "
                    f"{lam!r} is {stable_learning_rate(g, lam)!r}"
                )
            if grad_norm <= grad_tol:
                converged = True
                break
            if epochs_used >= opts.max_epochs:
                break
            phi += np.multiply(dual.grad, lr, out=step)
            epochs_used += 1
        if dual.restricted:
            # the flow, value and gap read every edge
            dual.evaluate(phi)

    flow = np.ascontiguousarray(dual.flow.T)
    cost = primal_cost(g, flow, lam)
    value = dual.value(phi)
    report = SolveReport(
        primal_cost=cost,
        dual_value=value,
        gap=cost - value,
        residual=grad_norm,
        epochs_used=epochs_used,
        converged=converged,
        lam=lam,
        learning_rate=lr,
    )
    return flow, phi.reshape(g.n, g.d), report


#: Relative and absolute slack of :func:`dual_feasible_unregularized`'s test.
DUAL_FEASIBILITY_TOL = 1e-12


def dual_feasible_unregularized(g: ConnectionGraph, phi):
    """Whether ``phi`` is feasible for the unregularized dual: ``|B^T phi| <= w``,
    within ``DUAL_FEASIBILITY_TOL``."""
    tol = DUAL_FEASIBILITY_TOL
    gvals = apply_BT(g, phi)
    return bool(np.all(_edge_norms(gvals) <= g.weights * (1.0 + tol) + tol))


def unregularized_dual_value(phi, c):
    """Value ``<phi, c>`` of the unregularized (Kantorovich-type) dual."""
    return float(np.vdot(np.asarray(phi, dtype=float), np.asarray(c, dtype=float)))


def wasserstein(g: ConnectionGraph, alpha, beta, opts: SolveOptions | None = None):
    """Connection Beckmann distance: unregularized cost of the regularized flow.

    Returns ``inf`` for infeasible pairs instead of raising.
    """
    try:
        flow, _, _ = solve_regularized(g, alpha, beta, opts)
    except FeasibilityError:
        return float("inf")
    return unregularized_cost(g, flow)


def wasserstein_lp(g: ConnectionGraph, alpha, beta):
    """Exact unregularized optimum for d = 1 via linear programming.

    Splits the flow into positive and negative parts and solves
    ``min w (J+ + J-)`` subject to ``B (J+ - J-) = c`` with HiGHS.
    Returns ``(value, flow)``.  Small-scale reference implementation.
    """
    import scipy.optimize  # only this reference needs it; keeps CLI start-up light

    g.require_valid()
    if g.d != 1:
        raise InvalidGraphError("the LP reference handles d = 1 only")
    c_vec = (_shaped(g, alpha, "alpha", g.n) - _shaped(g, beta, "beta", g.n)).reshape(-1)
    bmat = g.incidence_matrix.toarray()
    cost = np.concatenate([g.weights, g.weights])
    a_eq = np.hstack([bmat, -bmat])
    res = scipy.optimize.linprog(
        cost, A_eq=a_eq, b_eq=c_vec, bounds=(0, None), method="highs"
    )
    if not res.success:
        raise FeasibilityError(f"LP reference did not solve: {res.message}")
    flow = res.x[: g.m] - res.x[g.m :]
    return float(res.fun), flow.reshape(g.m, 1)
