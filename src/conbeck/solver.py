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

Each epoch runs component-major: ``B^T phi`` comes out as a (d, m) array
whose row ``a`` holds component ``a`` of every edge, because the rows of
``B^T`` and the columns of ``B`` are reordered once per solve.  The edge
norms are then sums of d contiguous rows, and the shrink factor, the flow
and the residual are formed in buffers allocated before the first epoch.
Every sum keeps its terms and their order, so the iterates are those of
the edge-major formulas bit for bit.

:func:`wasserstein_lp` gives the exact linear-programming value for d = 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FeasibilityError, InvalidGraphError, NonConvergenceError
from .feasibility import require_feasible
from .graph import ConnectionGraph, apply_B, apply_BT

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


def _difference(g, alpha, beta):
    a = np.asarray(alpha, dtype=float).reshape(g.n, g.d)
    b = np.asarray(beta, dtype=float).reshape(g.n, g.d)
    return a - b


def _edge_norms(flow):
    return np.linalg.norm(flow, axis=1)


def _coef(norms, w, lam, out=None):
    """Shrink factor of the closed-form flow, ``(|g_e| - w_e) / (lam |g_e|)``
    on active edges (``|g_e| > w_e``) and exactly zero elsewhere.

    Consumes ``norms`` (it is overwritten) and writes into ``out`` when
    given.  A zero norm divides by zero to ``-inf``, which the clip at
    zero removes; callers silence that warning.
    """
    out = np.multiply(norms, lam, out=out)
    norms -= w
    np.divide(norms, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _component_major(g):
    """``(B^T, B)`` for component-major edge vectors.

    Entry ``a m + e`` of such a vector is component ``a`` of edge ``e``,
    which is entry ``e d + a`` of the edge-major vectors of
    :attr:`ConnectionGraph.incidence_matrix`.  SciPy's selection of the
    rows of ``B^T`` and the columns of ``B`` keeps each row's entries in
    storage order, so every product sums the same terms in the same order.
    """
    m, d = g.m, g.d
    order = (np.arange(m) * d + np.arange(d)[:, None]).ravel()
    return g.incidence_matrix_T[order], g.incidence_matrix[:, order]


def _component_norms(gvals, out, scratch):
    """Edge norms of a component-major (d, m) array, written into ``out``.

    The squares are summed left to right, the order NumPy's pairwise sum
    takes for fewer than eight terms, so the norms equal
    :func:`_edge_norms` of the edge-major array bit for bit; from eight
    components on, they are that function's.
    """
    if gvals.shape[0] >= 8:
        out[:] = _edge_norms(np.ascontiguousarray(gvals.T))
        return out
    np.multiply(gvals[0], gvals[0], out=out)
    for row in gvals[1:]:
        out += np.multiply(row, row, out=scratch)
    return np.sqrt(out, out=out)


def dual_objective(g: ConnectionGraph, phi, c, lam):
    """Value of the regularized dual at ``phi``."""
    lam = _resolve_lam(g, lam)
    phi = np.asarray(phi, dtype=float).reshape(g.n, g.d)
    c = np.asarray(c, dtype=float).reshape(g.n, g.d)
    gvals = apply_BT(g, phi)
    excess = _edge_norms(gvals) - g.weights
    penalty = np.where(excess > 0, excess, 0.0)
    return float(np.vdot(phi, c) - (penalty @ penalty) / (2.0 * lam))


def recover_primal(g: ConnectionGraph, phi, lam):
    """Closed-form flow from a dual variable; exactly zero on inactive edges."""
    lam = _resolve_lam(g, lam)
    gvals = apply_BT(g, phi)
    with np.errstate(divide="ignore"):
        coef = _coef(_edge_norms(gvals), g.weights, lam)
    return coef[:, None] * gvals


def dual_gradient(g: ConnectionGraph, phi, c, lam):
    """Gradient of the dual: the constraint residual ``c - B J(phi)``."""
    c = np.asarray(c, dtype=float).reshape(g.n, g.d)
    flow = recover_primal(g, phi, lam)
    return c - apply_B(g, flow)


def primal_cost(g: ConnectionGraph, flow, lam):
    """Regularized primal objective of a flow."""
    lam = _resolve_lam(g, lam)
    flow = np.asarray(flow, dtype=float).reshape(g.m, g.d)
    norms = _edge_norms(flow)
    return float(g.weights @ norms + 0.5 * lam * (norms @ norms))


def unregularized_cost(g: ConnectionGraph, flow):
    """Plain Beckmann objective ``sum_e w(e) |J(e)|`` of a flow."""
    flow = np.asarray(flow, dtype=float).reshape(g.m, g.d)
    return float(g.weights @ _edge_norms(flow))


#: Fraction of the monotone-ascent step bound that :func:`stable_learning_rate` returns.
STEP_SAFETY = 0.9


def stable_learning_rate(g: ConnectionGraph, lam=None):
    """Step size guaranteeing monotone ascent.

    The dual Hessian is bounded by ``lambda_max(B B^T) / lam`` and
    ``lambda_max(B B^T) <= 2 * max_degree``, so
    ``STEP_SAFETY * lam / (2 * max_degree)`` keeps the fixed step inside
    the monotone regime.
    """
    lam = _resolve_lam(g, lam)
    return STEP_SAFETY * lam / (2.0 * max(g.max_degree, 1))


def solve_regularized(g: ConnectionGraph, alpha, beta, opts: SolveOptions | None = None):
    """Dual gradient ascent from zero with closed-form primal recovery.

    Returns ``(flow, phi, report)``.  Infeasible pairs raise
    :class:`FeasibilityError` up front, naming the violated kernel
    components.  Non-convergence within ``max_epochs`` is reported via
    ``report.converged`` rather than an exception; a residual that turns
    non-finite (the step is too large and the ascent diverged) raises
    :class:`NonConvergenceError` at once.
    """
    if opts is None:
        opts = SolveOptions()
    g.require_valid()
    lam = _resolve_lam(g, opts.lam)
    c = _difference(g, alpha, beta)
    require_feasible(g, alpha, beta)

    c_vec = c.reshape(-1)
    grad_tol = opts.grad_tol
    if grad_tol is None:
        grad_tol = 1e-8 * (1.0 + float(np.linalg.norm(c_vec)))

    bmat_t, bmat = _component_major(g)
    w = g.weights
    m, d = g.m, g.d
    lr = float(opts.learning_rate)
    phi = np.zeros(g.n * d)
    grad = np.empty_like(phi)
    step = np.empty_like(phi)
    norms = np.empty(m)
    coef = np.empty(m)
    flow = np.empty((d, m))

    epochs_used = 0
    converged = False
    # a diverging ascent overflows on its way to the non-finite residual
    # that the loop reports, so overflow warnings would only repeat it;
    # _coef divides by the zero norms of edges it then clips to zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            gvals = (bmat_t @ phi).reshape(d, m)
            _coef(_component_norms(gvals, norms, scratch=coef), w, lam, out=coef)
            np.multiply(gvals, coef, out=flow)
            np.subtract(c_vec, bmat @ flow.reshape(-1), out=grad)
            grad_norm = float(np.linalg.norm(grad))
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
            phi += np.multiply(grad, lr, out=step)
            epochs_used += 1

    flow = np.ascontiguousarray(flow.T)
    phi_field = phi.reshape(g.n, g.d)
    cost = primal_cost(g, flow, lam)
    dual = dual_objective(g, phi_field, c, lam)
    report = SolveReport(
        primal_cost=cost,
        dual_value=dual,
        gap=cost - dual,
        residual=grad_norm,
        epochs_used=epochs_used,
        converged=converged,
        lam=lam,
        learning_rate=lr,
    )
    return flow, phi_field, report


def dual_feasible_unregularized(g: ConnectionGraph, phi, tol=1e-12):
    """Whether ``phi`` is feasible for the unregularized dual: ``|B^T phi| <= w``."""
    gvals = apply_BT(g, phi)
    return bool(np.all(_edge_norms(gvals) <= g.weights * (1.0 + tol) + tol))


def unregularized_dual_value(phi, c):
    """Value ``<phi, c>`` of the unregularized (Kantorovich-type) dual."""
    phi = np.asarray(phi, dtype=float)
    c = np.asarray(c, dtype=float)
    return float(np.vdot(phi.reshape(-1), c.reshape(-1)))


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
    c_vec = _difference(g, alpha, beta).reshape(-1)
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
