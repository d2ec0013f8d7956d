"""Command-line interface.

Exit codes: 0 success, 1 usage problems, 2 validation failures (bad files
or graphs), 3 infeasible transport instances, 4 non-convergence (partial
outputs are still written where possible) or a diverged ascent (nothing
is written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import (
    FeasibilityError,
    FormatError,
    InvalidGraphError,
    NonConvergenceError,
)
from .feasibility import (
    feasibility_report,
    feasibility_switching,
    project_feasible,
)
from .graph import is_consistent, switch
from .solver import SolveOptions, solve_regularized

# manifold, hurdat and toolkit are imported by the commands that run them

__all__ = ["main"]

#: Below this fraction of the largest edge weight, a positive lambda is
#: refused without --allow-small-lambda (small lambda makes the ascent
#: unstable); the solver itself refuses lambda that is not positive and finite.
SMALL_LAMBDA_FRACTION = 1e-3


def _err(message):
    print(f"error: {message}", file=sys.stderr)


def _sibling(path, suffix):
    p = Path(path)
    return p.with_name(p.stem + suffix)


def _check_lambda(args, g):
    if 0 < args.lam < SMALL_LAMBDA_FRACTION * g.w_max and not args.allow_small_lambda:
        _err(
            f"lambda {args.lam!r} is below {SMALL_LAMBDA_FRACTION:g} * w_max "
            f"= {SMALL_LAMBDA_FRACTION * g.w_max!r} and may be unstable; "
            "pass --allow-small-lambda to proceed"
        )
        return False
    return True


def _at_least(kind, low, strict=False):
    """Argparse type: a finite ``kind`` (int or float) of at least ``low``,
    or above ``low`` when ``strict``."""

    def parse(text):
        value = kind(text)
        if not low <= value < np.inf or (strict and value == low):
            bound = "above" if strict else "of at least"
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound} {low}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <name> value" message
    return parse


def _solve_options(args):
    return SolveOptions(
        lam=args.lam,
        learning_rate=args.lr,
        max_epochs=args.epochs,
        grad_tol=args.grad_tol,
    )


def _add_solver_arguments(sub):
    defaults = SolveOptions()
    sub.add_argument("--lambda", dest="lam", type=float, required=True)
    sub.add_argument(
        "--lr", type=_at_least(float, 0, strict=True), default=defaults.learning_rate
    )
    sub.add_argument("--epochs", type=_at_least(int, 0), default=defaults.max_epochs)
    sub.add_argument("--grad-tol", type=_at_least(float, 0), default=defaults.grad_tol)
    sub.add_argument("--allow-small-lambda", action="store_true")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    g = io.load_graph(args.graph, validate=False)
    print(f"graph: n={g.n} d={g.d} m={g.m}")
    if g.violations:
        print("invalid:")
        for line in g.violations:
            print(f"  {line}")
        return 2
    print("valid")
    consistent = is_consistent(g, tol=args.tol)
    print("consistent" if consistent else "inconsistent")
    basis = g.kernel
    print(f"kernel dimension: {basis.dimension}")
    if args.kernel_out:
        io.save_kernel(args.kernel_out, basis)
    return 0


def _cmd_feasible(args):
    g = io.load_graph(args.graph)
    alpha = io.load_field(args.alpha)
    beta = io.load_field(args.beta)
    _require_field_shape(alpha, g, args.alpha)
    _require_field_shape(beta, g, args.beta)
    feasible, violations, _ = feasibility_report(g, alpha, beta, tol=args.tol)
    if feasible:
        print("feasible")
        return 0
    print("infeasible")
    for k, ip in violations:
        print(f"kernel vector {k}: <alpha - beta, f_{k}> = {ip!r}")
    return 3


def _cmd_switch(args):
    g = io.load_graph(args.graph)
    tau = feasibility_switching(g, root=args.root)
    io.save_graph(args.output, switch(g, tau))
    tau_path = _sibling(args.output, ".tau.json")
    io.save_tau(tau_path, tau)
    print(f"wrote {args.output} and {tau_path}")
    return 0


def _cmd_solve(args):
    g = io.load_graph(args.graph)
    alpha = io.load_field(args.alpha)
    beta = io.load_field(args.beta)
    _require_field_shape(alpha, g, args.alpha)
    _require_field_shape(beta, g, args.beta)
    if not _check_lambda(args, g):
        return 1
    flow, _, report = solve_regularized(g, alpha, beta, _solve_options(args))
    io.save_flow(args.output, flow)
    if args.report:
        io.save_report(args.report, report)
    if args.active_edges is not None:
        io.save_active_edges(
            _sibling(args.output, ".active.csv"), g, flow, delta=args.active_edges
        )
    print(f"primal cost: {report.primal_cost!r}")
    print(f"dual value: {report.dual_value!r}")
    print(f"gap: {report.gap!r}")
    print(f"residual: {report.residual!r}")
    print(f"epochs: {report.epochs_used}")
    print(f"converged: {'yes' if report.converged else 'no'}")
    if not report.converged:
        _err(
            f"gradient ascent did not converge within {args.epochs} epochs "
            "(outputs were written)"
        )
        return 4
    return 0


def _cmd_buildgraph(args):
    from .manifold import epsilon_graph, procrustes_connection, tangent_frames

    cloud = io.load_points(args.points)
    skeleton = epsilon_graph(cloud, args.eps, weights=args.weights)
    frames = tangent_frames(cloud, skeleton, args.dim, args.eps)
    g = procrustes_connection(frames, skeleton)
    io.save_graph(args.output, g)
    if args.frames:
        io.save_frames(args.frames, frames)
    print(f"graph: n={g.n} d={g.d} m={g.m}")
    if not skeleton.connected:
        _err("epsilon graph is disconnected; downstream solves will reject it")
    return 0


def _cmd_interp(args):
    from .toolkit import edge_rings, interpolate_trajectory, nodal_support

    g = io.load_graph(args.graph)
    alpha = io.load_field(args.alpha)
    _require_field_shape(alpha, g, args.alpha)
    flow = io.load_flow(args.flow)
    if flow.shape != (g.m, g.d):
        raise FormatError(
            f"{args.flow}: flow shape {flow.shape} does not match graph "
            f"({g.m} edges, d={g.d})"
        )
    rings = edge_rings(g, nodal_support(alpha))
    states = interpolate_trajectory(g, alpha, flow, rings, args.steps)
    ambient = None
    if args.frames:
        frames = io.load_frames(args.frames)
        if frames.shape[0] != g.n or frames.shape[2] != g.d:
            raise FormatError(
                f"{args.frames}: frames shape {frames.shape} does not match "
                f"graph (n={g.n}, d={g.d})"
            )
        from .manifold import lift_to_ambient

        ambient = [lift_to_ambient(frames, s) for s in states]
    io.save_trajectory(args.output, states, ambient=ambient)
    print(f"wrote {len(states)} states to {args.output}")
    return 0


def _cmd_distmat(args):
    from .toolkit import distance_matrix

    g = io.load_graph(args.graph)
    if not _check_lambda(args, g):
        return 1
    paths = sorted(Path(args.fields_dir).glob("*.json"))
    if not paths:
        _err(f"no .json field files found in {args.fields_dir}")
        return 1
    fields = []
    for path in paths:
        field = io.load_field(path)
        _require_field_shape(field, g, path)
        fields.append(field)
    if args.project_kernel:
        fields = project_feasible(g, np.stack(fields))
    dist, conv = distance_matrix(
        g,
        fields,
        _solve_options(args),
        jobs=args.jobs,
        require_convergence=False,
        return_converged=True,
    )
    io.save_matrix(args.output, dist)
    for name in paths:
        print(name.name)
    if not conv.all():
        upper = np.triu(np.ones_like(conv, dtype=bool), 1)
        for a, b in np.argwhere(upper & ~conv):
            _err(f"pair ({paths[a].name}, {paths[b].name}) did not converge")
        _err("matrix written with best-effort values")
        return 4
    return 0


def _cmd_cluster(args):
    from .toolkit import spectral_cluster

    dist = io.load_matrix(args.matrix)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise FormatError(f"{args.matrix}: expected a square matrix")
    with np.errstate(over="ignore"):
        affinity = np.exp(-args.gamma * dist)
    affinity[~np.isfinite(dist)] = 0.0
    result = spectral_cluster(affinity, args.k, seed=args.seed)
    io.save_labels(args.output, result.labels)
    print(f"wrote {len(result.labels)} labels to {args.output}")
    if not result.converged:
        _err("k-means did not converge (labels were written)")
        return 4
    return 0


def _cmd_hurdat(args):
    from .hurdat import hurdat2_parse, track_to_field

    with open(args.tracks, "r", encoding="utf-8") as fh:
        text = fh.read()
    tracks, issues = hurdat2_parse(text)
    for issue in issues:
        _err(f"{args.tracks}: {issue}")
    cloud = io.load_points(args.mesh)
    if cloud.shape[1] != 3:
        raise FormatError(
            f"{args.mesh}: mesh points are in dimension {cloud.shape[1]}; "
            "storm positions need 3"
        )
    frames = io.load_frames(args.frames)
    if frames.shape[0] != cloud.shape[0] or frames.shape[1] != cloud.shape[1]:
        raise FormatError(
            f"{args.frames}: frames shape {frames.shape} does not match mesh "
            f"with {cloud.shape[0]} points in dimension {cloud.shape[1]}"
        )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    seen, written = set(), 0
    for track in tracks:
        if track.id in seen:
            _err(f"{track.id}: repeated storm id, skipped")
            continue
        seen.add(track.id)
        if len(track) < 2:
            _err(f"{track.id}: fewer than 2 samples, skipped")
            continue
        field = track_to_field(
            track, frames, cloud, normalize_before_average=not args.average_first
        )
        io.save_field(outdir / f"{track.id}.json", field)
        written += 1
    print(f"wrote {written} fields to {outdir}")
    return 0


def _require_field_shape(field, g, path):
    if field.shape != (g.n, g.d):
        raise FormatError(
            f"{path}: field shape {field.shape} does not match graph "
            f"(n={g.n}, d={g.d})"
        )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conbeck",
        description="Optimal transport for vector fields on connection graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="validate a graph and report its kernel")
    sub.add_argument("graph")
    sub.add_argument("--tol", type=_at_least(float, 0), default=1e-8)
    sub.add_argument("--kernel-out", default=None)
    sub.set_defaults(func=_cmd_check)

    sub = subs.add_parser("feasible", help="test whether two densities admit a flow")
    sub.add_argument("graph")
    sub.add_argument("alpha")
    sub.add_argument("beta")
    sub.add_argument("--tol", type=_at_least(float, 0), default=1e-8)
    sub.set_defaults(func=_cmd_feasible)

    sub = subs.add_parser("switch", help="write the feasibility switching")
    sub.add_argument("graph")
    sub.add_argument("--root", type=int, default=0)
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(func=_cmd_switch)

    sub = subs.add_parser("solve", help="solve the regularized transport problem")
    sub.add_argument("graph")
    sub.add_argument("alpha")
    sub.add_argument("beta")
    _add_solver_arguments(sub)
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--report", default=None)
    sub.add_argument("--active-edges", type=_at_least(float, 0), default=None, metavar="DELTA")
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("buildgraph", help="build a connection graph from points")
    sub.add_argument("points")
    sub.add_argument("--eps", type=_at_least(float, 0, strict=True), required=True)
    sub.add_argument("--dim", type=_at_least(int, 1), required=True)
    sub.add_argument("--weights", choices=["inverse", "unit"], default="inverse")
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--frames", default=None)
    sub.set_defaults(func=_cmd_buildgraph)

    sub = subs.add_parser("interp", help="ring-interpolate a transport trajectory")
    sub.add_argument("graph")
    sub.add_argument("alpha")
    sub.add_argument("flow")
    sub.add_argument("--steps", type=_at_least(int, 0), required=True)
    sub.add_argument("--frames", default=None)
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(func=_cmd_interp)

    sub = subs.add_parser("distmat", help="pairwise transport distance matrix")
    sub.add_argument("graph")
    sub.add_argument("fields_dir")
    _add_solver_arguments(sub)
    sub.add_argument("--project-kernel", action="store_true")
    sub.add_argument("--jobs", type=_at_least(int, 1), default=1)
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(func=_cmd_distmat)

    sub = subs.add_parser("cluster", help="spectral clustering of a distance matrix")
    sub.add_argument("matrix")
    sub.add_argument("--k", type=_at_least(int, 1), required=True)
    sub.add_argument("--gamma", type=_at_least(float, 0), default=0.1)
    sub.add_argument("--seed", type=_at_least(int, 0), default=0)
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(func=_cmd_cluster)

    sub = subs.add_parser("hurdat", help="convert HURDAT2 tracks to mesh fields")
    sub.add_argument("tracks")
    sub.add_argument("--mesh", required=True)
    sub.add_argument("--frames", required=True)
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--average-first", action="store_true")
    sub.set_defaults(func=_cmd_hurdat)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except FeasibilityError as exc:
        _err(str(exc))
        return 3
    except NonConvergenceError as exc:
        _err(str(exc))
        return 4
    except (InvalidGraphError, FormatError) as exc:
        _err(str(exc))
        return 2
    except OSError as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
