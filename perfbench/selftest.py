"""Shows that the benchmark's checks catch wrong answers.

Each check gets a correct output of the program on a small input, which
it must accept, and the same output with one deliberate fault, which it
must reject:

- a flow with one edge scaled,
- a kernel basis rotated off the true span,
- a distance matrix with one asymmetric entry,
- an edge list missing one epsilon pair.

Run by ``python3 perfbench/run.py --small``.
"""

from __future__ import annotations

import sys

import numpy as np

import inputs
import reference as ref
import run
from reference import CheckFailed

sys.path.insert(0, str(run.SRC))

from conbeck import io  # noqa: E402
from conbeck.feasibility import kernel_numeric  # noqa: E402
from conbeck.graph import ConnectionGraph  # noqa: E402
from conbeck.manifold import epsilon_graph, procrustes_connection, tangent_frames  # noqa: E402
from conbeck.solver import SolveOptions, solve_regularized  # noqa: E402
from conbeck.toolkit import distance_matrix  # noqa: E402


def rejects(label, check, good, bad):
    """``check`` accepts ``good`` and raises CheckFailed on ``bad``."""
    check(good)
    try:
        check(bad)
    except CheckFailed as exc:
        print(f"selftest {label}: caught ({exc})")
        return True
    print(f"selftest {label}: NOT caught")
    return False


def main():
    rng = np.random.default_rng(7)
    eps = 0.45
    cloud = inputs.sphere_patch(8, 16)
    skeleton = epsilon_graph(cloud, eps)
    g = procrustes_connection(tangent_frames(cloud, skeleton, 2, eps), skeleton)
    obj = io.graph_to_dict(g)
    ok = True

    # an edge list missing one epsilon pair
    short = dict(obj, edges=obj["edges"][:5] + obj["edges"][6:])
    ok &= rejects("missing epsilon pair",
                  lambda o: ref.check_graph_against_cloud(o, cloud, eps, 2), obj, short)

    # a flow with one edge scaled
    alpha, beta = rng.normal(size=(2, g.n, 2))
    lam = g.w_max
    opts = SolveOptions(lam=lam, learning_rate=0.9 * lam / (2 * g.max_degree),
                        max_epochs=200_000, grad_tol=1e-3)
    flow, _, report = solve_regularized(g, alpha, beta, opts)
    bmat = ref.incidence(g.n, 2, g.edge_index, g.sigmas)
    scaled = flow.copy()
    scaled[np.argmax(np.linalg.norm(flow, axis=1))] *= 1.5
    ok &= rejects("scaled flow edge",
                  lambda f: run.check_solve(bmat, g.weights, f, alpha - beta, lam, 1e-3,
                                            report.to_json_dict()), flow, scaled)

    # a kernel basis rotated off the true span
    tau = inputs.random_rotations(rng, g.n, 2)
    pairs = g.edge_index
    sigmas = np.einsum("eba,ebc->eac", tau[pairs[:, 0]], tau[pairs[:, 1]])
    flat = ConnectionGraph(g.n, 2, pairs, g.weights, sigmas)
    kernel = kernel_numeric(flat).vectors
    off = rng.normal(size=kernel[0].shape)
    off -= np.einsum("k,knd->nd", np.einsum("knd,nd->k", kernel, off), kernel)
    off /= np.linalg.norm(off)
    rotated = kernel.copy()
    rotated[0] = np.cos(1e-3) * kernel[0] + np.sin(1e-3) * off
    ok &= rejects("rotated kernel basis",
                  lambda k: run.check_flat_kernel(k, ref.flat_kernel(tau)), kernel, rotated)

    # a distance matrix with one asymmetric entry
    fields = list(rng.normal(size=(3, g.n, 2)))
    dist = distance_matrix(g, fields, opts)
    skew = dist.copy()
    skew[0, 1] *= 1.0 + 1e-12
    ok &= rejects("asymmetric distance entry",
                  lambda dm: run.check_distance_matrix(dm, 3), dist, skew)
    return ok


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
