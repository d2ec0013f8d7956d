#!/usr/bin/env python3
"""Traced in-process replay of a workload, for the per-layer metrics.

``run.py --trace 1`` starts this file as a fresh process with one BLAS
thread.  It sets the workload up as the timed run does, then calls the
public functions each ``conbeck`` command calls, in the same order, with
a span around every call into a layer.  Spans (name, start, end, parent)
are kept in memory and written to ``.perfbench_out`` when the run ends.
The replay writes the same output files as the commands, and the
workload's own checks verify them.

Layers a workload's commands never reach are measured on the probe, a
small copy of the hurricane pipeline (``SMALL["hurricane-800"]``), so
that every traced run reports every layer metric; README.md lists which
metrics come from the probe on each workload.

Usage: ``python3 perfbench/trace.py --workload NAME --seed N``, or
``python3 perfbench/trace.py --rss epsilon|kernel PATH [EPS]``, which
prints the resident memory one call adds in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

from conbeck import io  # noqa: E402
from conbeck.feasibility import (  # noqa: E402
    feasibility_report,
    kernel_numeric,
    project_feasible,
)
from conbeck.graph import is_consistent  # noqa: E402
from conbeck.hurdat import hurdat2_parse, track_to_field  # noqa: E402
from conbeck.manifold import (  # noqa: E402
    epsilon_graph,
    procrustes_connection,
    tangent_frames,
)
from conbeck.solver import SolveOptions, solve_regularized  # noqa: E402
from conbeck.toolkit import distance_matrix, spectral_cluster  # noqa: E402

MB = 1024.0 * 1024.0

#: Per-layer metrics, in the order of BENCHMARK.json.
LAYER_METRICS = {
    "cli.start_s": "s",
    "io.save_graph_s": "s", "io.load_graph_s": "s", "io.graph_mb": "MB",
    "io.save_field_s": "s",
    "graph.validate_s": "s", "graph.incidence_s": "s", "graph.laplacian_s": "s",
    "manifold.epsilon_graph_s": "s", "manifold.epsilon_graph_rss_mb": "MB",
    "manifold.frames_s": "s", "manifold.procrustes_s": "s",
    "hurdat.parse_s": "s", "hurdat.fields_s": "s",
    "feasibility.kernel_s": "s", "feasibility.kernel_rss_mb": "MB",
    "feasibility.kernel_dim": "count", "feasibility.project_s": "s",
    "solver.epochs": "count", "solver.ascent_s": "s", "solver.epoch_ms": "ms",
    "toolkit.distmat_1job_s": "s", "toolkit.distmat_2jobs_s": "s",
    "toolkit.parallel_eff": "ratio", "toolkit.task_mb": "MB", "toolkit.cluster_s": "s",
}


class Tracer:
    """In-memory spans and the counts recorded next to them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def self_times(self):
        """Per span name: the list of each span's duration minus the time
        its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = {}
        for (name, *_), t in zip(self.spans, own):
            out.setdefault(name, []).append(t)
        return out


# ----------------------------------------------- replays of the commands


def load_graph(t, path):
    """The graph as every command loads it, with validation and operator
    assembly as separate spans (their results are cached on the graph)."""
    with t.span("io.load_graph"):
        g = io.load_graph(path, validate=False)
    with t.span("graph.validate"):
        g.require_valid()
    with t.span("graph.incidence"):
        g.incidence_matrix  # noqa: B018
    with t.span("graph.laplacian"):
        g.laplacian_matrix  # noqa: B018
    return g


def buildgraph(t, d, eps):
    with t.span("cmd.buildgraph"):
        with t.span("io.load_points"):
            cloud = io.load_points(d / "points.csv")
        with t.span("manifold.epsilon_graph"):
            skeleton = epsilon_graph(cloud, eps)
        with t.span("manifold.frames"):
            frames = tangent_frames(cloud, skeleton, 2, eps)
        with t.span("manifold.procrustes"):
            g = procrustes_connection(frames, skeleton)
        with t.span("io.save_graph"):
            io.save_graph(d / "graph.json", g)
        with t.span("io.save_frames"):
            io.save_frames(d / "frames.json", frames)


def hurdat(t, d):
    with t.span("cmd.hurdat"):
        with t.span("hurdat.parse"):
            tracks, _ = hurdat2_parse((d / "hurdat2.txt").read_text(encoding="utf-8"))
        with t.span("io.load_points"):
            cloud = io.load_points(d / "points.csv")
        with t.span("io.load_frames"):
            frames = io.load_frames(d / "frames.json")
        (d / "fields").mkdir(exist_ok=True)
        for track in tracks:
            with t.span("hurdat.fields"):
                field = track_to_field(track, frames, cloud)
            with t.span("io.save_field"):
                io.save_field(d / "fields" / f"{track.id}.json", field)


def distmat(t, d, opts):
    with t.span("cmd.distmat"):
        g = load_graph(t, d / "graph.json")
        fields = []
        for path in sorted((d / "fields").glob("*.json")):
            with t.span("io.load_field"):
                fields.append(io.load_field(path))
        for k, field in enumerate(fields):
            with t.span("feasibility.project"):
                fields[k] = project_feasible(g, field)
        record_kernel(t, g)
        with t.span("toolkit.distmat_1job"):
            one = distance_matrix(g, fields, opts, jobs=1, require_convergence=False)
        with t.span("toolkit.distmat_2jobs"):
            two = distance_matrix(g, fields, opts, jobs=2, require_convergence=False)
        run.require(np.array_equal(one, two), "distance_matrix differs between 1 and 2 jobs")
        t.counts["toolkit.task_mb"] = len(pickle.dumps((g, fields[0], fields[1], opts))) / MB
        with t.span("io.save_matrix"):
            io.save_matrix(d / "D.csv", two)
        record_solve(t, g, fields[0], fields[1], opts)


def cluster(t, d):
    with t.span("cmd.cluster"):
        with t.span("io.load_matrix"):
            dist = io.load_matrix(d / "D.csv")
        with t.span("toolkit.cluster"):
            labels = spectral_cluster(np.exp(-0.1 * dist), 2, seed=0).labels
        with t.span("io.save_labels"):
            io.save_labels(d / "labels.csv", labels)


def solve(t, d, opts):
    with t.span("cmd.solve"):
        g = load_graph(t, d / "graph.json")
        with t.span("io.load_field"):
            alpha = io.load_field(d / "alpha.json")
            beta = io.load_field(d / "beta.json")
        record_kernel(t, g)
        flow, report = record_solve(t, g, alpha, beta, opts)
        with t.span("io.save_flow"):
            io.save_flow(d / "flow.json", flow)
            io.save_report(d / "report.json", report)


def record_kernel(t, g):
    with t.span("feasibility.kernel"):
        basis = kernel_numeric(g)
    t.counts["feasibility.kernel_dim"] = basis.dimension
    return basis


def record_solve(t, g, alpha, beta, opts):
    """solve_regularized; its kernel computation is measured apart by
    record_kernel on the same graph, and the ascent is the difference."""
    with t.span("solver.solve"):
        flow, _, report = solve_regularized(g, alpha, beta, opts)
    t.counts["solver.epochs"] = report.epochs_used
    return flow, report


def verdicts(t, d, betas):
    """check, then one feasible verdict per beta; returns the stdout each
    command would print, for the workload's checks."""
    out = []
    with t.span("cmd.check"):
        g = load_graph(t, d / "graph.json")
        with t.span("graph.consistent"):
            consistent = is_consistent(g)
        basis = record_kernel(t, g)
        with t.span("io.save_kernel"):
            with open(d / "kernel.json", "w", encoding="utf-8") as fh:
                json.dump({"n": g.n, "d": g.d, "dimension": basis.dimension,
                           "vectors": [v.tolist() for v in basis.vectors]}, fh)
        out.append(f"{'consistent' if consistent else 'inconsistent'}\n"
                   f"kernel dimension: {basis.dimension}\n")
    for beta in betas:
        with t.span("cmd.feasible"):
            g = load_graph(t, d / "graph.json")
            with t.span("io.load_field"):
                a, b = io.load_field(d / "alpha.json"), io.load_field(d / beta)
            with t.span("feasibility.report"):
                feasible, violations, _ = feasibility_report(g, a, b)
        out.append("feasible\n" if feasible else "infeasible\n" + "".join(
            f"kernel vector {k}: <alpha - beta, f_{k}> = {ip!r}\n" for k, ip in violations))
    return out


def replay(work, t):
    """One round of ``work`` through the public functions; returns the
    results its check takes."""
    d, spec = work.dir, work.spec
    if isinstance(work, run.Flat):
        return verdicts(t, d, ["beta_f.json", "beta_i.json"])
    if isinstance(work, run.Ingest):
        buildgraph(t, d, spec["eps"])
        hurdat(t, d)
        return None
    opts = SolveOptions(lam=work.lam, learning_rate=work.lr, max_epochs=1_000_000,
                        grad_tol=spec["tol"])
    if isinstance(work, run.Solve):
        solve(t, d, opts)
        return None
    buildgraph(t, d, spec["eps"])
    hurdat(t, d)
    distmat(t, d, opts)
    cluster(t, d)
    return None


# ----------------------------------------------------------- the metrics


def layer_metrics(t, graph_path):
    """Per-layer metrics of one replay; layers it did not reach are absent."""
    own = t.self_times()
    total = {name: sum(v) for name, v in own.items()}
    out = {}
    for name in ("io.save_graph", "io.load_graph", "io.save_field", "graph.validate",
                 "graph.incidence", "graph.laplacian", "manifold.epsilon_graph",
                 "manifold.frames", "manifold.procrustes", "hurdat.parse", "hurdat.fields",
                 "toolkit.distmat_1job", "toolkit.distmat_2jobs", "toolkit.cluster"):
        if name in total:
            out[f"{name}_s"] = total[name]
    for name in ("feasibility.kernel", "feasibility.project"):
        if name in own:
            out[f"{name}_s"] = statistics.median(own[name])
    out.update(t.counts)
    if "solver.solve" in own:
        ascent = own["solver.solve"][-1] - own["feasibility.kernel"][-1]
        out["solver.ascent_s"] = ascent
        out["solver.epoch_ms"] = 1e3 * ascent / max(t.counts["solver.epochs"], 1)
    if "toolkit.distmat_2jobs" in total:
        out["toolkit.parallel_eff"] = total["toolkit.distmat_1job"] / (
            2.0 * total["toolkit.distmat_2jobs"])
    if graph_path.is_file():
        out["io.graph_mb"] = graph_path.stat().st_size / MB
    return out


def fresh_rss(kind, path, eps=None):
    """Resident memory added by one epsilon_graph or kernel_numeric call,
    measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__)), "--rss", kind, str(path)]
    if eps is not None:
        cmd.append(repr(eps))
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def status_kb(field):
    """A field of /proc/self/status, in kB.  VmHWM is the peak of this
    process's own address space, unlike ru_maxrss, which after exec also
    counts the address space of the process that started it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))


def rss_probe(kind, path, eps):
    before = status_kb("VmRSS")
    if kind == "epsilon":
        epsilon_graph(io.load_points(path), float(eps))
    else:
        kernel_numeric(io.load_graph(path))
    print((status_kb("VmHWM") - before) / 1024.0)


def cli_start(repeats):
    """Median wall time of fresh ``conbeck --help`` processes."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "conbeck", "--help"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(run.SRC)),
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced(work):
    """Replay ``work`` once under a tracer, check the outputs it wrote and
    return the tracer, its layer metrics and the replay's wall time."""
    t = Tracer()
    start = time.perf_counter()
    results = replay(work, t)
    replay_s = time.perf_counter() - start
    work.check(results)
    graph = work.dir / "graph.json"
    metrics = layer_metrics(t, graph)
    metrics["manifold.epsilon_graph_rss_mb"] = fresh_rss(
        "epsilon", work.dir / "points.csv", work.spec["eps"])
    if "feasibility.kernel_s" in metrics:
        metrics["feasibility.kernel_rss_mb"] = fresh_rss("kernel", graph)
    return t, metrics, replay_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--rss", nargs="+", metavar=("KIND", "PATH"))
    args = parser.parse_args(argv)
    if args.rss:
        rss_probe(*args.rss, *([None] * (3 - len(args.rss))))
        return 0
    specs = run.SMALL if args.small else run.SPECS
    workdir = run.fresh_dir(f"trace-{args.workload}-{args.seed}")
    probedir = run.fresh_dir(f"probe-{args.workload}-{args.seed}")
    try:
        work = run.WORKLOADS[args.workload](specs[args.workload], args.seed, workdir,
                                            run.Cli(workdir))
        work.setup()
        t, metrics, replay_s = traced(work)
        metrics["cli.start_s"] = cli_start(1 if args.small else 3)
        spans = {args.workload: t.spans}
        missing = [name for name in LAYER_METRICS if name not in metrics]
        if missing:
            probe = run.Hurricane(run.SMALL["hurricane-800"], args.seed, probedir,
                                  run.Cli(probedir))
            probe.setup()
            probe_t, probe_metrics, _ = traced(probe)
            spans["probe"] = probe_t.spans
            metrics.update({name: probe_metrics[name] for name in missing})
    finally:
        for path in (workdir, probedir):
            run.shutil.rmtree(path, ignore_errors=True)
    summary = {name: round(sum(v), 6) for name, v in t.self_times().items()}
    with open(run.OUT / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"self_s": summary, "replay_s": replay_s,
                   "probe_metrics": missing, "spans": spans}, fh)
    print(f"{args.workload}: replay {replay_s:.3f} s, self times {summary}, "
          f"from the probe: {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": len(t.spans),
        "failed": 0,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in LAYER_METRICS.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        sys.exit(0)
