#!/usr/bin/env python3
"""Benchmark of the ``conbeck`` command line on four checked workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload solve-450 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --small    # every workload at small size, then the self-test

With ``--trace 0`` the workload's commands run as ``python -m conbeck``
subprocesses, one after another (a closed loop with one client), in whole
rounds until ``--seconds`` of command time is used; every output is
checked against the independent references in ``reference.py``.  With
``--trace 1`` the same workload is replayed in-process through the public
functions the commands call (see ``trace.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from reference import CheckFailed, require  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
#: set-up runs 3 times before the first round; a set-up shorter than
#: SETUP_GAP_S runs again between rounds, for up to SETUP_GAP_S each time
#: and 25 samples in all, so that its samples spread over the whole run
#: rather than one burst of the machine's load.  setup_s is the median.
SETUP_REPEATS = (3, 25)
SETUP_GAP_S = 0.3


class CommandFailed(RuntimeError):
    """A command exited with another code than the one its input calls for."""


class Cli:
    """Runs ``python -m conbeck`` on the checkout's sources, through
    ``launch.py``, which times each command and takes the largest resident
    set of any process it started, pool workers included."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.peak_rss_mb = 0.0

    def run(self, args, expect=0, blas_threads=NPROC):
        threads = str(blas_threads)
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        out_path, err_path = self.workdir / "cmd.out", self.workdir / "cmd.err"
        report = self.workdir / "cmd.json"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            subprocess.run(
                [sys.executable, "-S", str(HERE / "launch.py"), str(report),
                 sys.executable, "-m", "conbeck", *map(str, args)],
                cwd=self.workdir, env=env, stdout=out, stderr=err, check=False,
            )
        measured = json.loads(report.read_text())
        self.peak_rss_mb = max(self.peak_rss_mb, measured["peak_rss_mb"])
        if measured["code"] != expect:
            raise CommandFailed(
                f"conbeck {args[0]} exited {measured['code']}, expected {expect}: "
                f"{err_path.read_text()[-800:]}"
            )
        return out_path.read_text(), measured["wall_s"]


def digest(paths, extra=""):
    h = hashlib.sha256(extra.encode())
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------- workloads


class Workload:
    """One set of generated inputs and the commands a user runs on them.

    ``setup`` writes the inputs, ``commands`` lists one round as
    ``(args, expected exit code, BLAS threads)``, ``check`` verifies the
    outputs of a round and ``outputs`` names the files that must repeat
    byte for byte in every later round.
    """

    name = ""

    def __init__(self, spec, seed, workdir, cli):
        self.spec, self.seed, self.dir, self.cli = spec, seed, workdir, cli

    def write_storms(self):
        """Mesh points and a HURDAT2 archive."""
        s = self.spec
        self.cloud = inputs.sphere_patch(s["n_lat"], s["n_lon"])
        inputs.write_points(self.dir / "points.csv", self.cloud)
        self.tracks = inputs.storm_tracks(
            np.random.default_rng(self.seed), s["storms"], s["fixes"], s["n_lat"], s["n_lon"],
            s.get("shift_deg", (1.5, 2.0)),
        )
        (self.dir / "hurdat2.txt").write_text(inputs.hurdat2_text(self.tracks))

    def solver_step(self):
        """lambda = w_max and the stable step 0.9 * lambda / (2 * max
        degree), as the program documents them, from the benchmark's own
        epsilon pairs."""
        pairs, dist = ref.epsilon_pairs(self.cloud, self.spec["eps"])
        degree = np.bincount(pairs.reshape(-1), minlength=self.cloud.shape[0])
        self.lam = float((1.0 / dist).max())
        self.lr = 0.9 * self.lam / (2.0 * int(degree.max()))

    def ingest_commands(self):
        """buildgraph, then hurdat on its frames."""
        return [
            (["buildgraph", "points.csv", "--eps", repr(self.spec["eps"]), "--dim", "2",
              "-o", "graph.json", "--frames", "frames.json"], 0, NPROC),
            (["hurdat", "hurdat2.txt", "--mesh", "points.csv",
              "--frames", "frames.json", "-o", "fields"], 0, NPROC),
        ]


class Ingest(Workload):
    """buildgraph then hurdat on a fine mesh with hundreds of storms."""

    name = "ingest-3200"

    def setup(self):
        self.write_storms()

    def commands(self):
        return self.ingest_commands()

    def outputs(self):
        return [self.dir / "graph.json", self.dir / "frames.json",
                *sorted((self.dir / "fields").glob("*.json"))]

    def check(self, results=None):
        ref.check_graph_against_cloud(
            inputs.read_json(self.dir / "graph.json"), self.cloud, self.spec["eps"], 2
        )
        ref.check_frames(
            inputs.read_json(self.dir / "frames.json"), self.cloud, 2, self.spec["eps"]
        )
        check_storm_fields(self.dir / "fields", self.cloud, self.tracks)


def check_storm_fields(fields_dir, cloud, tracks):
    names = sorted(p.stem for p in fields_dir.glob("*.json"))
    require(names == sorted(t[0] for t in tracks), "hurdat wrote another set of storms")
    for storm_id, _, lats, lons in tracks:
        obj = inputs.read_json(fields_dir / f"{storm_id}.json")
        values = np.array(obj["values"], dtype=float)
        require(values.shape == (cloud.shape[0], 2), f"{storm_id}: field has shape {values.shape}")
        ref.check_field_support(values, cloud, lats, lons)


class Hurricane(Workload):
    """The full pipeline: buildgraph, hurdat, distmat with kernel
    projection on two workers, cluster."""

    name = "hurricane-800"

    def setup(self):
        self.write_storms()
        self.solver_step()
        self.reference = None

    def commands(self):
        jobs = min(2, NPROC)
        return self.ingest_commands() + [
            # one BLAS thread per worker: two workers never exceed two cores
            (["distmat", "graph.json", "fields", "--lambda", repr(self.lam),
              "--lr", repr(self.lr), "--grad-tol", repr(self.spec["tol"]),
              "--epochs", "1000000", "--project-kernel", "--jobs", str(jobs),
              "-o", "D.csv"], 0, 1),
            (["cluster", "D.csv", "--k", "2", "-o", "labels.csv"], 0, NPROC),
        ]

    def outputs(self):
        return [self.dir / "graph.json", self.dir / "D.csv", self.dir / "labels.csv"]

    def check(self, results=None):
        obj = inputs.read_json(self.dir / "graph.json")
        n, d, pairs, weights, sigmas = ref.check_graph_against_cloud(
            obj, self.cloud, self.spec["eps"], 2
        )
        check_storm_fields(self.dir / "fields", self.cloud, self.tracks)
        dist = np.loadtxt(self.dir / "D.csv", delimiter=",", ndmin=2)
        check_distance_matrix(dist, len(self.tracks))
        labels = np.loadtxt(self.dir / "labels.csv", dtype=int, ndmin=1)
        require(sorted(set(labels.tolist())) == [0, 1], f"labels {labels} do not cover 2 clusters")
        if self.reference is None:
            self.reference = self.sampled_optima(n, d, pairs, weights, sigmas)
        for (a, b), optimum in self.reference.items():
            err = (dist[a, b] - optimum) / optimum
            require(
                abs(err) <= self.spec["accuracy"],
                f"D[{a},{b}] = {dist[a, b]!r} is {err:+.1%} from the optimum {optimum!r}",
            )
            print(f"D[{a},{b}] {dist[a, b]:.6g} vs optimum {optimum:.6g} ({err:+.2%})", file=sys.stderr)

    def sampled_optima(self, n, d, pairs, weights, sigmas):
        """L-BFGS optima of the sampled entries, on the benchmark's own
        operator and its own near-kernel projection of the fields."""
        bmat = ref.incidence(n, d, pairs, sigmas)
        ids = sorted(t[0] for t in self.tracks)
        fields = [np.array(inputs.read_json(self.dir / "fields" / f"{i}.json")["values"])
                  for i in ids]
        projected = ref.near_kernel_projection(bmat, weights, d, np.stack(fields))
        optima = {}
        for a, b in self.spec["sampled"]:
            value, _, _ = ref.dual_optimum(bmat, weights, projected[a] - projected[b], self.lam, d)
            optima[(a, b)] = value
        return optima


def check_distance_matrix(dist, k):
    require(dist.shape == (k, k), f"D has shape {dist.shape}")
    require(np.array_equal(dist, dist.T), "D is not symmetric")
    require(np.all(np.diag(dist) == 0), "D has a nonzero diagonal")
    off = dist[~np.eye(k, dtype=bool)]
    require(np.all(np.isfinite(off) & (off > 0)), "D has an entry that is not finite and positive")


class Solve(Workload):
    """One tight solve between two storm fields: the ascent dominates."""

    name = "solve-450"

    def setup(self):
        self.write_storms()
        self.solver_step()
        for args, expect, threads in self.ingest_commands():
            self.cli.run(args, expect, threads)
        a, b = (self.tracks[i][0] for i in self.spec["pair"])
        shutil.copyfile(self.dir / "fields" / f"{a}.json", self.dir / "alpha.json")
        shutil.copyfile(self.dir / "fields" / f"{b}.json", self.dir / "beta.json")
        self.reference = None

    def commands(self):
        return [
            (["solve", "graph.json", "alpha.json", "beta.json", "--lambda", repr(self.lam),
              "--lr", repr(self.lr), "--grad-tol", repr(self.spec["tol"]),
              "--epochs", "1000000", "-o", "flow.json", "--report", "report.json"], 0, NPROC),
        ]

    def outputs(self):
        return [self.dir / "flow.json", self.dir / "report.json"]

    def check(self, results=None):
        obj = inputs.read_json(self.dir / "graph.json")
        n, d, pairs, weights, sigmas = ref.check_graph_against_cloud(
            obj, self.cloud, self.spec["eps"], 2
        )
        bmat = ref.incidence(n, d, pairs, sigmas)
        alpha = np.array(inputs.read_json(self.dir / "alpha.json")["values"])
        beta = np.array(inputs.read_json(self.dir / "beta.json")["values"])
        flow = np.array(inputs.read_json(self.dir / "flow.json")["values"])
        report = inputs.read_json(self.dir / "report.json")
        c = alpha - beta
        check_solve(bmat, weights, flow, c, self.lam, self.spec["tol"], report)
        if self.reference is None:
            self.reference, _, _ = ref.dual_optimum(bmat, weights, c, self.lam, d)
        optimum = self.reference
        require(report["dual_value"] <= optimum + 1e-9 * abs(optimum),
                f"dual value {report['dual_value']!r} exceeds the optimum {optimum!r}")
        err = (report["primal_cost"] - optimum) / optimum
        require(abs(err) <= self.spec["accuracy"],
                f"cost {report['primal_cost']!r} is {err:+.1%} from the optimum {optimum!r}")
        print(f"solve: cost {report['primal_cost']:.6g} vs optimum {optimum:.6g} "
              f"({err:+.2%}), {report['epochs_used']} epochs", file=sys.stderr)


def check_solve(bmat, weights, flow, c, lam, tol, report):
    """Residual, cost and certificates of a solve, recomputed."""
    cost, residual = ref.flow_certificates(bmat, weights, flow, c, lam)
    require(report["converged"] is True, "the solve did not converge")
    require(residual <= tol * (1 + 1e-9), f"residual {residual!r} exceeds the tolerance {tol!r}")
    require(abs(residual - report["residual"]) <= 1e-9 * max(tol, residual),
            f"reported residual {report['residual']!r} is not |c - BJ| = {residual!r}")
    require(abs(cost - report["primal_cost"]) <= 1e-9 * abs(cost),
            f"reported cost {report['primal_cost']!r} is not {cost!r}")
    require(abs(report["gap"] - (report["primal_cost"] - report["dual_value"]))
            <= 1e-9 * abs(report["primal_cost"]), "reported gap is not cost - dual")


class Flat(Workload):
    """check and feasible verdicts on a flat connection sigma_ij = tau_i^T tau_j."""

    name = "flat-450"

    def setup(self):
        s = self.spec
        cloud = inputs.sphere_patch(s["n_lat"], s["n_lon"])
        n, d = cloud.shape[0], 2
        inputs.write_points(self.dir / "points.csv", cloud)
        pairs, dist = ref.epsilon_pairs(cloud, s["eps"])
        rng = np.random.default_rng(self.seed)
        self.tau = inputs.random_rotations(rng, n, d)
        sigmas = np.einsum("eba,ebc->eac", self.tau[pairs[:, 0]], self.tau[pairs[:, 1]])
        inputs.write_graph(self.dir / "graph.json", n, d, pairs, 1.0 / dist, sigmas)
        self.basis = basis = ref.flat_kernel(self.tau)
        alpha = rng.normal(size=(n, d))
        noise = rng.normal(size=(2, n, d))
        inside = np.einsum("knd,nd->k", basis, noise[0])
        feasible = noise[0] - np.einsum("k,knd->nd", inside, basis)
        # infeasible: a kernel component of norm comparable to the field
        infeasible = noise[1] + 3.0 * np.einsum("k,knd->nd", rng.normal(size=d), basis)
        inputs.write_field(self.dir / "alpha.json", alpha)
        inputs.write_field(self.dir / "beta_f.json", alpha + feasible)
        inputs.write_field(self.dir / "beta_i.json", alpha + infeasible)
        self.violation = float(np.linalg.norm(np.einsum("knd,nd->k", basis, infeasible)))

    def commands(self):
        return [
            (["check", "graph.json", "--kernel-out", "kernel.json"], 0, NPROC),
            (["feasible", "graph.json", "alpha.json", "beta_f.json"], 0, NPROC),
            (["feasible", "graph.json", "alpha.json", "beta_i.json"], 3, NPROC),
        ]

    def outputs(self):
        return [self.dir / "kernel.json"]

    def check(self, results):
        """``results`` holds the stdout of each command of the round."""
        check_out, feas_out, infeas_out = results
        require("\nconsistent\n" in "\n" + check_out, "check does not report consistent")
        require("kernel dimension: 2" in check_out, "check does not report kernel dimension 2")
        kernel = np.array(inputs.read_json(self.dir / "kernel.json")["vectors"], dtype=float)
        check_flat_kernel(kernel, self.basis)
        require(feas_out.strip() == "feasible", "the feasible pair is not reported feasible")
        lines = infeas_out.strip().splitlines()
        require(lines[0] == "infeasible", "the infeasible pair is not reported infeasible")
        comps = [float(line.rsplit("=", 1)[1]) for line in lines[1:]]
        require(abs(np.linalg.norm(comps) - self.violation) <= 1e-8 * self.violation,
                f"printed components have norm {np.linalg.norm(comps)!r}, "
                f"expected {self.violation!r}")


def check_flat_kernel(kernel, basis):
    require(kernel.shape == basis.shape, f"kernel has shape {kernel.shape}, expected {basis.shape}")
    cosines = ref.principal_cosines(kernel, basis)
    require(cosines.min() >= 1 - 1e-8, f"kernel is off the flat span: cosines {cosines}")


WORKLOADS = {w.name: w for w in (Ingest, Hurricane, Solve, Flat)}

#: Sizes of each workload, and of the small mode that runs every check
#: on all four in well under a minute.  ``tol`` is the absolute residual
#: tolerance |alpha - beta - B J|; ``accuracy`` is the largest relative
#: distance of a cost from the L-BFGS optimum that the tolerance allows,
#: as measured on the fixed-step ascent (README, "Solver settings").
SPECS = {
    "ingest-3200": {"n_lat": 40, "n_lon": 80, "eps": 0.1, "storms": 150, "fixes": 16},
    "hurricane-800": {"n_lat": 20, "n_lon": 40, "eps": 0.2, "storms": 3, "fixes": 10,
                      "tol": 0.15, "accuracy": 0.35, "sampled": [(0, 1)]},
    "solve-450": {"n_lat": 15, "n_lon": 30, "eps": 0.2, "storms": 4, "fixes": 10,
                  "pair": (1, 2), "tol": 0.105, "accuracy": 0.65},
    "flat-450": {"n_lat": 15, "n_lon": 30, "eps": 0.12},
}
SMALL = {
    "ingest-3200": {"n_lat": 12, "n_lon": 24, "eps": 0.3, "storms": 12, "fixes": 8},
    "hurricane-800": {"n_lat": 8, "n_lon": 16, "eps": 0.45, "storms": 3, "fixes": 6,
                      "shift_deg": (9.0, 10.0), "tol": 0.15, "accuracy": 0.3,
                      "sampled": [(0, 1)]},
    "solve-450": {"n_lat": 8, "n_lon": 16, "eps": 0.45, "storms": 4, "fixes": 6,
                  "pair": (1, 2), "tol": 0.1, "accuracy": 0.75},
    "flat-450": {"n_lat": 8, "n_lon": 16, "eps": 0.3},
}


# ------------------------------------------------------------------ runs


def timed_run(workload_cls, spec, seed, seconds, workdir, setup_repeats=SETUP_REPEATS):
    """Set up several times, then run whole rounds for ``seconds``."""
    cli = Cli(workdir)
    setups = []

    def set_up():
        start = time.perf_counter()
        work = workload_cls(spec, seed, workdir, cli)
        work.setup()
        setups.append(time.perf_counter() - start)
        return work

    def more_setups():
        """Between rounds: rewrite the same inputs while it stays cheap."""
        gap = 0.0
        while (len(setups) < setup_repeats[1] and gap < SETUP_GAP_S
               and statistics.median(setups) < SETUP_GAP_S):
            set_up()
            gap += setups[-1]

    while len(setups) < setup_repeats[0]:
        work = set_up()
    rounds, attempted, failed, correct = [], 0, 0, True
    expected = None
    while not rounds or sum(rounds) < seconds:
        stdouts, walls = [], []
        commands = work.commands()
        try:
            for args, expect, threads in commands:
                text, wall = cli.run(args, expect, threads)
                stdouts.append(text)
                walls.append(wall)
        except CommandFailed as exc:
            print(f"{work.name}: {exc}", file=sys.stderr)
            attempted += len(commands)
            failed += len(commands) - len(walls)
            rounds.append(sum(walls) or float(seconds))
            continue
        attempted += len(commands)
        rounds.append(sum(walls))
        more_setups()
        try:
            if expected is None:
                work.check(stdouts)
                expected = digest(work.outputs(), "".join(stdouts))
            else:
                require(digest(work.outputs(), "".join(stdouts)) == expected,
                        "a round's outputs differ from the first round's")
        except CheckFailed as exc:
            print(f"{work.name}: check failed: {exc}", file=sys.stderr)
            correct = False
            break
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "round_s": {"value": statistics.median(rounds), "unit": "s"},
        "peak_rss_mb": {"value": cli.peak_rss_mb, "unit": "MB"},
    }
    print(f"{work.name}: {len(rounds)} rounds {[round(r, 3) for r in rounds]}, "
          f"setups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(name, seed, small=False):
    """Run ``trace.py`` in a fresh process with one BLAS thread and return
    its result line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "trace.py"), "--workload", name, "--seed", str(seed)]
    out = subprocess.run(cmd + (["--small"] if small else []), env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def small_mode():
    """Every workload at small size with every check, the traced replay of
    the hurricane pipeline (which reaches every layer), then the self-test."""
    import selftest

    ok = True
    for name, cls in WORKLOADS.items():
        workdir = fresh_dir(f"small-{name}")
        try:
            result = timed_run(cls, SMALL[name], 1, 0.0, workdir, (1, 1))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok &= report_small(name, result)
    ok &= report_small("hurricane-800 traced", traced_run("hurricane-800", 1, small=True))
    ok &= selftest.main()
    return 0 if ok else 1


def report_small(label, result):
    good = result["correct"] and result["failed"] == 0
    print(f"{label}: {'ok' if good else 'FAILED'} {json.dumps(result['metrics'])}")
    return good


def fresh_dir(tag):
    path = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "conbeck" / "__main__.py").is_file():
        print(f"error: no conbeck sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if args.small:
        return small_mode()
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        workdir = fresh_dir(f"{args.workload}-{args.seed}")
        try:
            result = timed_run(WORKLOADS[args.workload], SPECS[args.workload], args.seed,
                               args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
