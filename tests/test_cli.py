"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
import os
import pickle
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from conbeck import io
from conbeck.cli import build_parser, main
from conbeck.feasibility import kernel_numeric, project_feasible
from conbeck.graph import ConnectionGraph
from conbeck.manifold import epsilon_graph, sample_sphere_patch, tangent_frames
from conbeck.solver import SolveOptions, solve_regularized, stable_learning_rate
from conbeck.toolkit import distance_matrix, pseudo_dirac

from conftest import (
    curved_sphere_patch,
    flat_sphere_patch,
    make_path_graph,
    near_flat_sphere_patch,
)


@pytest.fixture
def diamond_files(tmp_path, diamond_problem):
    g, alpha, beta, _ = diamond_problem
    paths = {
        "graph": tmp_path / "graph.json",
        "alpha": tmp_path / "alpha.json",
        "beta": tmp_path / "beta.json",
    }
    io.save_graph(paths["graph"], g)
    io.save_field(paths["alpha"], alpha)
    io.save_field(paths["beta"], beta)
    return tmp_path, paths


@pytest.fixture
def sign_path_files(tmp_path, sign_path):
    gp = tmp_path / "graph.json"
    io.save_graph(gp, sign_path)
    a = tmp_path / "alpha.json"
    b = tmp_path / "beta.json"
    io.save_field(a, pseudo_dirac(3, 1, 0, 0))
    io.save_field(b, pseudo_dirac(3, 1, 2, 0))
    return tmp_path, gp, a, b


# ----------------------------------------------------------------- usage / 1


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_solver_flag_defaults_are_the_solve_options_defaults():
    defaults = SolveOptions()
    for argv in (
        ["solve", "g.json", "a.json", "b.json", "--lambda", "1", "-o", "f.json"],
        ["distmat", "g.json", "fields", "--lambda", "1", "-o", "D.csv"],
    ):
        args = build_parser().parse_args(argv)
        assert args.lr == defaults.learning_rate
        assert args.epochs == defaults.max_epochs
        assert args.grad_tol == defaults.grad_tol


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- check


def test_check_tree_reports_consistent(tmp_path, capsys):
    g = make_path_graph(4, 2)
    gp = tmp_path / "g.json"
    io.save_graph(gp, g)
    kout = tmp_path / "kernel.json"
    assert main(["check", str(gp), "--kernel-out", str(kout)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "consistent" in out and "inconsistent" not in out
    assert "kernel dimension: 2" in out
    assert kout.exists()


def test_check_invalid_graph_exits_2(tmp_path, capsys):
    gp = tmp_path / "g.json"
    gp.write_text(
        '{"n": 2, "d": 1, "edges": [{"i": 0, "j": 1, "w": -1.0, "sigma": [1.0]}]}'
    )
    assert main(["check", str(gp)]) == 2
    assert "invalid" in capsys.readouterr().out


def test_check_inconsistent_graph(diamond_files, capsys):
    _, paths = diamond_files
    assert main(["check", str(paths["graph"])]) == 0
    out = capsys.readouterr().out
    assert "inconsistent" in out
    assert "kernel dimension: 0" in out


def test_check_malformed_json_exits_2(tmp_path, capsys):
    gp = tmp_path / "g.json"
    gp.write_text("{broken")
    assert main(["check", str(gp)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"n": 100000000000000000000, "d": 1, "edges": []}',
         "graph: key 'n' must be below 2**63, got 100000000000000000000"),
        ('{"n": 2, "d": 1, "edges": [{"i": 0, "j": 100000000000000000000000, "w": 1.0, '
         '"sigma": [1.0]}]}',
         "graph: edge 0: key 'j' must be below 2**63, got 100000000000000000000000"),
    ],
    ids=["n", "edge-endpoint"],
)
def test_check_refuses_an_integer_past_64_bits(tmp_path, capsys, doc, message):
    # these raised OverflowError with a traceback and exit 1
    gp = tmp_path / "g.json"
    gp.write_text(doc)
    assert main(["check", str(gp)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


#: Address space of a capped ``conbeck check``: room for the interpreter and
#: NumPy, none for a list or array with one entry per vertex of a huge graph.
CHECK_ADDRESS_SPACE = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHECK_ADDRESS_SPACE, CHECK_ADDRESS_SPACE))


@pytest.mark.parametrize(
    "n, edges, first",
    [
        (10**10, [(0, 1)], 2),
        # the pair code lo * n + hi wrapped past 2**63 and made edge 1 a
        # duplicate of edge 0
        (2**33, [(0, 2**31 + 5), (2**31, 2**31 + 5)], 1),
    ],
    ids=["few-edges", "pair-code-past-64-bits"],
)
def test_check_on_a_huge_vertex_count_allocates_for_the_edges_only(tmp_path, n, edges, first):
    # a few-byte document must not make validation allocate O(n); the cap
    # turns such an allocation into a quick failure
    gp = tmp_path / "g.json"
    edge_list = [{"i": i, "j": j, "w": 1.0, "sigma": [1.0]} for i, j in edges]
    gp.write_text(json.dumps({"n": n, "d": 1, "edges": edge_list}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "conbeck", "check", str(gp)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    unreachable = n - len(edges) - 1
    assert proc.stdout.splitlines() == [
        f"graph: n={n} d=1 m={len(edges)}",
        "invalid:",
        f"  graph is disconnected ({unreachable} vertices unreachable from 0, e.g. vertex {first})",
    ]


# ------------------------------------------------------------------ feasible


def test_feasible_exit_codes(sign_path_files, capsys):
    tmp, gp, a, b = sign_path_files
    assert main(["feasible", str(gp), str(a), str(b)]) == 3
    out = capsys.readouterr().out
    assert "infeasible" in out
    assert "kernel vector 0" in out
    # negated endpoint is feasible
    b2 = tmp / "beta2.json"
    io.save_field(b2, -pseudo_dirac(3, 1, 2, 0))
    assert main(["feasible", str(gp), str(a), str(b2)]) == 0
    assert "feasible" in capsys.readouterr().out


# -------------------------------------------------------------------- switch


def test_switch_writes_graph_and_tau(sign_path_files, capsys):
    tmp, gp, _, _ = sign_path_files
    out = tmp / "switched.json"
    assert main(["switch", str(gp), "-o", str(out)]) == 0
    capsys.readouterr()
    switched = io.load_graph(out)
    # switching by tree products makes every tree edge trivial
    assert np.abs(switched.sigmas - 1.0).max() <= 1e-12
    tau = io.load_tau(tmp / "switched.tau.json")
    assert tau.shape == (3, 1, 1)
    assert np.abs(np.abs(tau) - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "{graph}", "--tol", "nan", "--kernel-out", "{out}"], 1),
        (["feasible", "{graph}", "{alpha}", "{beta}", "--tol", "nan"], 1),
        (["feasible", "{graph}", "{alpha}", "{beta}", "--tol", "-0.5"], 1),
        (["buildgraph", "{points}", "--eps", "0.5", "--dim", "0", "-o", "{out}"], 1),
        (["buildgraph", "{points}", "--eps=-1", "--dim", "2", "-o", "{out}"], 1),
        (["buildgraph", "{points}", "--eps", "nan", "--dim", "2", "-o", "{out}"], 1),
        (["buildgraph", "{points}", "--eps", "inf", "--dim", "2", "-o", "{out}"], 1),
        (["buildgraph", "{points}", "--eps", "0", "--dim", "2", "-o", "{out}"], 1),
        (["interp", "{graph}", "{alpha}", "{flow}", "--steps", "-1", "-o", "{out}"], 1),
        (["solve", "{graph}", "{alpha}", "{beta}", "--lambda", "inf", "-o", "{out}"], 2),
        (["solve", "{graph}", "{alpha}", "{beta}", "--lambda", "0", "-o", "{out}"], 2),
        (["solve", "{graph}", "{alpha}", "{beta}", "--lambda=-1", "-o", "{out}"], 2),
        (["distmat", "{graph}", "{fields}", "--lambda", "0", "-o", "{out}"], 2),
        (["distmat", "{graph}", "{fields}", "--lambda=-1", "-o", "{out}"], 2),
        (["switch", "{graph}", "--root", "99", "-o", "{out}"], 2),
        (["switch", "{graph}", "--root", "-1", "-o", "{out}"], 2),
        (["cluster", "{points}", "--k", "0", "-o", "{out}"], 1),
        (["cluster", "{points}", "--k=-3", "-o", "{out}"], 1),
        (["cluster", "{points}", "--k", "4", "-o", "{out}"], 2),
        (["solve", "{graph}", "{alpha}", "{beta}", "--lambda", "1", "-o", "{out}",
          "--active-edges", "nan"], 1),
        (["solve", "{graph}", "{alpha}", "{beta}", "--lambda", "1", "-o", "{out}",
          "--active-edges=-1"], 1),
        (["solve", "{graph}", "{alpha}", "{beta}", "--lambda", "1", "-o", "{out}",
          "--active-edges", "inf"], 1),
    ],
    ids=["check-tol-nan", "feasible-tol-nan", "feasible-tol-negative", "buildgraph-dim-0",
         "buildgraph-eps-negative", "buildgraph-eps-nan", "buildgraph-eps-inf", "buildgraph-eps-0",
         "interp-steps-negative", "solve-lambda-inf", "solve-lambda-0", "solve-lambda-negative",
         "distmat-lambda-0", "distmat-lambda-negative", "switch-root-99", "switch-root-negative",
         "cluster-k-0", "cluster-k-negative", "cluster-k-above-size", "solve-active-edges-nan",
         "solve-active-edges-negative", "solve-active-edges-inf"],
)
def test_out_of_range_values_exit_with_one_error_line(diamond_files, capsys, argv, code):
    tmp, paths = diamond_files
    io.save_points(tmp / "points.csv", np.eye(3))
    io.save_flow(tmp / "flow.json", np.zeros((4, 1)))
    (tmp / "fields").mkdir()
    for name in ("alpha", "beta"):
        shutil.copy(paths[name], tmp / "fields")
    names = {k: str(p) for k, p in paths.items()}
    names.update(points=tmp / "points.csv", flow=tmp / "flow.json", out=tmp / "out.json",
                 fields=tmp / "fields")
    before = sorted(tmp.iterdir())
    assert main([arg.format(**names) for arg in argv]) == code
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert sorted(tmp.iterdir()) == before


@pytest.mark.parametrize(
    "flag, value",
    [("--epochs", "-1"), ("--grad-tol", "nan"), ("--grad-tol", "-1e-3"), ("--grad-tol", "inf"),
     ("--lr", "nan"), ("--lr", "0"), ("--lr", "-0.1"), ("--lr", "inf")],
)
def test_out_of_range_solver_flags_exit_with_one_error_line(diamond_files, capsys, flag, value):
    # before the bounds: --epochs -1 wrote an all-zero flow, --grad-tol nan
    # ran every epoch, --lr nan diverged at epoch 1
    setting = f"{flag}={value}"
    argv = ["solve", "{graph}", "{alpha}", "{beta}", "--lambda", "1", "-o", "{out}", setting]
    test_out_of_range_values_exit_with_one_error_line(diamond_files, capsys, argv, 1)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["distmat", "g.json", "fields", "--lambda", "1", setting])
    capsys.readouterr()


# --------------------------------------------------------------------- solve


def test_solve_diamond_end_to_end(diamond_files, capsys):
    tmp, paths = diamond_files
    flow_path = tmp / "flow.json"
    report_path = tmp / "report.json"
    code = main(
        [
            "solve",
            str(paths["graph"]),
            str(paths["alpha"]),
            str(paths["beta"]),
            "--lambda",
            "1.0",
            "-o",
            str(flow_path),
            "--report",
            str(report_path),
            "--active-edges",
            "0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: yes" in out
    flow = io.load_flow(flow_path)
    norms = sorted(np.linalg.norm(flow, axis=1).tolist())
    assert np.abs(np.array(norms) - [0.25, 0.25, 0.75, 0.75]).max() <= 1e-5
    import json

    report = json.loads(report_path.read_text())
    assert report["gap"] <= 1e-5
    active = (tmp / "flow.active.csv").read_text().strip().split("\n")
    assert active[0] == "edge_index,i,j,flow_norm"
    assert len(active) == 3  # header + the two 0.75 edges


def test_solve_refuses_small_lambda(diamond_files, capsys):
    tmp, paths = diamond_files
    args = [
        "solve",
        str(paths["graph"]),
        str(paths["alpha"]),
        str(paths["beta"]),
        "--lambda",
        "1e-6",
        "-o",
        str(tmp / "flow.json"),
    ]
    assert main(args) == 1
    assert "--allow-small-lambda" in capsys.readouterr().err
    assert main(args + ["--allow-small-lambda", "--epochs", "50"]) == 4
    capsys.readouterr()


def test_solve_infeasible_exits_3(sign_path_files, capsys):
    tmp, gp, a, b = sign_path_files
    code = main(
        ["solve", str(gp), str(a), str(b), "--lambda", "1.0", "-o", str(tmp / "f.json")]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_solve_nonconvergence_writes_partial_output(diamond_files, capsys):
    tmp, paths = diamond_files
    flow_path = tmp / "flow.json"
    code = main(
        [
            "solve",
            str(paths["graph"]),
            str(paths["alpha"]),
            str(paths["beta"]),
            "--lambda",
            "1.0",
            "--epochs",
            "2",
            "-o",
            str(flow_path),
        ]
    )
    assert code == 4
    assert flow_path.exists()
    assert "converged: no" in capsys.readouterr().out


def test_solve_divergence_exits_4_without_output(diamond_files, capsys):
    tmp, paths = diamond_files
    g = io.load_graph(paths["graph"])
    lr = 50 * stable_learning_rate(g, 1.0)
    flow_path, report_path = tmp / "flow.json", tmp / "report.json"
    args = [str(paths["graph"]), str(paths["alpha"]), str(paths["beta"]), "--lambda", "1.0"]
    code = main(
        ["solve", *args, "--lr", repr(lr), "--epochs", "20000",
         "-o", str(flow_path), "--report", str(report_path)]
    )
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    assert not flow_path.exists() and not report_path.exists()


def test_solve_outputs_are_byte_deterministic(diamond_files, capsys):
    tmp, paths = diamond_files
    outs = []
    for name in ("f1.json", "f2.json"):
        flow_path = tmp / name
        assert (
            main(
                [
                    "solve",
                    str(paths["graph"]),
                    str(paths["alpha"]),
                    str(paths["beta"]),
                    "--lambda",
                    "1.0",
                    "-o",
                    str(flow_path),
                ]
            )
            == 0
        )
        outs.append(flow_path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- buildgraph


def test_buildgraph_sphere_patch(tmp_path, capsys):
    cloud, _, _ = sample_sphere_patch(10, 16)
    pts = tmp_path / "points.csv"
    io.save_points(pts, cloud)
    gp = tmp_path / "graph.json"
    fp = tmp_path / "frames.json"
    code = main(
        [
            "buildgraph",
            str(pts),
            "--eps",
            "0.25",
            "--dim",
            "2",
            "-o",
            str(gp),
            "--frames",
            str(fp),
        ]
    )
    capsys.readouterr()
    assert code == 0
    g = io.load_graph(gp)
    assert g.n == 160 and g.d == 2
    frames = io.load_frames(fp)
    assert frames.shape == (160, 3, 2)



def test_buildgraph_refuses_a_dim_above_the_points_dimension(tmp_path, capsys):
    cloud, _, _ = sample_sphere_patch(6, 8)
    pts, gp = tmp_path / "points.csv", tmp_path / "graph.json"
    io.save_points(pts, cloud)
    assert main(["buildgraph", str(pts), "--eps", "0.5", "--dim", "4", "-o", str(gp)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and "d=4" in err[0] and "p=3" in err[0]
    assert sorted(tmp_path.iterdir()) == [pts]

# -------------------------------------------------------------------- interp


def test_interp_path_trajectory(tmp_path, capsys):
    g = make_path_graph(4, 1)
    alpha = pseudo_dirac(4, 1, 0, 0)
    beta = pseudo_dirac(4, 1, 3, 0)
    flow, _, _ = solve_regularized(
        g, alpha, beta, SolveOptions(lam=1.0, grad_tol=1e-11, max_epochs=100000)
    )
    gp, ap, jp = tmp_path / "g.json", tmp_path / "a.json", tmp_path / "J.json"
    io.save_graph(gp, g)
    io.save_field(ap, alpha)
    io.save_flow(jp, flow)
    tp = tmp_path / "traj.json"
    assert main(["interp", str(gp), str(ap), str(jp), "--steps", "4", "-o", str(tp)]) == 0
    capsys.readouterr()
    states, ambient = io.load_trajectory(tp)
    assert ambient is None
    assert len(states) == 5
    assert np.abs(states[0] - alpha).max() == 0.0
    assert np.abs(states[-1] - beta).max() <= 1e-9


def test_interp_flow_shape_mismatch_exits_2(tmp_path, capsys):
    g = make_path_graph(3, 1)
    gp, ap, jp = tmp_path / "g.json", tmp_path / "a.json", tmp_path / "J.json"
    io.save_graph(gp, g)
    io.save_field(ap, pseudo_dirac(3, 1, 0, 0))
    io.save_flow(jp, np.zeros((5, 1)))
    assert main(["interp", str(gp), str(ap), str(jp), "--steps", "2", "-o", str(tmp_path / "t.json")]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- distmat


def _write_diamond_fields(tmp_path, diamond):
    fields_dir = tmp_path / "fields"
    fields_dir.mkdir()
    fields = [
        pseudo_dirac(4, 1, 0, 0),
        pseudo_dirac(4, 1, 3, 0),
        np.full((4, 1), 0.25),
    ]
    for k, f in enumerate(fields):
        io.save_field(fields_dir / f"f{k}.json", f)
    return fields_dir


def test_distmat_writes_symmetric_matrix(tmp_path, diamond, capsys):
    gp = tmp_path / "g.json"
    io.save_graph(gp, diamond)
    fields_dir = _write_diamond_fields(tmp_path, diamond)
    out = tmp_path / "D.csv"
    code = main(
        ["distmat", str(gp), str(fields_dir), "--lambda", "1.0", "-o", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    dist = io.load_matrix(out)
    assert dist.shape == (3, 3)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert dist[0, 1] > 0


def test_distmat_project_kernel_and_jobs(tmp_path, diamond, capsys):
    gp = tmp_path / "g.json"
    io.save_graph(gp, diamond)
    fields_dir = _write_diamond_fields(tmp_path, diamond)
    o1, o2 = tmp_path / "D1.csv", tmp_path / "D2.csv"
    a1 = ["distmat", str(gp), str(fields_dir), "--lambda", "1.0", "--project-kernel"]
    assert main(a1 + ["-o", str(o1)]) == 0
    assert main(a1 + ["--jobs", "2", "-o", str(o2)]) == 0
    capsys.readouterr()
    assert o1.read_bytes() == o2.read_bytes()



@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_distmat_refuses_jobs_below_one(tmp_path, diamond, capsys, jobs):
    gp, out = tmp_path / "g.json", tmp_path / "D.csv"
    io.save_graph(gp, diamond)
    fields_dir = _write_diamond_fields(tmp_path, diamond)
    argv = ["distmat", str(gp), str(fields_dir), "--lambda", "1.0", f"--jobs={jobs}", "-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not out.exists()

def test_kernel_commands_run_without_dense_eigensolver(tmp_path, capsys, monkeypatch):
    # check, feasible and distmat --project-kernel on patches above ARPACK's
    # basis size: the kernel and the near-kernel modes come without a dense L
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
        monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(36)
    flat, tau = flat_sphere_patch(rng)
    curved = curved_sphere_patch()
    fp, cp = tmp_path / "flat.json", tmp_path / "curved.json"
    io.save_graph(fp, flat)
    io.save_graph(cp, curved)
    kout = tmp_path / "kernel.json"
    assert main(["check", str(fp), "--kernel-out", str(kout)]) == 0
    assert "kernel dimension: 2" in capsys.readouterr().out
    assert main(["check", str(cp)]) == 0
    assert "kernel dimension: 0" in capsys.readouterr().out
    alpha = rng.standard_normal((flat.n, 2))
    a, b = tmp_path / "alpha.json", tmp_path / "beta.json"
    io.save_field(a, alpha)
    io.save_field(b, alpha + np.transpose(tau, (0, 2, 1)) @ np.array([1.0, 0.0]))
    assert main(["feasible", str(fp), str(a), str(b)]) == 3
    assert "infeasible" in capsys.readouterr().out
    fields_dir = tmp_path / "fields"
    fields_dir.mkdir()
    for k in range(3):
        io.save_field(fields_dir / f"f{k}.json", rng.standard_normal((curved.n, 2)))
    out = tmp_path / "D.csv"
    lam = curved.w_max
    args = ["distmat", str(cp), str(fields_dir), "--lambda", repr(lam), "--project-kernel"]
    args += ["--lr", repr(stable_learning_rate(curved, lam)), "--grad-tol", "0.1", "-o", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert np.isfinite(io.load_matrix(out)).all()


def test_distmat_project_kernel_solves_for_the_modes_once(tmp_path, capsys, monkeypatch):
    # the kernel and the projection share one near-kernel solve per graph,
    # whichever runs first: one lambda_max and one shift-invert eigsh
    calls = []
    from scipy.sparse.linalg import eigsh as real

    def counting(*args, **kwargs):
        calls.append("shift-invert" if "sigma" in kwargs else kwargs["which"])
        return real(*args, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", counting)
    rng = np.random.default_rng(38)
    curved = curved_sphere_patch()
    gp, fields_dir = tmp_path / "curved.json", tmp_path / "fields"
    io.save_graph(gp, curved)
    fields_dir.mkdir()
    fields = rng.standard_normal((3, curved.n, 2))
    for k, field in enumerate(fields):
        io.save_field(fields_dir / f"f{k}.json", field)
    opts = SolveOptions(
        lam=curved.w_max, learning_rate=stable_learning_rate(curved, curved.w_max), grad_tol=0.1
    )
    out = tmp_path / "D.csv"
    args = ["distmat", str(gp), str(fields_dir), "--lambda", repr(opts.lam), "--project-kernel"]
    args += ["--lr", repr(opts.learning_rate), "--grad-tol", "0.1", "-o", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert calls == ["LA", "shift-invert"]
    # D as with the kernel solved first, before the projection
    g = io.load_graph(gp)
    assert g.kernel.dimension == 0
    expected = distance_matrix(g, project_feasible(g, fields), opts)
    assert calls[2:] == ["LA", "shift-invert"]
    assert np.array_equal(io.load_matrix(out), expected)
    assert "near_kernel_modes" not in vars(pickle.loads(pickle.dumps(g)))


def test_check_and_feasible_near_flat_patch_keep_the_dense_verdict(tmp_path, capsys):
    # holonomy noise from 1e-9 (consistent at the default tol) to 1e-5:
    # the dense rule still counts both parallel sections
    rng = np.random.default_rng(37)
    gp = tmp_path / "g.json"
    verdicts = set()
    for noise in (1e-9, 1e-7, 1e-5):
        g, tau = near_flat_sphere_patch(rng, noise)
        io.save_graph(gp, g)
        assert main(["check", str(gp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"kernel dimension: {kernel_numeric(g).dimension}" in lines
        assert "kernel dimension: 2" in lines
        verdicts.add(lines[2])
        a, b = tmp_path / "alpha.json", tmp_path / "beta.json"
        io.save_field(a, np.zeros((g.n, 2)))
        io.save_field(b, np.transpose(tau, (0, 2, 1)) @ np.array([1.0, 0.0]))
        assert main(["feasible", str(gp), str(a), str(b)]) == 3
        assert "infeasible" in capsys.readouterr().out
    assert verdicts == {"consistent", "inconsistent"}


def test_distmat_nonconvergence_exits_4_with_output(tmp_path, diamond, capsys):
    gp = tmp_path / "g.json"
    io.save_graph(gp, diamond)
    fields_dir = _write_diamond_fields(tmp_path, diamond)
    out = tmp_path / "D.csv"
    code = main(
        [
            "distmat",
            str(gp),
            str(fields_dir),
            "--lambda",
            "1.0",
            "--epochs",
            "2",
            "-o",
            str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 4
    assert out.exists()
    assert "did not converge" in err


def test_distmat_empty_dir_is_usage_error(tmp_path, diamond, capsys):
    gp = tmp_path / "g.json"
    io.save_graph(gp, diamond)
    empty = tmp_path / "fields"
    empty.mkdir()
    assert main(["distmat", str(gp), str(empty), "--lambda", "1.0", "-o", str(tmp_path / "D.csv")]) == 1
    capsys.readouterr()


# ------------------------------------------------------------------- cluster


def test_cluster_two_blocks(tmp_path, capsys):
    dist = np.full((6, 6), 10.0)
    dist[:3, :3] = 0.1
    dist[3:, 3:] = 0.1
    np.fill_diagonal(dist, 0.0)
    dp = tmp_path / "D.csv"
    io.save_matrix(dp, dist)
    lp = tmp_path / "labels.csv"
    assert main(["cluster", str(dp), "--k", "2", "-o", str(lp)]) == 0
    capsys.readouterr()
    labels = io.load_labels(lp)
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]


def test_cluster_handles_inf_distances(tmp_path, capsys):
    dist = np.array([[0.0, np.inf], [np.inf, 0.0]])
    dp = tmp_path / "D.csv"
    io.save_matrix(dp, dist)
    lp = tmp_path / "labels.csv"
    assert main(["cluster", str(dp), "--k", "2", "-o", str(lp)]) == 0
    capsys.readouterr()
    labels = io.load_labels(lp)
    assert labels[0] != labels[1]


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "-0.5"])
def test_cluster_refuses_a_gamma_outside_zero_to_inf(tmp_path, capsys, gamma):
    # a NaN gamma made every affinity NaN, and labels were still written
    dp, lp = tmp_path / "D.csv", tmp_path / "labels.csv"
    io.save_matrix(dp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["cluster", str(dp), "--k", "2", f"--gamma={gamma}", "-o", str(lp)]) == 1
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not lp.exists()


def test_cluster_refuses_a_negative_seed(tmp_path, capsys):
    dp, lp = tmp_path / "D.csv", tmp_path / "labels.csv"
    io.save_matrix(dp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["cluster", str(dp), "--k", "2", "--seed=-1", "-o", str(lp)]) == 1
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not lp.exists()

# -------------------------------------------------------------------- hurdat


HURDAT_TEXT = """\
AL092011, IRENE, 4,
20110821, 0000,  , TS, 20.0N, 45.0W, 45, 1006,
20110821, 0600,  , TS, 24.0N, 45.0W, 45, 1005,
20110821, 1200,  , TS, 28.0N, 45.0W, 50, 1003,
20110821, 1800,  , TS, 32.0N, 45.0W, 50, 1002,
EP011949, UNNAMED, 2,
19490611, 0000,  , TS, 40.0N, 50.0W, 45, -999,
19490611, 0600,  , TS, 44.0N, 52.0W, 45, -999,
"""


def test_hurdat_writes_field_per_storm(tmp_path, capsys):
    cloud, _, _ = sample_sphere_patch(10, 16)
    skeleton = epsilon_graph(cloud, 0.25)
    frames = tangent_frames(cloud, skeleton, 2, 0.25)
    tracks = tmp_path / "hurdat2.txt"
    tracks.write_text(HURDAT_TEXT)
    mesh = tmp_path / "mesh.csv"
    fp = tmp_path / "frames.json"
    io.save_points(mesh, cloud)
    io.save_frames(fp, frames)
    outdir = tmp_path / "fields"
    code = main(
        [
            "hurdat",
            str(tracks),
            "--mesh",
            str(mesh),
            "--frames",
            str(fp),
            "-o",
            str(outdir),
        ]
    )
    capsys.readouterr()
    assert code == 0
    f1 = io.load_field(outdir / "AL092011.json")
    f2 = io.load_field(outdir / "EP011949.json")
    assert f1.shape == (160, 2) and f2.shape == (160, 2)
    assert np.linalg.norm(f1) > 0 and np.linalg.norm(f2) > 0


def test_hurdat_keeps_the_first_storm_of_a_repeated_id(tmp_path, capsys):
    # the second AL092011 block used to overwrite the first one's field
    cloud, _, _ = sample_sphere_patch(10, 16)
    mesh, fp = tmp_path / "mesh.csv", tmp_path / "frames.json"
    io.save_points(mesh, cloud)
    io.save_frames(fp, tangent_frames(cloud, epsilon_graph(cloud, 0.25), 2, 0.25))
    texts = {
        "first": HURDAT_TEXT.split("EP011949")[0],
        "repeated": HURDAT_TEXT.replace("EP011949, UNNAMED", "AL092011, IRENE"),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text)
        argv = ["hurdat", str(tmp_path / f"{name}.txt"), "--mesh", str(mesh), "--frames", str(fp)]
        assert main(argv + ["-o", str(tmp_path / name)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: AL092011: repeated storm id, skipped"]
    assert captured.out.splitlines()[-1] == f"wrote 1 fields to {tmp_path / 'repeated'}"
    assert [f.name for f in (tmp_path / "repeated").iterdir()] == ["AL092011.json"]
    written = (tmp_path / "repeated" / "AL092011.json").read_bytes()
    assert written == (tmp_path / "first" / "AL092011.json").read_bytes()


def test_hurdat_refuses_a_mesh_outside_three_dimensions(tmp_path, capsys):
    rng = np.random.default_rng(4)
    cloud = rng.uniform(size=(30, 2))
    skeleton = epsilon_graph(cloud, 0.5)
    tracks, mesh, fp = tmp_path / "hurdat2.txt", tmp_path / "points.csv", tmp_path / "frames.json"
    tracks.write_text(HURDAT_TEXT)
    io.save_points(mesh, cloud)
    io.save_frames(fp, tangent_frames(cloud, skeleton, 1, 0.5))
    outdir = tmp_path / "fields"
    code = main(["hurdat", str(tracks), "--mesh", str(mesh), "--frames", str(fp), "-o", str(outdir)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {mesh}: mesh points are in dimension 2; storm positions need 3"]
    assert not outdir.exists()


def test_hurdat_frame_mesh_mismatch_exits_2(tmp_path, capsys):
    cloud, _, _ = sample_sphere_patch(6, 8)
    skeleton = epsilon_graph(cloud, 0.4)
    frames = tangent_frames(cloud, skeleton, 2, 0.4)
    tracks = tmp_path / "hurdat2.txt"
    tracks.write_text(HURDAT_TEXT)
    mesh = tmp_path / "mesh.csv"
    io.save_points(mesh, cloud[:-1])  # one point short
    fp = tmp_path / "frames.json"
    io.save_frames(fp, frames)
    code = main(
        [
            "hurdat",
            str(tracks),
            "--mesh",
            str(mesh),
            "--frames",
            str(fp),
            "-o",
            str(tmp_path / "fields"),
        ]
    )
    capsys.readouterr()
    assert code == 2


# ----------------------------------------------------------------- smoke run


def test_module_entry_point_subprocess(tmp_path):
    g = ConnectionGraph.trivial(3, 1, [(0, 1, 1.0), (1, 2, 1.0)])
    gp = tmp_path / "g.json"
    io.save_graph(gp, g)
    proc = subprocess.run(
        [sys.executable, "-m", "conbeck", "check", str(gp)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "consistent" in proc.stdout


def test_cli_import_leaves_scipy_optimize_out():
    # only the LP reference needs scipy.optimize; every command pays for imports
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, conbeck.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_spatial_out():
    # only buildgraph's epsilon graph and hurdat's snapping need the k-d tree
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, conbeck.cli; print('scipy.spatial' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _list_modules(packages):
    """Code that prints the sorted names of the loaded modules of the
    top-level ``packages`` as its last line."""
    return f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"


LIST_SCIPY = _list_modules(("scipy",))


def _run_commands(runs, packages=("scipy",)):
    """Exit codes of ``main`` on each argument list, run in one fresh
    interpreter, and the modules of ``packages`` it loaded."""
    code = "\n".join([
        "import json, sys",
        "from conbeck.cli import main",
        f"print(json.dumps([main(argv) for argv in {runs!r}]))",
        _list_modules(packages),
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *printed, codes, modules = proc.stdout.splitlines()
    return "\n".join(printed), json.loads(codes), json.loads(modules)


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, conbeck.cli\n{LIST_SCIPY}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_flat_verdicts_and_cluster_load_no_scipy(tmp_path):
    # a flat connection's kernel is its parallel sections: no operator, no eigensolver
    rng = np.random.default_rng(39)
    flat, _ = flat_sphere_patch(rng)
    basis = flat.kernel.vectors
    alpha, noise = rng.standard_normal((2, flat.n, 2))
    feasible = alpha + noise - np.einsum("k,knd->nd", np.einsum("knd,nd->k", basis, noise), basis)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("g", "a", "b", "c", "kernel")}
    io.save_graph(paths["g"], flat)
    io.save_field(paths["a"], alpha)
    io.save_field(paths["b"], feasible)
    io.save_field(paths["c"], alpha + 3.0 * basis[0])
    dist = np.full((4, 4), 5.0)
    dist[:2, :2] = dist[2:, 2:] = 0.5
    np.fill_diagonal(dist, 0.0)
    io.save_matrix(tmp_path / "D.csv", dist)
    out, codes, modules = _run_commands([
        ["check", paths["g"], "--kernel-out", paths["kernel"]],
        ["feasible", paths["g"], paths["a"], paths["b"]],
        ["feasible", paths["g"], paths["a"], paths["c"]],
        ["cluster", str(tmp_path / "D.csv"), "--k", "2", "-o", str(tmp_path / "labels.csv")],
    ])
    assert codes == [0, 0, 3, 0]
    assert "kernel dimension: 2" in out
    assert modules == []


#: Modules that only buildgraph, hurdat, interp, distmat or a process pool
#: need.
OTHER_COMMANDS_MODULES = {
    "conbeck.manifold", "conbeck.hurdat", "conbeck.toolkit", "concurrent.futures", "multiprocessing"
}


def test_flat_verdicts_and_cluster_load_only_their_own_modules(tmp_path):
    rng = np.random.default_rng(41)
    flat, _ = flat_sphere_patch(rng)
    alpha = rng.standard_normal((flat.n, 2))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("g", "a")}
    io.save_graph(paths["g"], flat)
    io.save_field(paths["a"], alpha)
    packages = ("conbeck", "concurrent", "multiprocessing")
    _, codes, modules = _run_commands(
        [["check", paths["g"]], ["feasible", paths["g"], paths["a"], paths["a"]]], packages
    )
    assert codes == [0, 0]
    assert "conbeck.feasibility" in modules
    assert not OTHER_COMMANDS_MODULES & set(modules)
    # cluster runs spectral_cluster from toolkit, which starts no pool
    io.save_matrix(tmp_path / "D.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
    argv = ["cluster", str(tmp_path / "D.csv"), "--k", "2", "-o", str(tmp_path / "labels.csv")]
    _, codes, modules = _run_commands([argv], packages)
    assert codes == [0]
    assert not (OTHER_COMMANDS_MODULES - {"conbeck.toolkit"}) & set(modules)


def test_package_import_loads_no_submodule():
    # each module loads on first use of one of its names
    code = f"import json, sys, conbeck\n{_list_modules(('conbeck',))}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["conbeck"]


def test_buildgraph_and_hurdat_load_no_scipy(tmp_path):
    cloud, _, _ = sample_sphere_patch(10, 16)
    pts, gp, fp = tmp_path / "points.csv", tmp_path / "graph.json", tmp_path / "frames.json"
    tracks, outdir = tmp_path / "hurdat2.txt", tmp_path / "fields"
    io.save_points(pts, cloud)
    tracks.write_text(HURDAT_TEXT)
    _, codes, modules = _run_commands([
        ["buildgraph", str(pts), "--eps", "0.25", "--dim", "2", "-o", str(gp), "--frames", str(fp)],
        ["hurdat", str(tracks), "--mesh", str(pts), "--frames", str(fp), "-o", str(outdir)],
    ])
    assert codes == [0, 0]
    assert sorted(f.name for f in outdir.iterdir()) == ["AL092011.json", "EP011949.json"]
    assert modules == []


def test_solve_on_a_flat_connection_loads_only_the_sparse_operators(tmp_path):
    # the parallel sections decide feasibility and the ascent reads B alone:
    # no eigensolver and no dense linear algebra
    rng = np.random.default_rng(40)
    flat, _ = flat_sphere_patch(rng)
    basis = flat.kernel.vectors
    alpha, noise = rng.standard_normal((2, flat.n, 2))
    beta = alpha + noise - np.einsum("k,knd->nd", np.einsum("knd,nd->k", basis, noise), basis)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("g", "a", "b", "flow")}
    io.save_graph(paths["g"], flat)
    io.save_field(paths["a"], alpha)
    io.save_field(paths["b"], beta)
    argv = ["solve", paths["g"], paths["a"], paths["b"], "--lambda", repr(flat.w_max)]
    _, codes, modules = _run_commands([argv + ["--epochs", "3", "-o", paths["flow"]]])
    assert codes == [4]  # three epochs do not converge; the flow is still written
    assert io.load_flow(paths["flow"]).shape == (flat.m, 2)
    assert "scipy.sparse" in modules
    unused = {"scipy.sparse.linalg", "scipy.optimize", "scipy.spatial", "scipy.linalg"}
    assert not unused & set(modules)


def test_check_on_a_curved_connection_loads_only_the_operators_and_eigensolver(tmp_path):
    gp = tmp_path / "curved.json"
    io.save_graph(gp, curved_sphere_patch())
    out, codes, modules = _run_commands([["check", str(gp)]])
    assert codes == [0]
    assert "kernel dimension: 0" in out
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(modules)
    assert not {"scipy.optimize", "scipy.spatial"} & set(modules)
