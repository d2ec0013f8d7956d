"""File formats: JSON codecs, CSV helpers, round-trip exactness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conbeck import io as io_module
from conbeck.errors import FormatError, InvalidGraphError
from conbeck.feasibility import KernelBasis
from conbeck.graph import ConnectionGraph
from conbeck.io import (
    graph_from_dict,
    graph_to_dict,
    load_field,
    load_flow,
    load_frames,
    load_graph,
    load_labels,
    load_matrix,
    load_points,
    load_tau,
    load_trajectory,
    save_active_edges,
    save_field,
    save_flow,
    save_frames,
    save_graph,
    save_kernel,
    save_labels,
    save_matrix,
    save_points,
    save_report,
    save_tau,
    save_trajectory,
)
from conbeck.solver import SolveOptions, SolveReport, solve_regularized

from conftest import random_connected_graph
from oracles import (
    field_to_dict,
    flow_to_dict,
    frames_to_dict,
    random_orthogonal,
    tau_to_dict,
    trajectory_to_dict,
)


# -------------------------------------------------------------------- graphs


def test_graph_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(70)
    single_vertex = ConnectionGraph(1, 2, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2, 2)))
    for g in (random_connected_graph(rng, n=7, d=3, extra_edges=5), single_vertex):
        path = tmp_path / "g.json"
        save_graph(path, g)
        loaded = load_graph(path)
        assert loaded.n == g.n and loaded.d == g.d
        assert loaded.edge_index.shape == (g.m, 2)
        assert loaded.sigmas.shape == (g.m, g.d, g.d)
        assert np.array_equal(loaded.edge_index, g.edge_index)
        assert np.array_equal(loaded.weights, g.weights)
        assert np.array_equal(loaded.sigmas, g.sigmas)
        # second cycle is also stable
        path2 = tmp_path / "g2.json"
        save_graph(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()


def test_graph_file_text(tmp_path):
    # edge 1 is given reversed and its sigma is orthogonal only to ~1e-13
    g = ConnectionGraph.from_edges(
        3,
        2,
        [
            (0, 1, 1.5, [[0.0, -1.0], [1.0, 0.0]]),
            (2, 1, 0.25, [[0.6, 0.8], [-0.8, 0.6000000000001]]),
        ],
    )
    path = tmp_path / "g.json"
    save_graph(path, g)
    assert path.read_text() == GRAPH_TEXT
    loaded = load_graph(path)
    assert loaded.edge_index.tolist() == [[0, 1], [1, 2]]
    assert np.array_equal(loaded.sigmas[0], g.sigmas[0])
    assert np.abs(loaded.sigmas[1] - g.sigmas[1]).max() <= 1e-13


GRAPH_TEXT = """{
  "n": 3,
  "d": 2,
  "edges": [
    {
      "i": 0,
      "j": 1,
      "w": 1.5,
      "sigma": [
        0.0,
        -1.0,
        1.0,
        0.0
      ]
    },
    {
      "i": 1,
      "j": 2,
      "w": 0.25,
      "sigma": [
        0.6,
        -0.8,
        0.8,
        0.6000000000001
      ]
    }
  ]
}
"""


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf"), 1e-5, 0.1]


def _messy(rng, shape):
    """Floats over 80 decades, with the specials above mixed in."""
    values = rng.standard_normal(shape) * np.exp(rng.uniform(-90, 90, shape))
    flat = values.reshape(-1)
    k = min(flat.size, len(SPECIAL_FLOATS))
    flat[rng.choice(flat.size, k, replace=False)] = SPECIAL_FLOATS[:k]
    return values


@pytest.mark.parametrize("chunk_rows", [3, 2048])
def test_table_writers_match_json_dump(tmp_path, monkeypatch, chunk_rows):
    # the row-wise writers give the text of json.dump(indent=2) of each
    # document's dict byte for byte, across chunk boundaries and for empty tables
    monkeypatch.setattr(io_module, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(79)
    path = tmp_path / "t.json"

    def assert_text(save, value, obj):
        save(path, value)
        assert path.read_text() == json.dumps(obj, indent=2) + "\n"

    for n, m, d in [(1, 0, 2), (5, 7, 1), (4, 9, 2), (9, 3, 3)]:
        edge_index = np.sort(rng.integers(0, 10 * n, (m, 2)), axis=1)
        g = ConnectionGraph(10 * n, d, edge_index, _messy(rng, m), _messy(rng, (m, d, d)))
        assert_text(save_graph, g, graph_to_dict(g))
        field, flow = _messy(rng, (n, d)), _messy(rng, (m, d))
        assert_text(save_field, field, field_to_dict(field))
        assert_text(save_flow, flow, flow_to_dict(flow))
        frames, tau = _messy(rng, (n, d + 1, d)), _messy(rng, (n, d, d))
        assert_text(save_frames, frames, frames_to_dict(frames))
        assert_text(save_tau, tau, tau_to_dict(tau))
        vectors = _messy(rng, (m % 3, n, d))
        kernel = {"n": n, "d": d, "dimension": m % 3, "vectors": vectors.tolist()}
        assert_text(save_kernel, KernelBasis(vectors, 1e-8), kernel)
    # header-only documents, with the non-finite floats and a bool
    report = SolveReport(float("nan"), float("inf"), -float("inf"), 0.5, 3, True, 1.0, 5e-3)
    assert_text(save_report, report, report.to_json_dict())
    # two tables in one document, with and without the ambient lifts
    for k, n, d, p in [(1, 1, 1, 2), (5, 4, 2, 3)]:
        states, ambient = list(_messy(rng, (k, n, d))), list(_messy(rng, (k, n, p)))
        assert_text(save_trajectory, states, trajectory_to_dict(states))
        with_ambient = trajectory_to_dict(states, ambient)
        assert_text(lambda path, s: save_trajectory(path, s, ambient), states, with_ambient)


@pytest.mark.parametrize("chunk_rows", [3, 2048])
def test_zero_rows_match_json_dump(tmp_path, monkeypatch, chunk_rows):
    # rows of +0.0 share one string formatted per table; rows with -0.0,
    # NaN or infinities are formatted like any other
    monkeypatch.setattr(io_module, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "t.json"
    nan, inf = float("nan"), float("inf")
    kinds = np.array([
        [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 1.5],
        [nan, 0.0], [0.0, nan], [inf, 0.0], [0.0, -inf], [5e-324, 0.0],
    ])
    mixed = kinds[np.random.default_rng(80).integers(0, len(kinds), 40)]
    for field in [mixed, np.zeros((7, 2)), -np.zeros((7, 2)), np.full((4, 2), nan), kinds]:
        save_field(path, field)
        assert path.read_text() == json.dumps(field_to_dict(field), indent=2) + "\n"
        frames = field.reshape(-1, 2, 1)
        save_frames(path, frames)
        assert path.read_text() == json.dumps(frames_to_dict(frames), indent=2) + "\n"
        states = [field, np.zeros_like(field), field]
        ambient = [np.zeros((len(field), 3)), np.ones((len(field), 3)), -np.zeros((len(field), 3))]
        save_trajectory(path, states, ambient)
        obj = trajectory_to_dict(states, ambient)
        assert path.read_text() == json.dumps(obj, indent=2) + "\n"
    # integer columns keep their zeros as 0 beside the float 0.0
    zero, eye = np.zeros((2, 2)), np.eye(2)
    g = ConnectionGraph(3, 2, [(0, 0), (0, 1), (0, 0), (0, 0)], [0.0, 1.0, -0.0, 0.0],
                        [zero, eye, zero, -zero])
    save_graph(path, g)
    assert path.read_text() == json.dumps(graph_to_dict(g), indent=2) + "\n"
    assert '"i": 0,\n      "j": 0,\n      "w": 0.0,' in path.read_text()


def test_graph_load_reprojects_noisy_sigma(tmp_path):
    rng = np.random.default_rng(71)
    sigma = random_orthogonal(2, rng) + rng.standard_normal((2, 2)) * 1e-10
    obj = {
        "n": 2,
        "d": 2,
        "edges": [{"i": 0, "j": 1, "w": 1.0, "sigma": [float(x) for x in sigma.ravel()]}],
    }
    g = graph_from_dict(obj)
    defect = np.abs(g.sigmas[0].T @ g.sigmas[0] - np.eye(2)).max()
    assert defect <= 1e-12


def test_graph_load_rejects_far_from_orthogonal():
    obj = {
        "n": 2,
        "d": 1,
        "edges": [{"i": 0, "j": 1, "w": 1.0, "sigma": [2.0]}],
    }
    with pytest.raises(InvalidGraphError):
        graph_from_dict(obj)
    g = graph_from_dict(obj, validate=False)
    assert any("orthogonal" in v for v in g.violations)


def test_graph_load_flips_reversed_edges():
    sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
    obj = {
        "n": 2,
        "d": 2,
        "edges": [{"i": 1, "j": 0, "w": 2.0, "sigma": [float(x) for x in sigma.ravel()]}],
    }
    g = graph_from_dict(obj)
    assert g.edge_index.tolist() == [[0, 1]]
    assert np.array_equal(g.sigmas[0], sigma.T)


def test_graph_schema_errors():
    good = {"i": 0, "j": 1, "w": 1.0, "sigma": [1.0, 0.0, 0.0, 1.0]}

    def second_edge(**entry):
        return {"n": 3, "d": 2, "edges": [good, {"i": 1, "j": 2, **entry}]}

    cases = [
        ({"d": 1, "edges": []}, "graph: missing required key 'n'"),
        ({"n": 2, "d": 1, "edges": "nope"}, "graph: 'edges' must be a list"),
        (
            {"n": 3, "d": 2, "edges": [good, [1, 2, 1.0]]},
            "graph: edge 1: expected an object",
        ),
        (second_edge(w=1.0), "graph: edge 1: missing required key 'sigma'"),
        (
            second_edge(w=True, sigma=[1.0, 0.0, 0.0, 1.0]),
            "graph: edge 1: 'w' must be a number, got True",
        ),
        (
            second_edge(w=1.0, sigma=[1.0]),
            "graph: edge 1: 'sigma' must be a flat row-major list of 4 numbers",
        ),
        (
            second_edge(w=1.0, sigma=[1.0, "x", 0.0, 1.0]),
            "graph: edge 1: expected a numeric array "
            "(could not convert string to float: 'x')",
        ),
        (
            second_edge(w=1.0, sigma=[1.0, 0.0, float("nan"), 1.0]),
            "graph: edge 1: array contains non-finite entries",
        ),
    ]
    for obj, message in cases:
        with pytest.raises(FormatError) as exc:
            graph_from_dict(obj)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 2**63, "d": 1, "edges": []}, f"graph: key 'n' must be below 2**63, got {2**63}"),
        ({"n": 2, "d": 10**20, "edges": []}, f"graph: key 'd' must be below 2**63, got {10**20}"),
        (
            {"n": 2, "d": 1, "edges": [{"i": 10**23, "j": 1, "w": 1.0, "sigma": [1.0]}]},
            f"graph: edge 0: key 'i' must be below 2**63, got {10**23}",
        ),
    ],
    ids=["n", "d", "edge-endpoint"],
)
def test_graph_integers_past_64_bits_are_format_errors(obj, message):
    # these escaped as OverflowError or ValueError, or (n) reached validation
    with pytest.raises(FormatError) as exc:
        graph_from_dict(obj, validate=False)
    assert str(exc.value) == message


def test_graph_file_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all {")
    with pytest.raises(FormatError):
        load_graph(path)


# ------------------------------------------------------------ fields / flows


def test_field_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(72)
    field = rng.standard_normal((6, 3)) * np.pi
    path = tmp_path / "f.json"
    save_field(path, field)
    assert np.array_equal(load_field(path), field)


def test_flow_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(73)
    flow = rng.standard_normal((9, 2)) / 3.0
    path = tmp_path / "J.json"
    save_flow(path, flow)
    assert np.array_equal(load_flow(path), flow)


def test_field_shape_mismatch_raises():
    with pytest.raises(FormatError):
        load_field_obj = {"n": 3, "d": 2, "values": [[1.0, 2.0], [3.0, 4.0]]}
        from conbeck.io import field_from_dict

        field_from_dict(load_field_obj)


def test_field_non_finite_rejected(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 1, "d": 1, "values": [[float("nan")]]}))
    with pytest.raises(FormatError):
        load_field(path)


# ------------------------------------------------------------- frames / tau


def test_frames_round_trip(tmp_path):
    rng = np.random.default_rng(74)
    frames = np.zeros((4, 3, 2))
    for k in range(4):
        q = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        frames[k] = q
    path = tmp_path / "frames.json"
    save_frames(path, frames)
    loaded = load_frames(path)
    assert np.array_equal(loaded, frames)


def test_frames_reject_non_orthonormal():
    from conbeck.io import frames_from_dict

    bad = np.ones((1, 3, 2)).tolist()
    with pytest.raises(FormatError):
        frames_from_dict({"n": 1, "p": 3, "d": 2, "frames": bad})
    with pytest.raises(FormatError):
        frames_from_dict({"n": 1, "p": 2, "d": 3, "frames": np.zeros((1, 2, 3)).tolist()})


def test_frames_near_orthonormal_are_snapped():
    from conbeck.io import frames_from_dict

    rng = np.random.default_rng(76)
    exact = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    near = exact * (1 + 1e-11)  # inside the load tolerance, above exactness
    loaded = frames_from_dict({"n": 2, "p": 3, "d": 2, "frames": [exact.tolist(), near.tolist()]})
    assert np.array_equal(loaded[0], exact)
    assert np.abs(loaded[1].T @ loaded[1] - np.eye(2)).max() <= 1e-15
    assert np.abs(loaded[1] - exact).max() <= 1e-14


def test_tau_round_trip(tmp_path):
    rng = np.random.default_rng(75)
    tau = np.stack([random_orthogonal(2, rng) for _ in range(5)])
    path = tmp_path / "tau.json"
    save_tau(path, tau)
    assert np.array_equal(load_tau(path), tau)


# ---------------------------------------------------------------- trajectory


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(76)
    states = [rng.standard_normal((4, 2)) for _ in range(3)]
    path = tmp_path / "traj.json"
    save_trajectory(path, states)
    loaded, ambient = load_trajectory(path)
    assert ambient is None
    assert len(loaded) == 3
    for got, want in zip(loaded, states):
        assert np.array_equal(got, want)


def test_trajectory_with_ambient(tmp_path):
    rng = np.random.default_rng(77)
    states = [rng.standard_normal((4, 2)) for _ in range(2)]
    ambient = [rng.standard_normal((4, 3)) for _ in range(2)]
    path = tmp_path / "traj.json"
    save_trajectory(path, states, ambient=ambient)
    loaded, amb = load_trajectory(path)
    assert len(amb) == 2
    for got, want in zip(amb, ambient):
        assert np.array_equal(got, want)


def test_trajectory_wrong_state_count():
    from conbeck.io import trajectory_from_dict

    with pytest.raises(FormatError):
        trajectory_from_dict(
            {"n": 2, "d": 1, "steps": 3, "states": [[[0.0], [0.0]]]}
        )


@pytest.mark.parametrize(
    "first, reason",
    [
        ([["x", 1.0]], "could not convert string to float: 'x'"),
        ([[1.0, 2.0], [3.0]], "setting an array element with a sequence"),
    ],
    ids=["non-numeric", "ragged"],
)
def test_trajectory_ambient_state_0_not_numeric(first, reason):
    # the first ambient state sets the ambient dimension; it raised ValueError
    from conbeck.io import trajectory_from_dict

    obj = {"n": 2, "d": 1, "steps": 0, "states": [[[0.0], [0.0]]], "ambient": [first]}
    with pytest.raises(FormatError) as exc:
        trajectory_from_dict(obj)
    assert str(exc.value).startswith(
        f"trajectory: ambient state 0: expected a numeric array ({reason}"
    )


# ----------------------------------------------------------------------- CSV


def test_points_comma_and_whitespace(tmp_path):
    pa = tmp_path / "a.csv"
    pa.write_text("1.5,2.5\n-3.0,4.0\n")
    pb = tmp_path / "b.txt"
    pb.write_text("1.5 2.5\n-3.0 4.0\n")
    a = load_points(pa)
    b = load_points(pb)
    assert np.array_equal(a, b)
    assert a.shape == (2, 2)


def test_points_header_skipped(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y,z\n1.0,2.0,3.0\n")
    assert load_points(path).shape == (1, 3)


def test_points_ragged_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError):
        load_points(path)


def test_points_empty_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("\n\n")
    with pytest.raises(FormatError):
        load_points(path)


def test_points_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(78)
    cloud = rng.standard_normal((10, 3)) * 17.3
    path = tmp_path / "cloud.csv"
    save_points(path, cloud)
    assert np.array_equal(load_points(path), cloud)


def test_matrix_with_inf_round_trip(tmp_path):
    mat = np.array([[0.0, np.inf], [np.inf, 0.0]])
    path = tmp_path / "D.csv"
    save_matrix(path, mat)
    assert np.array_equal(load_matrix(path), mat)


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 2, 1, 1, 0])
    path = tmp_path / "labels.csv"
    save_labels(path, labels)
    assert np.array_equal(load_labels(path), labels)


def test_active_edges_csv(tmp_path, diamond_problem):
    g, alpha, beta, _ = diamond_problem
    flow, _, _ = solve_regularized(g, alpha, beta, SolveOptions(lam=1.0))
    path = tmp_path / "active.csv"
    save_active_edges(path, g, flow, delta=0.5)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "edge_index,i,j,flow_norm"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "2"]
    assert rows[0][1:3] == ["0", "1"]
    norms = [float(r[3]) for r in rows]
    assert max(abs(x - 0.75) for x in norms) <= 1e-5
