"""File formats: JSON codecs and CSV helpers.

JSON documents use plain ``repr`` floats (Python's shortest round-trip
representation), so a save/load cycle reproduces every array bit for bit.
Every document is written row by row in the text that ``json.dump`` with
``indent=2`` gives.
Schema problems raise :class:`~conbeck.errors.FormatError`; semantic graph
problems surface as :class:`~conbeck.errors.InvalidGraphError` when
``validate=True``.
"""

from __future__ import annotations

import json
from operator import itemgetter

import numpy as np

from .errors import FormatError
from .graph import ORTHOGONALITY_TOL, ConnectionGraph, _index_oriented, _shaped, _snap

__all__ = [
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "save_graph",
    "field_from_dict",
    "load_field",
    "save_field",
    "flow_from_dict",
    "load_flow",
    "save_flow",
    "frames_from_dict",
    "load_frames",
    "save_frames",
    "tau_from_dict",
    "load_tau",
    "save_tau",
    "trajectory_from_dict",
    "load_trajectory",
    "save_trajectory",
    "save_report",
    "save_kernel",
    "load_points",
    "save_points",
    "load_matrix",
    "save_matrix",
    "load_labels",
    "save_labels",
    "save_active_edges",
]


# ---------------------------------------------------------------------------
# low-level helpers
# ---------------------------------------------------------------------------


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return obj


#: Rows of a table that :func:`_dump_table` formats and writes at a time.
_CHUNK_ROWS = 2048


def _layout(spec, depth):
    """Indent-2 JSON text, at nesting ``depth``, with ``%s`` for each number.

    ``spec`` is ``()`` for a number, a shape for a nested list of numbers,
    or a dict for an object whose values it lays out in turn.
    """
    if isinstance(spec, dict):
        items = [f"{json.dumps(key)}: {_layout(value, depth + 1)}" for key, value in spec.items()]
        brackets = "{}"
    elif spec:
        items = [_layout(spec[1:], depth + 1)] * spec[0]
        brackets = "[]"
    else:
        return "%s"
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _json_cells(block):
    """A 2-D block as an object array of Python numbers; non-finite floats
    are spelled as ``json`` spells them (``NaN``, ``Infinity``)."""
    cells = block.astype(object)
    if block.dtype.kind == "f":
        bad = ~np.isfinite(block)
        cells[bad] = [json.dumps(x) for x in block[bad].tolist()]
    return cells


def _nonzero_rows(columns):
    """Rows with a cell other than ``0`` or ``+0.0``, the numbers whose bits
    are all zero (``-0.0`` has its sign bit set)."""
    nonzero = np.zeros(len(columns[0]), dtype=bool)
    for col in columns:
        nonzero |= col.view(f"u{col.itemsize}").any(axis=1)
    return nonzero


def _dump_table(path, header, tables=()):
    """Write ``{**header, key: [row, ...], ...}`` in the text that
    ``json.dump`` with ``indent=2`` and a newline give, ``_CHUNK_ROWS``
    rows at a time.

    ``header`` maps keys to JSON scalars.  Each of ``tables`` is a
    ``(key, row, columns)`` triple: its row r is laid out by the
    :func:`_layout` spec ``row`` from the r-th rows of the 2-D arrays
    ``columns``, taken left to right.  A row of zeros is formatted once
    per table, in each column's dtype, and spliced into each chunk's
    template as literal text; the other rows fill the template in one
    ``%`` call.
    """
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{"
        for k, v in header.items():
            fh.write(f"{sep}\n  {json.dumps(k)}: {json.dumps(v)}")
            sep = ","
        for key, row, columns in tables:
            fh.write(f"{sep}\n  {json.dumps(key)}: ")
            sep = ","
            rows = len(columns[0])
            if not rows:
                fh.write("[]")
                continue
            item = "    " + _layout(row, 2)
            zeros = [z for col in columns for z in np.zeros(col.shape[1], col.dtype).tolist()]
            zero_item = item % tuple(zeros)
            templates = np.array([zero_item, item], dtype=object)
            nonzero = _nonzero_rows(columns)
            lead = "[\n"
            for start in range(0, rows, _CHUNK_ROWS):
                kept = nonzero[start : start + _CHUNK_ROWS]
                block = [
                    _json_cells(col[start : start + _CHUNK_ROWS].compress(kept, axis=0))
                    for col in columns
                ]
                cells = np.concatenate(block, axis=1)
                chunk = ",\n".join(templates[kept.view(np.uint8)].tolist())
                fh.write(lead + chunk % tuple(cells.ravel().tolist()))
                lead = ",\n"
            fh.write("\n  ]")
        fh.write("\n}\n" if sep == "," else "{}\n")


def _get(obj, key, where):
    if key not in obj:
        raise FormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def _get_int(obj, key, where, minimum=0):
    """An integer in ``[minimum, 2**63)``: every count and index must fit
    the 64-bit arrays it goes into."""
    value = _get(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where}: key {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise FormatError(f"{where}: key {key!r} must be >= {minimum}, got {value}")
    if value >= 1 << 63:
        raise FormatError(f"{where}: key {key!r} must be below 2**63, got {value}")
    return value


def _numeric(values, where):
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: expected a numeric array ({exc})") from exc


def _as_array(values, shape, where):
    arr = _numeric(values, where)
    if arr.shape != shape:
        raise FormatError(f"{where}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise FormatError(f"{where}: array contains non-finite entries")
    return arr


def _orthonormal_stack(arr, where):
    """Polar-project a stack of (semi-)orthogonal matrices, or complain."""
    defect, out = _snap(arr)
    bad = np.flatnonzero(defect > ORTHOGONALITY_TOL)
    if bad.size:
        raise FormatError(
            f"{where}: matrix {bad[0]} is not orthonormal within {ORTHOGONALITY_TOL:g} "
            f"(max Gram deviation {defect[bad[0]]:.3e})"
        )
    return out


# ---------------------------------------------------------------------------
# connection graphs
# ---------------------------------------------------------------------------


def _columns(edges):
    """The ``i``, ``j``, ``w`` and ``sigma`` columns of a list of edge objects."""
    return [list(map(itemgetter(key), edges)) for key in ("i", "j", "w", "sigma")]


def _edge_columns(edges, d):
    """:func:`_columns` of ``edges`` if every edge is a dict holding ints
    ``i`` and ``j`` in ``[0, 2**63)``, an int or float ``w`` and a list of
    ``d * d`` entries as ``sigma``, else ``None``.  Exact types only: a
    subclass is left to the per-edge checks."""
    if not set(map(type, edges)) <= {dict}:
        return None
    try:
        columns = _columns(edges)
    except KeyError:
        return None
    tails, heads, weights, sigmas = columns
    ends = tails + heads
    if (
        set(map(type, ends)) <= {int}
        and (not ends or (min(ends) >= 0 and max(ends) < 1 << 63))
        and set(map(type, weights)) <= {int, float}
        and set(map(type, sigmas)) <= {list}
        and set(map(len, sigmas)) <= {d * d}
    ):
        return columns
    return None


def graph_to_dict(g):
    tails, heads = g.edge_index.T.tolist()
    columns = zip(tails, heads, g.weights.tolist(), g.sigmas.reshape(g.m, g.d * g.d).tolist())
    edges = [{"i": i, "j": j, "w": w, "sigma": sigma} for i, j, w, sigma in columns]
    return {"n": g.n, "d": g.d, "edges": edges}


def graph_from_dict(obj, validate=True):
    """Decode a connection graph document.

    Edge order in the file is preserved and defines the edge indexing.
    Reversed pairs (``i > j``) are flipped with the transposed matrix;
    near-orthogonal matrices are snapped to exactly orthogonal ones.
    """
    where = "graph"
    n = _get_int(obj, "n", where, minimum=1)
    d = _get_int(obj, "d", where, minimum=1)
    edges = _get(obj, "edges", where)
    if not isinstance(edges, list):
        raise FormatError(f"{where}: 'edges' must be a list")
    columns = _edge_columns(edges, d)
    if columns is None:
        for k, entry in enumerate(edges):  # name the first bad edge
            loc = f"{where}: edge {k}"
            if not isinstance(entry, dict):
                raise FormatError(f"{loc}: expected an object")
            _get_int(entry, "i", loc)
            _get_int(entry, "j", loc)
            w = _get(entry, "w", loc)
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise FormatError(f"{loc}: 'w' must be a number, got {w!r}")
            sigma = _get(entry, "sigma", loc)
            if not isinstance(sigma, list) or len(sigma) != d * d:
                raise FormatError(
                    f"{loc}: 'sigma' must be a flat row-major list of {d * d} numbers"
                )
        columns = _columns(edges)  # each edge passed, with a subclass of some type
    tails, heads, weights, rows = columns
    m = len(edges)
    edge_index = np.array([tails, heads], dtype=int).T.copy()
    weights = np.array(weights, dtype=float)
    # an empty list would read as shape (0,)
    rows = rows or np.zeros((0, d * d))
    try:
        sigmas = _as_array(rows, (m, d * d), where)
    except FormatError:
        for k, sigma in enumerate(rows):  # name the first bad edge
            _as_array(sigma, (d * d,), f"{where}: edge {k}")
        raise
    edge_index, sigmas = _index_oriented(edge_index, sigmas.reshape(m, d, d))
    g = ConnectionGraph(n, d, edge_index, weights, sigmas).canonicalized()
    if validate:
        g.require_valid()
    return g


def load_graph(path, validate=True):
    return graph_from_dict(_load_json(path), validate=validate)


def save_graph(path, g):
    row = {"i": (), "j": (), "w": (), "sigma": (g.d * g.d,)}
    columns = [g.edge_index, g.weights[:, None], g.sigmas.reshape(g.m, g.d * g.d)]
    _dump_table(path, {"n": g.n, "d": g.d}, [("edges", row, columns)])


# ---------------------------------------------------------------------------
# vertex fields and edge flows
# ---------------------------------------------------------------------------


def field_from_dict(obj):
    where = "field"
    n = _get_int(obj, "n", where, minimum=1)
    d = _get_int(obj, "d", where, minimum=1)
    return _as_array(_get(obj, "values", where), (n, d), where)


def load_field(path):
    return field_from_dict(_load_json(path))


def save_field(path, field):
    field = np.asarray(field, dtype=float)
    n, d = field.shape
    _dump_table(path, {"n": n, "d": d}, [("values", (d,), [field])])


def flow_from_dict(obj):
    where = "flow"
    m = _get_int(obj, "m", where, minimum=0)
    d = _get_int(obj, "d", where, minimum=1)
    return _as_array(_get(obj, "values", where), (m, d), where)


def load_flow(path):
    return flow_from_dict(_load_json(path))


def save_flow(path, flow):
    flow = np.asarray(flow, dtype=float)
    m, d = flow.shape
    _dump_table(path, {"m": m, "d": d}, [("values", (d,), [flow])])


# ---------------------------------------------------------------------------
# tangent frames and switching functions
# ---------------------------------------------------------------------------


def frames_from_dict(obj):
    where = "frames"
    n = _get_int(obj, "n", where, minimum=1)
    p = _get_int(obj, "p", where, minimum=1)
    d = _get_int(obj, "d", where, minimum=1)
    if d > p:
        raise FormatError(f"{where}: intrinsic dimension d={d} exceeds ambient p={p}")
    arr = _as_array(_get(obj, "frames", where), (n, p, d), where)
    return _orthonormal_stack(arr, where)


def load_frames(path):
    return frames_from_dict(_load_json(path))


def save_frames(path, frames):
    frames = np.asarray(frames, dtype=float)
    n, p, d = frames.shape
    table = ("frames", (p, d), [frames.reshape(n, p * d)])
    _dump_table(path, {"n": n, "p": p, "d": d}, [table])


def tau_from_dict(obj):
    where = "tau"
    n = _get_int(obj, "n", where, minimum=1)
    d = _get_int(obj, "d", where, minimum=1)
    arr = _as_array(_get(obj, "tau", where), (n, d, d), where)
    return _orthonormal_stack(arr, where)


def load_tau(path):
    return tau_from_dict(_load_json(path))


def save_tau(path, tau):
    tau = np.asarray(tau, dtype=float)
    n, d, _ = tau.shape
    table = ("tau", (d, d), [tau.reshape(n, d * d)])
    _dump_table(path, {"n": n, "d": d}, [table])


# ---------------------------------------------------------------------------
# trajectories and reports
# ---------------------------------------------------------------------------


def trajectory_from_dict(obj):
    where = "trajectory"
    n = _get_int(obj, "n", where, minimum=1)
    d = _get_int(obj, "d", where, minimum=1)
    steps = _get_int(obj, "steps", where, minimum=0)
    raw = _get(obj, "states", where)
    if not isinstance(raw, list) or len(raw) != steps + 1:
        raise FormatError(f"{where}: 'states' must list {steps + 1} fields")
    states = [_as_array(s, (n, d), f"{where}: state {k}") for k, s in enumerate(raw)]
    ambient = None
    if "ambient" in obj:
        raw_amb = obj["ambient"]
        if not isinstance(raw_amb, list) or len(raw_amb) != steps + 1:
            raise FormatError(f"{where}: 'ambient' must list {steps + 1} arrays")
        first = _numeric(raw_amb[0], f"{where}: ambient state 0")
        if first.ndim != 2 or first.shape[0] != n:
            raise FormatError(f"{where}: ambient state 0 must have {n} rows")
        p = first.shape[1]
        ambient = [
            _as_array(a, (n, p), f"{where}: ambient state {k}")
            for k, a in enumerate(raw_amb)
        ]
    return states, ambient


def load_trajectory(path):
    return trajectory_from_dict(_load_json(path))


def save_trajectory(path, states, ambient=None):
    states = np.asarray(states, dtype=float)
    k, n, d = states.shape
    tables = [("states", (n, d), [states.reshape(k, n * d)])]
    if ambient is not None:
        ambient = np.asarray(ambient, dtype=float)
        tables.append(("ambient", ambient.shape[1:], [ambient.reshape(len(ambient), -1)]))
    _dump_table(path, {"n": n, "d": d, "steps": k - 1}, tables)


def save_report(path, report):
    _dump_table(path, report.to_json_dict())


def save_kernel(path, basis):
    """Write a kernel basis: ``n``, ``d``, ``dimension`` and the (k, n, d) ``vectors``."""
    k, n, d = basis.vectors.shape
    header = {"n": n, "d": d, "dimension": basis.dimension}
    table = ("vectors", (n, d), [basis.vectors.reshape(k, n * d)])
    _dump_table(path, header, [table])


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def load_points(path):
    """Read a point cloud from CSV; separator (comma/whitespace) is sniffed.

    A single non-numeric first row is tolerated as a header.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    first_data = True
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        tokens = [t for t in text.split(",")] if "," in text else text.split()
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            if first_data:
                first_data = False  # header row
                continue
            raise FormatError(f"{path}: line {lineno}: non-numeric entry") from exc
        first_data = False
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no data rows found")
    return np.array(rows)


def save_points(path, cloud):
    cloud = np.asarray(cloud, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for row in cloud:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def save_matrix(path, mat):
    """Write a dense matrix as CSV; infinities are spelled ``inf``."""
    save_points(path, mat)


def load_matrix(path):
    return load_points(path)


def save_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for lab in np.asarray(labels, dtype=int):
            fh.write(f"{int(lab)}\n")


def load_labels(path):
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels.append(int(text))
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: not an integer") from exc
    return np.array(labels, dtype=int)


def save_active_edges(path, g, flow, delta=0.0):
    """Write active edges (per-edge flow norm above ``delta``) as CSV."""
    norms = np.linalg.norm(_shaped(g, flow, "flow", g.m), axis=1)
    active = np.flatnonzero(norms > delta)
    rows = zip(active.tolist(), g.edge_index[active].tolist(), norms[active].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("edge_index,i,j,flow_norm\n")
        for e, (i, j), norm in rows:
            fh.write(f"{e},{i},{j},{norm!r}\n")
