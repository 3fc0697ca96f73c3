"""JSON file formats for graphs and matrices.

Graph documents::

    {"kind": "multigraph", "num_vertices": 3, "edges": [[0, 1], [1, 2]]}
    {"kind": "digraph",    "num_vertices": 2, "edges": [[0, 1], [1, 0]]}
    {"kind": "plane",      "num_vertices": 2, "edges": [[0, 1]],
     "rotations": [[[0, 0]], [[0, 1]]]}

The position of a pair in "edges" is its edge (or arc) id.  For "plane"
documents, "rotations" holds one array per vertex; each item is a half-edge
[edge_id, end] with end selecting endpoint 0 or 1 of that edge.  Unknown
fields are rejected.

Matrix documents::

    {"n": 2, "entries": [[1, "-2"], [0, 3]]}

Entries are integers, given as JSON numbers or as decimal strings (an
optional "-" then ASCII digits, nothing else); strings are mandatory once
the magnitude exceeds 2^53 - 1 so that consumers limited to doubles never
see a lossy number.  Integers of any length are read and written exactly,
past ``sys.get_int_max_str_digits()``.

A document may declare at most ``GRAPH_MAX_VERTICES`` vertices; a larger
"num_vertices" raises CapacityError before any edge is read, since the graph
algorithms allocate per-vertex arrays.

``write_graph`` emits the canonical form: keys in the order shown above,
compact separators, rotations rotated cyclically to start at their smallest
half-edge, and a trailing newline.  Reading a canonical document and writing
it back is the identity.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Any

from .errors import CapacityError, FormatError
from .graphs import Digraph, Multigraph, PlaneGraph

if TYPE_CHECKING:
    from .matrixfn import Matrix

_SAFE_JSON_INT = 2**53 - 1

GRAPH_MAX_VERTICES = 10**6

_GRAPH_FIELDS = {
    "multigraph": {"kind", "num_vertices", "edges"},
    "digraph": {"kind", "num_vertices", "edges"},
    "plane": {"kind", "num_vertices", "edges", "rotations"},
}


def _load_json(text: str, what: str) -> Any:
    """``json.loads``, each of its rejections a FormatError naming ``what``:
    a syntax error with its line and column, nesting past the recursion
    limit, and an integer literal longer than sys.get_int_max_str_digits(),
    which json reads with int() and neither reader would accept (matrix
    entries that long are decimal strings)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError(f"{what}: arrays or objects nested too deeply") from None
    except ValueError:
        raise FormatError(
            f"{what}: an integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from None


# Integers cross this boundary as text through decimal.Decimal, exact at any
# length, where int() and str() stop at sys.get_int_max_str_digits() digits.
# It is imported on first use: importing it adds about 0.5 MB to a process.


def _decimal_text(value: int) -> str:
    from decimal import Decimal

    return str(Decimal(value))


def _decimal_int(text: str) -> int:
    from decimal import Decimal

    return int(Decimal(text))


def _require_int(value: Any, where: str, *args: Any) -> int:
    """``value`` if it is an int and not a bool.  Otherwise a FormatError
    labelled ``where.format(*args)``, a label built only on this path, as
    valid documents call this once per integer they hold."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where.format(*args)}: expected an integer, got {value!r}")
    return value


def _edge_pairs(raw: Any, num_vertices: int) -> tuple[tuple[int, int], ...]:
    if not isinstance(raw, list):
        raise FormatError("field 'edges': expected an array")
    pairs = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2):
            raise FormatError(f"field 'edges', entry {i}: expected a pair [u, v]")
        u = _require_int(item[0], "field 'edges', entry {}", i)
        v = _require_int(item[1], "field 'edges', entry {}", i)
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise FormatError(
                f"field 'edges', entry {i}: endpoint out of range for {num_vertices} vertices"
            )
        pairs.append((u, v))
    return tuple(pairs)


def read_graph(text: str) -> Multigraph | Digraph | PlaneGraph:
    """Parse a graph document; the result type follows the "kind" field."""
    doc = _load_json(text, "graph document")
    if not isinstance(doc, dict):
        raise FormatError("graph document: expected a JSON object")
    kind = doc.get("kind")
    if kind not in _GRAPH_FIELDS:
        raise FormatError(f"field 'kind': expected multigraph, digraph or plane, got {kind!r}")
    unknown = set(doc) - _GRAPH_FIELDS[kind]
    if unknown:
        raise FormatError(f"unknown field {sorted(unknown)[0]!r} in {kind} document")
    missing = _GRAPH_FIELDS[kind] - set(doc)
    if missing:
        raise FormatError(f"missing field {sorted(missing)[0]!r} in {kind} document")
    n = _require_int(doc["num_vertices"], "field 'num_vertices'")
    if n < 0:
        raise FormatError("field 'num_vertices': must be nonnegative")
    if n > GRAPH_MAX_VERTICES:
        raise CapacityError(f"field 'num_vertices': limited to {GRAPH_MAX_VERTICES}, got {n}")
    pairs = _edge_pairs(doc["edges"], n)
    if kind == "digraph":
        return Digraph(n, pairs)
    graph = Multigraph(n, pairs)
    if kind == "multigraph":
        return graph
    raw_rot = doc["rotations"]
    if not (isinstance(raw_rot, list) and len(raw_rot) == n):
        raise FormatError(f"field 'rotations': expected {n} arrays, one per vertex")
    rotations = []
    for v, rot in enumerate(raw_rot):
        if not isinstance(rot, list):
            raise FormatError(f"field 'rotations', vertex {v}: expected an array")
        half_edges = []
        for item in rot:
            if not (isinstance(item, list) and len(item) == 2):
                raise FormatError(f"field 'rotations', vertex {v}: expected pairs [edge_id, end]")
            e = _require_int(item[0], "field 'rotations', vertex {}", v)
            s = _require_int(item[1], "field 'rotations', vertex {}", v)
            if not 0 <= e < len(pairs):
                raise FormatError(f"field 'rotations', vertex {v}: unknown edge id {e}")
            if s not in (0, 1):
                raise FormatError(f"field 'rotations', vertex {v}: end must be 0 or 1, got {s}")
            half_edges.append((e, s))
        rotations.append(tuple(half_edges))
    return PlaneGraph(graph, tuple(rotations))


def _canonical_rotation(rot: tuple[tuple[int, int], ...]) -> list[list[int]]:
    if not rot:
        return []
    k = rot.index(min(rot))
    return [[e, s] for e, s in rot[k:] + rot[:k]]


def write_graph(graph: Multigraph | Digraph | PlaneGraph) -> str:
    """Serialize to the canonical document (see module docstring)."""
    if isinstance(graph, PlaneGraph):
        doc: dict[str, Any] = {
            "kind": "plane",
            "num_vertices": graph.num_vertices,
            "edges": [[u, v] for u, v in graph.graph.edges],
            "rotations": [_canonical_rotation(rot) for rot in graph.rotations],
        }
    elif isinstance(graph, Digraph):
        doc = {
            "kind": "digraph",
            "num_vertices": graph.num_vertices,
            "edges": [[u, v] for u, v in graph.arcs],
        }
    else:
        doc = {
            "kind": "multigraph",
            "num_vertices": graph.num_vertices,
            "edges": [[u, v] for u, v in graph.edges],
        }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def read_matrix(text: str) -> Matrix:
    """Parse a matrix document.  The matrix code is imported here, on first
    use, so that reading a graph never loads it."""
    from .matrixfn import Matrix

    doc = _load_json(text, "matrix document")
    if not isinstance(doc, dict):
        raise FormatError("matrix document: expected a JSON object")
    unknown = set(doc) - {"n", "entries"}
    if unknown:
        raise FormatError(f"unknown field {sorted(unknown)[0]!r} in matrix document")
    if "n" not in doc or "entries" not in doc:
        raise FormatError("matrix document: fields 'n' and 'entries' are required")
    n = _require_int(doc["n"], "field 'n'")
    if n < 0:
        raise FormatError("field 'n': must be nonnegative")
    raw = doc["entries"]
    if not (isinstance(raw, list) and len(raw) == n):
        raise FormatError(f"field 'entries': expected {n} rows")
    rows = []
    for i, raw_row in enumerate(raw):
        if not (isinstance(raw_row, list) and len(raw_row) == n):
            raise FormatError(f"field 'entries', row {i}: expected {n} values")
        row = []
        for j, value in enumerate(raw_row):
            where = f"field 'entries', row {i}, column {j}"
            if isinstance(value, str):
                digits = value.removeprefix("-")
                if not (digits.isascii() and digits.isdigit()):
                    raise FormatError(f"{where}: not a decimal integer: {value!r}")
                row.append(_decimal_int(value))
            elif type(value) is int:
                if abs(value) > _SAFE_JSON_INT:
                    raise FormatError(
                        f"{where}: magnitudes above 2^53-1 must be decimal strings"
                    )
                row.append(value)
            else:
                raise FormatError(f"{where}: expected an integer, got {value!r}")
        rows.append(tuple(row))
    return Matrix(tuple(rows))


def write_matrix(matrix: Matrix) -> str:
    """Serialize a matrix; entries above 2^53 - 1 in magnitude become
    decimal strings."""
    entries: list[list[int | str]] = [
        [v if abs(v) <= _SAFE_JSON_INT else _decimal_text(v) for v in row]
        for row in matrix.rows
    ]
    doc = {"n": matrix.n, "entries": entries}
    return json.dumps(doc, separators=(",", ":")) + "\n"
