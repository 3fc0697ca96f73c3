from __future__ import annotations

import re
import sys

import pytest

from fermionant import (
    Digraph,
    FormatError,
    Multigraph,
    PlaneGraph,
    read_graph,
    read_matrix,
    write_graph,
    write_matrix,
)

from conftest import triangle_plane


def test_read_digraph_minimal():
    doc = '{"kind": "digraph", "num_vertices": 2, "edges": [[0, 1], [1, 0]]}'
    d = read_graph(doc)
    assert isinstance(d, Digraph)
    assert d.arcs == ((0, 1), (1, 0))


def test_read_multigraph_and_plane():
    m = read_graph('{"kind": "multigraph", "num_vertices": 1, "edges": [[0, 0]]}')
    assert isinstance(m, Multigraph)
    p = read_graph(
        '{"kind": "plane", "num_vertices": 2, "edges": [[0, 1]],'
        ' "rotations": [[[0, 0]], [[0, 1]]]}'
    )
    assert isinstance(p, PlaneGraph)


def test_round_trip_canonical(exhaustive4):
    fixtures: list = [g for g in exhaustive4]
    fixtures.append(triangle_plane())
    fixtures.append(Multigraph(3, ((0, 1), (1, 2))))
    fixtures.append(Digraph(2, ((0, 1), (1, 0), (0, 0))))
    for g in fixtures:
        text = write_graph(g)
        assert write_graph(read_graph(text)) == text


def test_rotation_canonicalized_on_write():
    g = Multigraph(1, ((0, 0),))
    a = PlaneGraph(g, (((0, 0), (0, 1)),))
    b = PlaneGraph(g, (((0, 1), (0, 0)),))
    assert write_graph(a) == write_graph(b)


def test_parse_error_carries_position():
    with pytest.raises(FormatError, match="line 1"):
        read_graph('{"kind": "digraph", ')


def test_unknown_and_missing_fields_rejected():
    with pytest.raises(FormatError, match="unknown field"):
        read_graph('{"kind": "digraph", "num_vertices": 1, "edges": [], "color": 3}')
    with pytest.raises(FormatError, match="missing field"):
        read_graph('{"kind": "plane", "num_vertices": 1, "edges": []}')
    with pytest.raises(FormatError, match="kind"):
        read_graph('{"kind": "hypergraph", "num_vertices": 1, "edges": []}')


def test_semantic_rotation_error_names_vertex():
    doc = (
        '{"kind": "plane", "num_vertices": 2, "edges": [[0, 1]],'
        ' "rotations": [[[0, 0], [0, 1]], []]}'
    )
    with pytest.raises(FormatError, match="vertex"):
        read_graph(doc)
    missing = (
        '{"kind": "plane", "num_vertices": 2, "edges": [[0, 1]],'
        ' "rotations": [[[0, 0]], []]}'
    )
    with pytest.raises(FormatError, match="vertex 1"):
        read_graph(missing)


def test_out_of_range_endpoint_rejected():
    with pytest.raises(FormatError, match="entry 1"):
        read_graph('{"kind": "digraph", "num_vertices": 2, "edges": [[0, 1], [0, 2]]}')


def test_matrix_round_trip_with_big_entries():
    big = 2**80
    m = read_matrix(f'{{"n": 2, "entries": [[1, "{big}"], ["-{big}", 0]]}}')
    assert m.rows == ((1, big), (-big, 0))
    text = write_matrix(m)
    assert f'"{big}"' in text
    assert read_matrix(text).rows == m.rows


@pytest.mark.parametrize("text", ["1_000", " 7 ", "+5", "\u0661\u0662"])
def test_matrix_string_entries_are_an_optional_minus_and_ascii_digits(text):
    # int() alone takes underscores, surrounding spaces, a plus sign and
    # non-ASCII digits such as the Arabic-Indic ones
    with pytest.raises(FormatError, match=r"row 0, column 1: not a decimal integer"):
        read_matrix('{"n": 2, "entries": [[1, "%s"], [0, 1]]}' % text)


def test_matrix_rejects_unsafe_numbers_and_floats():
    with pytest.raises(FormatError, match="decimal strings"):
        read_matrix('{"n": 1, "entries": [[9007199254740993]]}')
    with pytest.raises(FormatError, match="row 0, column 0"):
        read_matrix('{"n": 1, "entries": [[1.5]]}')
    with pytest.raises(FormatError, match="not a decimal integer"):
        read_matrix('{"n": 1, "entries": [["12x"]]}')
    with pytest.raises(FormatError, match="unknown field"):
        read_matrix('{"n": 1, "entries": [[1]], "note": "hi"}')
    with pytest.raises(FormatError, match="expected 2 rows"):
        read_matrix('{"n": 2, "entries": [[1, 2]]}')


def _plane(rotations: str) -> str:
    return (
        '{"kind": "plane", "num_vertices": 2, "edges": [[0, 1]], "rotations": %s}' % rotations
    )


# Every boundary rejection of the readers: a document and the positional
# fragment of its message.
REJECTIONS = {
    "graph-not-object": (read_graph, "[1, 2]", "graph document: expected a JSON object"),
    "num-vertices-not-int": (
        read_graph,
        '{"kind": "digraph", "num_vertices": true, "edges": []}',
        "field 'num_vertices': expected an integer, got True",
    ),
    "num-vertices-negative": (
        read_graph,
        '{"kind": "multigraph", "num_vertices": -1, "edges": []}',
        "field 'num_vertices': must be nonnegative",
    ),
    "edges-not-array": (
        read_graph,
        '{"kind": "digraph", "num_vertices": 2, "edges": {"0": [0, 1]}}',
        "field 'edges': expected an array",
    ),
    "edge-not-pair": (
        read_graph,
        '{"kind": "digraph", "num_vertices": 2, "edges": [[0, 1], [0, 1, 1]]}',
        "field 'edges', entry 1: expected a pair [u, v]",
    ),
    "endpoint-not-int": (
        read_graph,
        '{"kind": "multigraph", "num_vertices": 2, "edges": [[0, "1"]]}',
        "field 'edges', entry 0: expected an integer, got '1'",
    ),
    "rotations-count": (
        read_graph,
        _plane("[[[0, 0]]]"),
        "field 'rotations': expected 2 arrays, one per vertex",
    ),
    "rotation-not-array": (
        read_graph,
        _plane("[[[0, 0]], 0]"),
        "field 'rotations', vertex 1: expected an array",
    ),
    "rotation-item-not-pair": (
        read_graph,
        _plane("[[[0]], [[0, 1]]]"),
        "field 'rotations', vertex 0: expected pairs [edge_id, end]",
    ),
    "rotation-edge-unknown": (
        read_graph,
        _plane("[[[0, 0]], [[1, 1]]]"),
        "field 'rotations', vertex 1: unknown edge id 1",
    ),
    "rotation-end-not-0-or-1": (
        read_graph,
        _plane("[[[0, 2]], [[0, 1]]]"),
        "field 'rotations', vertex 0: end must be 0 or 1, got 2",
    ),
    "matrix-not-object": (read_matrix, "[[1]]", "matrix document: expected a JSON object"),
    "matrix-missing-entries": (
        read_matrix,
        '{"n": 1}',
        "matrix document: fields 'n' and 'entries' are required",
    ),
    "matrix-n-negative": (
        read_matrix,
        '{"n": -1, "entries": []}',
        "field 'n': must be nonnegative",
    ),
    "matrix-short-row": (
        read_matrix,
        '{"n": 2, "entries": [[1, 2], [3]]}',
        "field 'entries', row 1: expected 2 values",
    ),
    "matrix-entry-not-int": (
        read_matrix,
        '{"n": 2, "entries": [[1, 2], [3, null]]}',
        "field 'entries', row 1, column 1: expected an integer, got None",
    ),
    "graph-nested-too-deeply": (
        read_graph,
        "[" * 100000,
        "graph document: arrays or objects nested too deeply",
    ),
    "matrix-nested-too-deeply": (
        read_matrix,
        '{"n": 1, "entries": ' + "[" * 100000,
        "matrix document: arrays or objects nested too deeply",
    ),
    "graph-integer-past-the-digit-limit": (
        read_graph,
        '{"kind": "multigraph", "num_vertices": %s, "edges": []}' % ("1" * 5000),
        "graph document: an integer literal has more than",
    ),
    "matrix-integer-past-the-digit-limit": (
        read_matrix,
        '{"n": 1, "entries": [[-%s]]}' % ("1" * 5000),
        "matrix document: an integer literal has more than",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_every_reader_rejection_is_positional(case):
    reader, text, fragment = REJECTIONS[case]
    with pytest.raises(FormatError, match=re.escape(fragment)):
        reader(text)


def test_entries_past_the_int_string_limit_round_trip():
    assert sys.get_int_max_str_digits() < 5000
    big, digits = 10**4999 + 12345, "1" + "0" * 4994 + "12345"
    m = read_matrix('{"n": 2, "entries": [["%s", 1], [0, "-%s"]]}' % (digits, digits))
    assert m.rows == ((big, 1), (0, -big))
    text = write_matrix(m)
    assert text == '{"n":2,"entries":[["%s",1],[0,"-%s"]]}\n' % (digits, digits)
    assert read_matrix(text) == m
