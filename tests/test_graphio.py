from __future__ import annotations

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
