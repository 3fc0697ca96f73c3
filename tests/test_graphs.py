from __future__ import annotations

import re
import tracemalloc

import pytest

from fermionant import (
    Digraph,
    FormatError,
    Multigraph,
    PlaneGraph,
    adjacency_matrix,
    connected_components,
    faces,
    generate_plane_graph,
)

from conftest import digon_plane, loop_plane, single_edge_plane, triangle_plane


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 2),))
    g = Multigraph(3, ((0, 1), (1, 1)))
    assert g.degree(1) == 3
    assert g.is_loop(1)


def test_graph_constructors_reject_non_integers():
    """Vertex counts, endpoints and half-edges must be ints, not floats or
    bools; the message names the edge or arc by position, or the rotation
    item by its vertex."""
    with pytest.raises(ValueError, match="edge 0 endpoints"):
        Multigraph(2, ((0, 1.0),))
    with pytest.raises(ValueError, match="num_vertices"):
        Multigraph(2.0, ((0, 1),))
    with pytest.raises(ValueError, match="arc 1 endpoints"):
        Digraph(2, ((0, 1), (0, 1.5)))
    with pytest.raises(ValueError, match="num_vertices"):
        Digraph(True, ())
    with pytest.raises(ValueError, match="edge 0 endpoints"):
        Multigraph(2, ((False, 1),))
    with pytest.raises(ValueError, match="arc 0 endpoints"):
        Digraph(2, ((0, True),))
    with pytest.raises(ValueError, match="arc 0 endpoints \\(0, 2\\) out of range"):
        Digraph(2, ((0, 2),))
    assert Digraph(2, [[0, 1], [1, 0]]).arcs == ((0, 1), (1, 0))
    # a rotation item must be a pair of ints: a bool or a float would be
    # written as a document that the reader rejects
    edge = Multigraph(2, ((0, 1),))
    for item in ((0, True), (0.0, 0), (0, 0, 0), 0):
        with pytest.raises(FormatError, match=re.escape(f"rotation at vertex 0 lists {item!r}")):
            PlaneGraph(edge, ((item,), ((0, 1),)))
    assert PlaneGraph(edge, ([[0, 0]], [[0, 1]])).rotations == (((0, 0),), ((0, 1),))


def test_faces_single_edge():
    walks = faces(single_edge_plane())
    assert len(walks) == 1
    assert len(walks[0]) == 2


def test_faces_loop():
    walks = faces(loop_plane())
    assert len(walks) == 2
    assert all(len(w) == 1 for w in walks)


def test_faces_triangle():
    walks = faces(triangle_plane())
    assert len(walks) == 2
    assert sorted(len(w) for w in walks) == [3, 3]


def test_face_walks_cover_every_half_edge(exhaustive4):
    fixtures = list(exhaustive4) + [generate_plane_graph(s, 10) for s in range(40)]
    for plane in fixtures:
        walks = faces(plane)
        darts = [d for w in walks for d in w]
        assert len(darts) == 2 * plane.num_edges
        assert len(set(darts)) == len(darts)


def test_euler_relation_single_edge_component(exhaustive4):
    for plane in exhaustive4:
        g = plane.graph
        c, labels = connected_components(g)
        edged = {labels[u] for u, _ in g.edges}
        if len(edged) <= 1:
            assert g.num_vertices - g.num_edges + len(faces(plane)) == 1 + c


def test_isolated_vertex_is_legal():
    g = Multigraph(3, ((0, 1),))
    plane = PlaneGraph(g, (((0, 0),), ((0, 1),), ()))
    assert len(faces(plane)) == 1
    c, _ = connected_components(g)
    assert g.num_vertices - g.num_edges + len(faces(plane)) == 1 + c


def test_nonplanar_rotation_rejected():
    # two interleaved loops at one vertex embed only on the torus
    g = Multigraph(1, ((0, 0), (0, 0)))
    with pytest.raises(FormatError):
        PlaneGraph(g, (((0, 0), (1, 0), (0, 1), (1, 1)),))
    # nested loops are fine
    PlaneGraph(g, (((0, 0), (1, 0), (1, 1), (0, 1)),))


def test_malformed_rotations_rejected():
    g = Multigraph(2, ((0, 1),))
    with pytest.raises(FormatError, match="vertex 0"):
        PlaneGraph(g, ((), ((0, 1),)))            # missing half-edge
    with pytest.raises(FormatError, match="duplicated"):
        PlaneGraph(g, (((0, 0), (0, 0)), ((0, 1),)))
    with pytest.raises(FormatError, match="belonging"):
        PlaneGraph(g, (((0, 1),), ((0, 0),)))     # swapped ends
    with pytest.raises(FormatError, match="unknown"):
        PlaneGraph(g, (((1, 0),), ((0, 1),)))


def test_adjacency_matrix_digraph():
    d = Digraph(2, ((0, 1), (1, 0)))
    assert adjacency_matrix(d).rows == ((0, 1), (1, 0))
    loop = Digraph(1, ((0, 0),))
    assert adjacency_matrix(loop).rows == ((1,),)
    par = Digraph(2, ((0, 1), (0, 1)))
    assert adjacency_matrix(par).rows == ((0, 2), (0, 0))


def test_adjacency_matrix_multigraph():
    g = Multigraph(2, ((0, 1), (0, 1), (0, 0)))
    assert adjacency_matrix(g).rows == ((1, 2), (2, 0))


def test_adjacency_degree_sums():
    d = Digraph(4, ((0, 1), (0, 2), (2, 2), (3, 0), (1, 3), (1, 3)))
    m = adjacency_matrix(d)
    for v in range(4):
        assert sum(m.rows[v]) == d.out_degree(v)
        assert sum(row[v] for row in m.rows) == d.in_degree(v)


def test_connected_components():
    assert connected_components(Multigraph(4, ()))[0] == 4
    tri_plus = Multigraph(4, ((0, 1), (1, 2), (2, 0)))
    assert connected_components(tri_plus)[0] == 2
    assert connected_components(Digraph(3, ((0, 1), (1, 2))))[0] == 1
    # labels run 0, 1, ... in order of each component's first vertex
    assert connected_components(Multigraph(5, ((0, 1), (3, 4)))) == (3, [0, 0, 1, 2, 2])
    assert connected_components(Digraph(5, ((4, 0), (3, 1), (2, 3)))) == (2, [0, 1, 1, 1, 0])
    assert connected_components(Multigraph(4, ((2, 1), (3, 3)))) == (3, [0, 1, 1, 2])


def test_digon_faces():
    walks = faces(digon_plane())
    assert len(walks) == 2
    assert all(len(w) == 2 for w in walks)


# Constructor rejections: a call, the exception type and the positional
# fragment of its message.
REJECTIONS = {
    "num-vertices-negative": (
        lambda: Multigraph(-1, ()), ValueError, "num_vertices must be nonnegative"
    ),
    "rotation-count": (
        lambda: PlaneGraph(Multigraph(2, ((0, 1),)), (((0, 0),),)),
        FormatError,
        "expected one rotation per vertex (2), got 1",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_every_constructor_rejection(case):
    call, error, fragment = REJECTIONS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_connected_components_of_a_long_path_stays_linear_in_memory():
    # a root-path bitmask per vertex would hold n^2/2 bits, 100 MB here
    n = 40_000
    path = Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))
    tracemalloc.start()
    try:
        count, labels = connected_components(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1 and labels == [0] * n
    assert peak < 25 * 2**20
