from __future__ import annotations

import random

import pytest

from fermionant import (
    Digraph,
    Multigraph,
    PlaneGraph,
    adjacency_matrix,
    bicycle_dimension,
    circuit_partition_poly,
    connected_components,
    ferm2_medial_closed_form,
    fermionant,
    generate_eulerian_digraph,
    generate_plane_graph,
    line_digraph,
    medial,
    tutte,
    tutte_diagonal,
)
from fermionant.transforms import medial_line_adjacency

from conftest import (
    cycle_graph,
    digon_plane,
    k4,
    path_graph,
    single_edge_plane,
    triangle_plane,
)
from oracles import _component_count


def test_medial_examples():
    m = medial(single_edge_plane())
    assert m.num_vertices == 1
    assert m.arcs == ((0, 0), (0, 0))
    mt = medial(triangle_plane())
    assert mt.num_vertices == 3 and mt.num_arcs == 6
    md = medial(digon_plane())
    assert md.num_vertices == 2 and md.num_arcs == 4


def test_medial_rejects_edgeless():
    # every transform that needs an edge, on the edgeless one-vertex plane graph
    for transform in (medial, ferm2_medial_closed_form):
        with pytest.raises(ValueError, match="medial graph requires at least one edge"):
            transform(PlaneGraph(Multigraph(1, ()), ((),)))


def test_medial_degree_law(exhaustive4):
    fixtures = list(exhaustive4) + [generate_plane_graph(s, 8) for s in range(30)]
    for plane in fixtures:
        m = medial(plane)
        assert m.num_arcs == 2 * plane.num_edges
        for v in range(m.num_vertices):
            assert m.in_degree(v) == 2 and m.out_degree(v) == 2


def test_line_digraph_examples():
    tri = Digraph(3, ((0, 1), (1, 2), (2, 0)))
    lt = line_digraph(tri)
    assert lt.num_vertices == 3 and lt.num_arcs == 3
    assert line_digraph(Digraph(1, ((0, 0),))).arcs == ((0, 0),)
    path = Digraph(3, ((0, 1), (1, 2)))
    assert line_digraph(path).num_vertices == 2
    assert line_digraph(path).num_arcs == 1


def test_line_digraph_degrees():
    d = generate_eulerian_digraph(12, 8)
    ld = line_digraph(d)
    for a, (_, head) in enumerate(d.arcs):
        assert ld.out_degree(a) == d.out_degree(head)


def test_line_digraph_is_the_pairwise_definition():
    # seeded digraphs, not only Eulerian ones: loops, parallel arcs, sinks
    rng = random.Random(29)
    loops = parallels = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        arcs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14)))
        loops += any(u == v for u, v in arcs)
        parallels += len(set(arcs)) < len(arcs)
        pairwise = tuple(
            (a, b)
            for a, (_, head) in enumerate(arcs)
            for b, (tail, _) in enumerate(arcs)
            if head == tail
        )
        assert line_digraph(Digraph(n, arcs)) == Digraph(len(arcs), pairwise), arcs
    assert loops and parallels


def test_signed_line_digraph_identity():
    for seed in range(120):
        h = generate_eulerian_digraph(seed, 8)
        j = circuit_partition_poly(h)
        sign = -1 if h.num_arcs % 2 else 1
        a_e = adjacency_matrix(line_digraph(h))
        for k in (1, 2, 3):
            assert fermionant(a_e, k, "dp") == sign * j(-k), (seed, k)


def test_sign_vacuous_on_medials(exhaustive4):
    for plane in exhaustive4[:60]:
        h = medial(plane)
        assert h.num_arcs % 2 == 0
        j = circuit_partition_poly(h)
        a_e = adjacency_matrix(line_digraph(h))
        for k in (1, 2, 3):
            assert fermionant(a_e, k, "dp") == j(-k)


def test_headline_identity(exhaustive4):
    fixtures = list(exhaustive4) + [generate_plane_graph(s * 3 + 1, 6) for s in range(40)]
    for plane in fixtures:
        a_me = medial_line_adjacency(plane)
        c, _ = connected_components(plane.graph)
        for k in (1, 2, 3):
            lhs = fermionant(a_me, k, "dp")
            assert lhs == (-k) ** c * tutte_diagonal(plane.graph, 1 - k), (plane, k)


def mirror(plane: PlaneGraph) -> PlaneGraph:
    return PlaneGraph(plane.graph, tuple(tuple(reversed(rot)) for rot in plane.rotations))


def test_chirality_reversal(exhaustive4):
    fixtures = list(exhaustive4)[:80] + [generate_plane_graph(s + 5, 7) for s in range(20)]
    for plane in fixtures:
        m = medial(plane)
        mm = medial(mirror(plane))
        assert sorted(mm.arcs) == sorted((b, a) for a, b in m.arcs)
        assert circuit_partition_poly(mm) == circuit_partition_poly(m)


def test_bicycle_examples():
    assert bicycle_dimension(path_graph(6)) == 0
    assert bicycle_dimension(cycle_graph(3)) == 0
    assert bicycle_dimension(k4()) == 2
    assert bicycle_dimension(Multigraph(3, ())) == 0
    assert bicycle_dimension(cycle_graph(4)) == 1  # even cycle is its own cut


def bicycle_dimension_brute(graph) -> int:
    """Independent oracle: enumerate all edge subsets, keep those that are
    simultaneously in the cycle space (even degree at every vertex) and in
    the cut space (the boundary of some vertex subset); the intersection is
    a GF(2) subspace, so its size is a power of two."""
    n, m = graph.num_vertices, graph.num_edges
    cuts = set()
    for vmask in range(1 << n):
        boundary = 0
        for eid, (u, v) in enumerate(graph.edges):
            if (vmask >> u & 1) != (vmask >> v & 1):
                boundary |= 1 << eid
        cuts.add(boundary)
    both = 0
    for emask in range(1 << m):
        degree_parity = 0
        for eid, (u, v) in enumerate(graph.edges):
            if emask >> eid & 1 and u != v:
                degree_parity ^= (1 << u) | (1 << v)
        if degree_parity == 0 and emask in cuts:
            both += 1
    return both.bit_length() - 1


def test_bicycle_against_subset_enumeration(multigraph_fixtures):
    """The fixtures, then seeded multigraphs mixing loops, parallel edges,
    isolated vertices, several components, the empty graph and nonzero
    bicycle dimensions."""
    for g in multigraph_fixtures[:80]:
        if g.num_edges <= 7 and g.num_vertices <= 8:
            assert bicycle_dimension(g) == bicycle_dimension_brute(g), g.edges
    rng = random.Random(21)
    seen = set()
    for trial in range(300):
        n = rng.randint(0, 7)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9) if n else 0)
        )
        if edges and rng.random() < 0.4:
            edges += (rng.choice(edges),)
        g = Multigraph(n, edges)
        dim = bicycle_dimension(g)
        assert dim == bicycle_dimension_brute(g), (n, edges)
        touched = len({w for e in edges for w in e})
        features = {
            "bicycle": dim > 0,
            "empty": n == 0,
            "loop": any(u == v for u, v in edges),
            "parallel": any(u != v and edges.count((u, v)) > 1 for u, v in edges),
            "isolated": touched < n,
            "components": _component_count(n, edges) - (n - touched) > 1,
        }
        seen.update(name for name, present in features.items() if present)
    assert seen == {"bicycle", "empty", "loop", "parallel", "isolated", "components"}


def test_bicycle_tutte_point(multigraph_fixtures):
    for g in multigraph_fixtures:
        if g.num_edges <= 8:
            assert tutte(g)(-1, -1) == (-1) ** g.num_edges * (-2) ** bicycle_dimension(g)


def test_ferm2_closed_form_examples():
    assert ferm2_medial_closed_form(single_edge_plane()) == 2
    assert ferm2_medial_closed_form(triangle_plane()) == 2
    # connected trees: components 1, bicycle dimension 0
    path = PlaneGraph(
        Multigraph(4, ((0, 1), (1, 2), (2, 3))),
        (((0, 0),), ((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1),)),
    )
    assert ferm2_medial_closed_form(path) == (-2) * (-1) ** 3


def test_ferm2_closed_form_matches_direct(exhaustive5):
    for plane in exhaustive5:
        direct = fermionant(medial_line_adjacency(plane), 2, "dp")
        assert direct == ferm2_medial_closed_form(plane), plane
