from __future__ import annotations

import hashlib

import pytest

from fermionant import (
    connected_components,
    disjoint_union,
    exhaustive_plane_graphs,
    faces,
    generate_eulerian_digraph,
    generate_plane_graph,
    write_graph,
)

from conftest import single_edge_plane, loop_plane


def test_plane_determinism_and_minimal():
    g = generate_plane_graph(1, 1)
    assert g.num_edges == 1
    for seed in (0, 1, 7, 42, 999):
        a = generate_plane_graph(seed, 6)
        b = generate_plane_graph(seed, 6)
        assert write_graph(a) == write_graph(b)


def test_plane_validity_500_samples():
    for seed in range(500):
        g = generate_plane_graph(seed, 7)
        assert 1 <= g.num_edges <= 7
        # constructor already enforced planarity; also: no isolated vertices
        assert all(g.graph.degree(v) > 0 for v in range(g.num_vertices))
        assert sum(len(w) for w in faces(g)) == 2 * g.num_edges


def test_plane_family_coverage():
    seen_loop = seen_parallel = seen_bridge = seen_disconnected = seen_tree = False
    for seed in range(400):
        g = generate_plane_graph(seed, 7)
        edges = g.graph.edges
        if any(u == v for u, v in edges):
            seen_loop = True
        simple = [tuple(sorted(e)) for e in edges if e[0] != e[1]]
        if len(simple) != len(set(simple)):
            seen_parallel = True
        c, _ = connected_components(g.graph)
        if c > 1:
            seen_disconnected = True
        if g.num_edges == g.num_vertices - c:
            seen_tree = True
        from fermionant.graphpoly import _bridges

        if _bridges(g.num_vertices, list(edges)):
            seen_bridge = True
    assert seen_loop and seen_parallel and seen_bridge and seen_disconnected and seen_tree


def test_eulerian_balanced_500_samples():
    for seed in range(500):
        d = generate_eulerian_digraph(seed, 8)
        assert 1 <= d.num_arcs <= 8
        for v in range(d.num_vertices):
            assert d.in_degree(v) == d.out_degree(v)


def test_eulerian_determinism():
    for seed in (3, 77, 1234):
        assert generate_eulerian_digraph(seed, 8).arcs == generate_eulerian_digraph(seed, 8).arcs


def test_exhaustive_counts_and_uniqueness():
    def connected(max_edges):
        return [g for g in exhaustive_plane_graphs(max_edges) if connected_components(g.graph)[0] == 1]

    assert len(connected(1)) == 2  # single edge, single loop
    assert len(connected(2)) == 6
    from fermionant.generators import _canonical_map_code

    fam4 = exhaustive_plane_graphs(4)
    assert len(fam4) == 126
    connected_codes = [
        _canonical_map_code(g)
        for g in fam4
        if connected_components(g.graph)[0] == 1
    ]
    assert len(connected_codes) == len(set(connected_codes))


def test_exhaustive_is_deterministic():
    a = [write_graph(g) for g in exhaustive_plane_graphs(3)]
    b = [write_graph(g) for g in exhaustive_plane_graphs(3)]
    assert a == b


def test_canonical_code_identifies_relabelings():
    from fermionant.generators import _canonical_map_code
    from fermionant import Multigraph, PlaneGraph

    # same triangle, edges listed in a different order
    t1 = PlaneGraph(
        Multigraph(3, ((0, 1), (1, 2), (2, 0))),
        (((0, 0), (2, 1)), ((1, 0), (0, 1)), ((2, 0), (1, 1))),
    )
    t2 = PlaneGraph(
        Multigraph(3, ((1, 2), (2, 0), (0, 1))),
        (((2, 0), (1, 1)), ((0, 0), (2, 1)), ((1, 0), (0, 1))),
    )
    assert _canonical_map_code(t1) == _canonical_map_code(t2)
    assert _canonical_map_code(t1) != _canonical_map_code(single_edge_plane())
    assert _canonical_map_code(single_edge_plane()) != _canonical_map_code(loop_plane())


def test_disjoint_union():
    u = disjoint_union(single_edge_plane(), loop_plane())
    assert u.num_vertices == 3
    assert u.num_edges == 2
    assert connected_components(u.graph)[0] == 2


def test_generator_output_is_pinned():
    # sha256 over the serialised output of both plane-graph generators; any
    # change to the graphs they return (ids, order, rotations) changes it
    h = hashlib.sha256()
    for max_edges in range(1, 6):
        for g in exhaustive_plane_graphs(max_edges):
            h.update(write_graph(g).encode())
    for seed in range(200):
        for max_edges in (4, 7, 10, 14):
            h.update(write_graph(generate_plane_graph(seed, max_edges)).encode())
    assert h.hexdigest() == "3ba761d9af25e3a204614ab8a98b6f055cd7e1b551359d3436b1914acf4d11af"


# Every argument check of the generators: a call and the fragment of its message.
REJECTIONS = {
    "plane-max-edges": (lambda: generate_plane_graph(1, 0), "max_edges must be at least 1"),
    "eulerian-max-arcs": (lambda: generate_eulerian_digraph(1, 0), "max_arcs must be at least 1"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_every_argument_rejection(case):
    call, fragment = REJECTIONS[case]
    with pytest.raises(ValueError, match=fragment):
        call()
