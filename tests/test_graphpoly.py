from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from fermionant import (
    BivarPolynomial,
    Digraph,
    Multigraph,
    PlaneGraph,
    circuit_partition_poly,
    connected_components,
    martin_rhs,
    tutte,
    tutte_diagonal,
    tutte_subgraph_sum,
)

from conftest import cycle_graph, k4, loop_plane, path_graph, single_edge_plane, triangle_plane
from oracles import _component_count, circuit_poly_brute, subgraph_tally_brute


def test_tutte_base_cases():
    assert tutte(Multigraph(2, ((0, 1),))).coeffs == {(1, 0): 1}
    assert tutte(Multigraph(1, ((0, 0),))).coeffs == {(0, 1): 1}
    assert tutte(Multigraph(3, ())).coeffs == {(0, 0): 1}


def test_tutte_triangle_and_digon():
    assert tutte(cycle_graph(3)).coeffs == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert tutte(Multigraph(2, ((0, 1), (0, 1)))).coeffs == {(1, 0): 1, (0, 1): 1}


def test_subgraph_sum_equals_deletion_contraction(multigraph_fixtures):
    for g in multigraph_fixtures:
        if g.num_edges <= 8:
            assert tutte(g) == tutte_subgraph_sum(g), g.edges


def test_tutte_at_two_two_counts_subsets(multigraph_fixtures):
    for g in multigraph_fixtures:
        if g.num_edges <= 10:
            assert tutte(g)(2, 2) == 2**g.num_edges


def test_tutte_of_tree_and_diagonal():
    tree = path_graph(5)
    assert tutte(tree).coeffs == {(4, 0): 1}
    assert tutte_diagonal(tree, 3) == 3**4
    assert tutte_diagonal(cycle_graph(3), -1) == -1
    assert tutte_diagonal(k4(), 2) == 2**6


def test_diagonal_matches_full_polynomial(multigraph_fixtures):
    for g in multigraph_fixtures[:60]:
        if g.num_edges <= 8:
            for x in (-2, -1, 0, 2, 3):
                assert tutte_diagonal(g, x) == tutte(g)(x, x)


def test_isolated_vertices_are_dropped_by_both_tutte_routes():
    """Isolated vertices do not change T, and both routes drop them before
    recursing or transferring: K5 spread over 10^4 + 5 vertices gives K5's
    polynomial, and the tally's peak memory stays at a few MB, where a state
    holding every vertex took over 10 MB."""
    import tracemalloc

    from fermionant.graphpoly import _subgraph_tally

    n = 10**4 + 5
    spread = (0, 2500, 5000, 7500, n - 1)
    k5 = Multigraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
    sparse = Multigraph(n, tuple((spread[u], spread[v]) for u, v in k5.edges))
    expected = tutte(k5)
    assert tutte(sparse) == expected
    assert tutte_subgraph_sum(sparse) == expected
    tracemalloc.start()
    try:
        _subgraph_tally(sparse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 10**6


def fat_edge(p: int) -> BivarPolynomial:
    """x + y + ... + y^(p-1), the Tutte polynomial of p parallel edges."""
    return BivarPolynomial({(1, 0): 1, **{(0, j): 1 for j in range(1, p)}})


def shuffled(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``edges`` with the vertices relabelled at random, each edge
    reoriented at random and the edge order shuffled."""
    label = rng.sample(range(n), n)
    out = [(label[v], label[u]) if rng.random() < 0.5 else (label[u], label[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def random_forest(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """k < n edges, each joining a new vertex to one before it: a forest on
    vertices 0..n-1, relabelled and shuffled by the caller."""
    joined = sorted(rng.sample(range(1, n), k))
    return [(rng.randrange(v), v) for v in joined]


def test_tutte_parallel_classes_closed_forms():
    """p parallel edges give x + y + ... + y^(p-1), a path of classes the
    product of those sums, and two triangles joined by a class of 3 (a
    bridge class: G - P falls apart) T(triangle)^2 * (x + y + y^2).  The
    class is stepped first in the order given (its ids are highest), and
    relabelled vertices, reoriented edges and shuffled ids give the same
    polynomial."""
    for p in range(1, 9):
        assert tutte(Multigraph(2, ((0, 1),) * p)) == fat_edge(p), p
    classes = (3, 1, 4, 2, 4)
    path = [(i, i + 1) for i, p in enumerate(classes) for _ in range(p)]
    path_poly = BivarPolynomial.monomial(0, 0)
    for p in classes:
        path_poly = path_poly * fat_edge(p)
    triangle = tutte(cycle_graph(3))
    joined = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] + [(2, 3)] * 3
    rng = random.Random(34)
    for n, edges, expected in ((6, path, path_poly), (6, joined, triangle * triangle * fat_edge(3))):
        assert tutte(Multigraph(n, tuple(edges))) == expected
        for _ in range(6):
            edges = shuffled(rng, n, edges)
            assert tutte(Multigraph(n, tuple(edges))) == expected, edges


def test_tutte_matches_subgraph_sum_on_multigraphs_with_classes():
    """Seeded multigraphs of up to 14 edges, drawn a class at a time, so
    they mix loops, big classes, bridge classes (a class of p >= 2 whose
    removal splits the graph), isolated vertices and the 14-edge cap."""
    rng = random.Random(35)
    seen = set()
    for trial in range(150):
        n = rng.randint(1, 7)
        size = rng.randint(0, 14)
        edges: list[tuple[int, int]] = []
        while len(edges) < size:
            pair = (rng.randrange(n), rng.randrange(n))
            edges += [pair] * min(rng.choice((1, 1, 2, 3, 5)), size - len(edges))
        rng.shuffle(edges)
        g = Multigraph(n, tuple(edges))
        assert tutte(g) == tutte_subgraph_sum(g), (n, edges)
        c = _component_count(n, edges)
        class_sizes = Counter((min(u, v), max(u, v)) for u, v in edges if u != v)
        features = {
            "loop": any(u == v for u, v in edges),
            "big class": any(p >= 3 for p in class_sizes.values()),
            "bridge class": any(
                p >= 2 and _component_count(n, [e for e in edges if {*e} != {*pair}]) > c
                for pair, p in class_sizes.items()
            ),
            "isolated": len({w for e in edges for w in e}) < n,
            "cap": size == 14,
        }
        seen.update(name for name, present in features.items() if present)
    assert seen == {"loop", "big class", "bridge class", "isolated", "cap"}


def test_tutte_steps_each_parallel_class_once(monkeypatch):
    """Each recursion node with a non-loop edge calls ``_spanning_forest``
    once, on G - P, so wrapping it counts those nodes.  The fat triangle
    with classes 5, 5 and 4 takes 4 of them, and p parallel edges 1 (a
    bridge class); stepping one edge at a time took 129 nodes and 2p - 1."""
    from fermionant import graphpoly

    fat = Multigraph(3, ((0, 1),) * 5 + ((1, 2),) * 5 + ((0, 2),) * 4)
    expected = tutte_subgraph_sum(fat)
    calls = []
    forest = graphpoly._spanning_forest

    def counted(n: int, edges: list[tuple[int, int]]):
        calls.append(n)
        return forest(n, edges)

    monkeypatch.setattr(graphpoly, "_spanning_forest", counted)
    assert tutte(fat) == expected
    assert len(calls) < 20
    calls.clear()
    assert tutte(Multigraph(2, ((0, 1),) * 8)) == fat_edge(8)
    assert len(calls) == 1


def test_tutte_bridges_closed_forms():
    """Every non-loop edge of a forest is a bridge, so a forest of k edges
    with l loops gives x^k * y^l; a single bridge joining a class of p to a
    class of q gives (x + ... + y^(p-1)) * x * (x + ... + y^(q-1)).  Each is
    checked under relabelled vertices, reoriented edges and shuffled ids."""
    rng = random.Random(36)
    for trial in range(60):
        n = rng.randint(1, 12)
        k = rng.randint(0, min(n - 1, 11))
        loops = rng.randint(0, 14 - k)
        edges = random_forest(rng, n, k) + [(w, w) for w in rng.choices(range(n), k=loops)]
        expected = BivarPolynomial.monomial(k, loops)
        for _ in range(3):
            assert tutte(Multigraph(n, tuple(shuffled(rng, n, edges)))) == expected, (n, edges)
    for p in range(1, 7):
        for q in range(1, 7):
            edges = [(0, 1)] * p + [(1, 2)] + [(2, 3)] * q
            expected = fat_edge(p) * BivarPolynomial.monomial(1, 0) * fat_edge(q)
            for _ in range(3):
                assert tutte(Multigraph(4, tuple(shuffled(rng, 4, edges)))) == expected, (p, q)


def test_tutte_matches_subgraph_sum_on_bridge_heavy_multigraphs():
    """Seeded forests of up to 14 edges with loops and parallel classes
    added (each extra copy of a forest edge turns its bridge into a class),
    isolated vertices and several trees, so most steps are bridge classes."""
    rng = random.Random(37)
    seen = set()
    for trial in range(150):
        n = rng.randint(1, 12)
        k = rng.randint(0, min(n - 1, 10))
        edges = random_forest(rng, n, k)
        while len(edges) < 14 and rng.random() < 0.7:
            if edges and rng.random() < 0.6:
                edges += [rng.choice(edges)] * rng.randint(1, min(3, 14 - len(edges)))
            else:
                w = rng.randrange(n)
                edges.append((w, w))
        edges = shuffled(rng, n, edges)
        g = Multigraph(n, tuple(edges))
        assert tutte(g) == tutte_subgraph_sum(g), (n, edges)
        c = _component_count(n, edges)
        class_sizes = Counter((min(u, v), max(u, v)) for u, v in edges if u != v)
        features = {
            "loop": any(u == v for u, v in edges),
            "bridge": any(p == 1 for p in class_sizes.values()),
            "bridge class": any(p >= 2 for p in class_sizes.values()),
            "isolated": len({w for e in edges for w in e}) < n,
            "trees": c - (n - len({w for e in edges for w in e})) > 1,
            "cap": len(edges) == 14,
        }
        seen.update(name for name, present in features.items() if present)
    assert seen == {"loop", "bridge", "bridge class", "isolated", "trees", "cap"}


def test_subgraph_tally_matches_brute_force():
    """The connectivity-state tally against every edge subset visited one by
    one, on multigraphs mixing loops, parallel edges, isolated vertices,
    several components and the empty graph."""
    from fermionant.graphpoly import _subgraph_tally

    rng = random.Random(31)
    seen = set()
    for trial in range(420):
        n = rng.randint(0, 6)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9) if n else 0)
        )
        if edges and rng.random() < 0.4:
            edges += (rng.choice(edges),)
        assert _subgraph_tally(Multigraph(n, edges)) == subgraph_tally_brute(n, edges), (n, edges)
        c, _ = connected_components(Multigraph(n, edges))
        touched = len({w for e in edges for w in e})
        features = {
            "empty": n == 0,
            "loop": any(u == v for u, v in edges),
            "parallel": any(u != v and edges.count((u, v)) > 1 for u, v in edges),
            "isolated": touched < n,
            "components": c - (n - touched) > 1,  # components that have edges
        }
        seen.update(name for name, present in features.items() if present)
    assert seen == {"empty", "loop", "parallel", "isolated", "components"}


def test_circuit_poly_matches_brute_force():
    """Transition systems counted by the chain-linking search against the
    product of per-vertex bijections, on balanced digraphs (unions of random
    closed walks) with loops, parallel arcs, isolated vertices and vertices
    of in-degree 3 or more.  The search closes the last vertex with a choice
    by Stirling numbers, so the draws also cover that vertex with in-degree
    3 or more, that vertex with a loop, and one vertex with a choice alone."""
    rng = random.Random(47)
    seen = set()
    for trial in range(320):
        active = rng.randint(1, 4)
        n = active + rng.randint(0, 2)
        budget = rng.randint(0, 7)
        arcs: list[tuple[int, int]] = []
        while budget > 0:
            length = rng.randint(1, budget)
            walk = [rng.randrange(active) for _ in range(length)]
            arcs += [(walk[i], walk[(i + 1) % length]) for i in range(length)]
            budget -= length
        got = circuit_partition_poly(Digraph(n, tuple(arcs))).coeffs
        assert got == circuit_poly_brute(n, arcs), (n, arcs)
        in_degree = [sum(1 for _, v in arcs if v == w) for w in range(n)]
        choosing = [w for w in range(n) if in_degree[w] > 1]
        features = {
            "loop": any(u == v for u, v in arcs),
            "parallel": any(u != v and arcs.count((u, v)) > 1 for u, v in arcs),
            "isolated": 0 in in_degree,
            "in_degree_3": max(in_degree) >= 3,
            "several_circuits": len(got) > 2,
            "last_in_degree_3": bool(choosing) and in_degree[choosing[-1]] >= 3,
            "last_loop": bool(choosing) and (choosing[-1], choosing[-1]) in arcs,
            "one_choosing_vertex": len(choosing) == 1,
        }
        seen.update(name for name, present in features.items() if present)
    assert seen == {
        "loop", "parallel", "isolated", "in_degree_3", "several_circuits",
        "last_in_degree_3", "last_loop", "one_choosing_vertex",
    }


def test_circuit_poly_long_closed_walks():
    """Arcs into a vertex of out-degree 1 have no choice, so a long closed
    walk costs no search depth: a 2000-arc directed cycle has the single
    one-circuit system, and a 1200-vertex walk through a few vertices more
    than once matches the per-vertex bijections."""
    n = 2000
    cycle = tuple((i, (i + 1) % n) for i in range(n))
    assert circuit_partition_poly(Digraph(n, cycle)).coeffs == (0, 1)

    def closed_walk(walk: list[int]) -> tuple[tuple[int, int], ...]:
        return tuple((walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk)))

    # vertex 0 three times: the systems are S_3, counted by z(z+1)(z+2)
    walk = [*range(400), 0, *range(400, 800), 0, *range(800, 1200)]
    assert circuit_partition_poly(Digraph(1200, closed_walk(walk))).coeffs == (0, 2, 3, 1)
    arcs = closed_walk([*range(1200), 100, 500, 900])
    got = circuit_partition_poly(Digraph(1200, arcs)).coeffs
    assert got == circuit_poly_brute(1200, arcs)
    assert len(got) > 2


def test_deletion_contraction_consistency():
    """T(G) = T(G - e) + T(G/e) for an edge e that is neither a loop nor a
    bridge; an edge is a bridge when removing it raises the component
    count."""
    rng = random.Random(9)
    for trial in range(30):
        n = rng.randint(3, 5)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(2, 7))
        )
        g = Multigraph(n, edges)
        c = _component_count(n, edges)
        candidates = [
            e
            for e in range(len(edges))
            if edges[e][0] != edges[e][1] and _component_count(n, edges[:e] + edges[e + 1 :]) == c
        ]
        if not candidates:
            continue
        e = rng.choice(candidates)
        u, v = edges[e]
        rest = edges[:e] + edges[e + 1 :]
        deleted = Multigraph(n, rest)
        lo, hi = min(u, v), max(u, v)
        contracted_edges = tuple(
            (a if a != hi else lo, b if b != hi else lo) for a, b in rest
        )
        contracted_edges = tuple(
            (a - 1 if a > hi else a, b - 1 if b > hi else b) for a, b in contracted_edges
        )
        contracted = Multigraph(n - 1, contracted_edges)
        assert tutte(g) == tutte(deleted) + tutte(contracted)


def test_circuit_poly_examples():
    for m in (1, 2, 5):
        arcs = tuple((i, (i + 1) % m) for i in range(m))
        assert circuit_partition_poly(Digraph(m, arcs)).coeffs == (0, 1)
    two_loops = Digraph(1, ((0, 0), (0, 0)))
    assert circuit_partition_poly(two_loops).coeffs == (0, 1, 1)
    disjoint = Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    assert circuit_partition_poly(disjoint).coeffs == (0, 0, 1)
    assert circuit_partition_poly(Digraph(3, ())).coeffs == (1,)


def test_circuit_poly_loop_bouquet_closes_without_search():
    """A bouquet of d loops: the systems are S_d, and each cycle of the
    permutation is a circuit, so j(z) is the rising factorial
    z(z+1)...(z+d-1).  Its one vertex is the last with a choice, so the
    count is closed by Stirling numbers, not by visiting the 10! systems
    at d = 10 (about 2 s when they were visited one by one)."""
    rising = [1]
    start = time.perf_counter()
    for d in range(1, 11):
        rising = [(d - 1) * c + lower for c, lower in zip([*rising, 0], [0, *rising])]
        assert circuit_partition_poly(Digraph(1, ((0, 0),) * d)).coeffs == tuple(rising)
    assert time.perf_counter() - start < 0.1


def test_circuit_poly_rejects_unbalanced():
    with pytest.raises(ValueError, match="vertex 0 is not Eulerian"):
        circuit_partition_poly(Digraph(2, ((0, 1),)))


def test_circuit_poly_checks_balance_before_counting_systems():
    """Vertex 0's eleven loops alone exceed the system cap, but vertex 1 is
    unbalanced, so the input is rejected before any count is taken."""
    lopsided = Digraph(3, ((0, 0),) * 11 + ((1, 2),))
    with pytest.raises(ValueError, match="vertex 1 is not Eulerian"):
        circuit_partition_poly(lopsided)


def test_circuit_poly_shape_properties():
    from fermionant import generate_eulerian_digraph

    for seed in range(80):
        d = generate_eulerian_digraph(seed, 8)
        j = circuit_partition_poly(d)
        assert j.degree <= d.num_arcs
        assert all(c >= 0 for c in j.coeffs)
        assert sum(c for c in j.coeffs) > 0


def test_martin_rhs_examples():
    assert martin_rhs(single_edge_plane()).coeffs == (0, 1, 1)
    one_vertex = martin_rhs(PlaneGraph(Multigraph(1, ()), ((),)))
    assert one_vertex.coeffs == (0, 1)
    assert martin_rhs(triangle_plane()).coeffs == (0, 3, 4, 1)
    assert martin_rhs(loop_plane()).coeffs == (0, 1, 1)
