from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from fermionant import (
    CapacityError,
    Multigraph,
    adjacency_matrix,
    connected_components,
    count_hamiltonian_cycles,
    fermionant,
    ham_parity_via_ferm2,
)

from fermionant import hamilton
from fermionant.hamilton import HAMILTONIAN_MAX_N

from conftest import cycle_graph, k4, path_graph, petersen


def random_simple_graph(rng, n, p):
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    return Multigraph(n, edges)


def relabel(graph, rng):
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    return Multigraph(graph.num_vertices, tuple((perm[u], perm[v]) for u, v in graph.edges))


def complete_graph(n):
    return Multigraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a, b):
    return Multigraph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


def test_count_examples():
    for n in (3, 5, 8):
        assert count_hamiltonian_cycles(cycle_graph(n)) == 1
    assert count_hamiltonian_cycles(path_graph(6)) == 0
    assert count_hamiltonian_cycles(k4()) == 3
    assert count_hamiltonian_cycles(petersen()) == 0
    assert count_hamiltonian_cycles(Multigraph(2, ((0, 1),))) == 0
    assert count_hamiltonian_cycles(Multigraph(1, ())) == 0


def test_count_ignores_parallel_edges_and_loops():
    doubled = Multigraph(4, ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 1)))
    assert count_hamiltonian_cycles(doubled) == 1


def test_count_complete_graphs():
    # (n-1)!/2 undirected Hamiltonian cycles in K_n, whatever the labelling
    rng = random.Random(1962)
    for n in range(3, 17):
        expected = 1
        for i in range(2, n):
            expected *= i
        kn = complete_graph(n)
        assert count_hamiltonian_cycles(kn) == expected // 2, n
        assert count_hamiltonian_cycles(relabel(kn, rng)) == expected // 2, n


def ham_count_brute(graph):
    """Independent oracle: extend simple walks from vertex 0 one edge at a
    time, count those that reach every vertex and have an edge back to 0,
    then divide by the two traversal directions."""
    n = graph.num_vertices
    adj = [0] * n
    for u, v in graph.edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    full = (1 << n) - 1

    def walks(v, seen):
        if seen == full:
            return adj[v] & 1
        total = 0
        free = adj[v] & ~seen
        while free:
            low = free & -free
            total += walks(low.bit_length() - 1, seen | low)
            free ^= low
        return total

    return walks(0, 1) // 2


def test_count_matches_brute_enumeration():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randint(3, 7)
        g = random_simple_graph(rng, n, rng.choice((0.4, 0.6, 0.9)))
        assert count_hamiltonian_cycles(g) == ham_count_brute(g), (n, g.edges)


def test_parity_checks_the_dp_bound_before_building_the_matrix(monkeypatch):
    def no_matrix(graph):
        raise AssertionError("adjacency matrix built past the dp bound")

    monkeypatch.setattr(hamilton, "adjacency_matrix", no_matrix)
    with pytest.raises(CapacityError):
        ham_parity_via_ferm2(cycle_graph(21))


def test_parity_examples():
    c5 = cycle_graph(5)
    assert fermionant(adjacency_matrix(c5), 2, "brute") == 4
    assert ham_parity_via_ferm2(c5) == 1
    assert ham_parity_via_ferm2(petersen()) == 0


def test_mod4_guard_reports_consistency_error(monkeypatch):
    # ham_parity_via_ferm2 imports the dp from matrixfn on each call, so the
    # dp is patched where it is defined
    import fermionant.matrixfn as matrixfn_module
    from fermionant import ConsistencyError

    monkeypatch.setattr(matrixfn_module, "fermionant", lambda *a, **kw: 5)
    with pytest.raises(ConsistencyError, match="divisible by 4"):
        ham_parity_via_ferm2(cycle_graph(5))


def test_parity_rejects_small_and_non_simple():
    with pytest.raises(ValueError):
        ham_parity_via_ferm2(k4())
    with pytest.raises(ValueError, match="loop"):
        ham_parity_via_ferm2(Multigraph(5, ((0, 0), (0, 1), (1, 2), (2, 3), (3, 4))))
    with pytest.raises(ValueError, match="repeated"):
        ham_parity_via_ferm2(Multigraph(5, ((0, 1), (0, 1), (1, 2), (2, 3), (3, 4))))


def test_divisibility_and_parity_agreement():
    rng = random.Random(2024)
    for i in range(120):
        n = 5 + i % 5
        p = (0.3, 0.5, 0.8)[(i // 5) % 3]
        g = random_simple_graph(rng, n, p)
        f = fermionant(adjacency_matrix(g), 2, "dp")
        assert f % 4 == 0, (n, g.edges)
        assert ham_parity_via_ferm2(g) == count_hamiltonian_cycles(g) % 2, (n, g.edges)


def test_parity_matches_held_karp_on_dense_graphs_past_the_convolution_crossover():
    # dense G(n, 0.7), n = 12..14: 0/1 symmetric inputs whose top cover
    # levels run as subset convolutions, checked by the Held-Karp count
    rng = random.Random(2026)
    parities = set()
    for n in (12, 12, 13, 13, 14, 14):
        g = random_simple_graph(rng, n, 0.7)
        parity = count_hamiltonian_cycles(g) % 2
        assert ham_parity_via_ferm2(g) == parity, (n, g.edges)
        parities.add(parity)
    assert parities == {0, 1}


def test_orientation_factor_on_odd_cycles():
    # odd cycles admit no 2-cycle covers, so the only covers are the two
    # orientations of the Hamiltonian cycle
    for n in (5, 7, 9):
        cn = cycle_graph(n)
        f = fermionant(adjacency_matrix(cn), 2, "dp")
        assert f == (-1) ** (n + 1) * 4 * count_hamiltonian_cycles(cn)


def noisy_multigraph(rng, n):
    """Seeded graph on n vertices with loops and parallel edges, and now and
    then an isolated vertex or an edge cut that splits it in two."""
    p = rng.choice((0.5, 0.8, 1.0))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    shape = rng.choice(("whole", "whole", "isolated", "split"))
    if shape == "isolated":
        x = rng.randrange(n)
        edges = [e for e in edges if x not in e]
    elif shape == "split":
        side = set(rng.sample(range(n), rng.randint(1, n - 1)))
        edges = [(u, v) for u, v in edges if (u in side) == (v in side)]
    edges += [(x, x) for x in rng.sample(range(n), rng.randint(0, 3))]
    edges += rng.sample(edges, min(len(edges), rng.randint(0, 4)))
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


def test_count_matches_brute_past_the_low_block():
    # n - 1 > _LOW_BLOCK for n = 9, 10, so paths extend to both high and low
    # vertices; n = 8 fills the low block exactly
    import fermionant.hamilton as hamilton_module

    assert hamilton_module._LOW_BLOCK < 8
    rng = random.Random(8128)
    seen = set()
    for n in (8,) * 8 + (9,) * 5 + (10,) * 8:
        g = noisy_multigraph(rng, n)
        expected = ham_count_brute(g)
        assert count_hamiltonian_cycles(g) == expected, (n, g.edges)
        simple = {(min(e), max(e)) for e in g.edges if e[0] != e[1]}
        seen.add("counted" if expected else "zero")
        if any(u == v for u, v in g.edges):
            seen.add("loop")
        if len(simple) < sum(u != v for u, v in g.edges):
            seen.add("parallel")
        if any(all(x not in e for e in simple) for x in range(n)):
            seen.add("isolated")
        if connected_components(g)[0] > 1:
            seen.add("disconnected")
    assert seen == {"counted", "zero", "loop", "parallel", "isolated", "disconnected"}


@pytest.mark.parametrize("low", (1, 2, 3))
def test_count_matches_brute_at_every_split(monkeypatch, low):
    import fermionant.hamilton as hamilton_module

    monkeypatch.setattr(hamilton_module, "_LOW_BLOCK", low)
    rng = random.Random(40 + low)
    for trial in range(30):
        g = noisy_multigraph(rng, rng.randint(3, 7))
        assert count_hamiltonian_cycles(g) == ham_count_brute(g), (low, g.edges)


def test_closed_forms_under_relabelling():
    rng = random.Random(1962)
    for a in range(2, 10):
        expected = math.factorial(a) * math.factorial(a - 1) // 2
        assert count_hamiltonian_cycles(relabel(complete_bipartite(a, a), rng)) == expected, a
        if 2 * a + 1 <= HAMILTONIAN_MAX_N:
            assert count_hamiltonian_cycles(relabel(complete_bipartite(a, a + 1), rng)) == 0, a
    for n in range(3, 19):
        assert count_hamiltonian_cycles(relabel(cycle_graph(n), rng)) == 1, n
    for n in range(3, 18):
        pendant = Multigraph(n + 1, cycle_graph(n).edges + ((rng.randrange(n), n),))
        assert count_hamiltonian_cycles(relabel(pendant, rng)) == 0, n


def test_count_holds_one_high_set_at_a_time():
    # each high set is settled once, after its subsets, so only the sets
    # reached and not yet settled are held (about 0.15 MB here); holding
    # whole rounds of path lengths took 2.2 MB
    g = relabel(complete_graph(16), random.Random(16))
    tracemalloc.start()
    try:
        assert count_hamiltonian_cycles(g) == math.factorial(15) // 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
