"""Acceptance criteria, one test per criterion, all exact (tolerance zero).

Each test prints a single ``<criterion>: PASS`` / ``FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them as they complete.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager

from fermionant import (
    Limits,
    Matrix,
    Multigraph,
    Partition,
    adjacency_matrix,
    all_partitions,
    bicycle_dimension,
    character,
    circuit_partition_poly,
    class_size,
    connected_components,
    count_hamiltonian_cycles,
    count_ssyt,
    count_syt,
    determinant,
    exhaustive_plane_graphs,
    ferm2_medial_closed_form,
    fermionant,
    fermionant_via_immanants,
    generate_eulerian_digraph,
    generate_plane_graph,
    line_digraph,
    martin_rhs,
    medial,
    schur_weyl_expand,
    tutte,
    tutte_diagonal,
    verify_suite,
)

from conftest import GOLDEN_VERIFY_SEED_42_SHA256
from oracles import ssyt_count_brute, syt_count_brute


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"{name}: FAIL", flush=True)
        raise
    print(f"{name}: PASS", flush=True)


def seeded_matrix(seed: int, n: int) -> Matrix:
    rng = random.Random(seed)
    return Matrix(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)))


def test_a1_determinant_consistency():
    with criterion("A1 fermionant(k=1) = determinant, n=2..7 x100, <5s"):
        start = time.perf_counter()
        for n in range(2, 8):
            for t in range(100):
                a = seeded_matrix(n * 1000 + t, n)
                assert fermionant(a, 1, "dp") == determinant(a)
        assert time.perf_counter() - start < 5.0


def test_a2_algorithm_agreement():
    with criterion("A2 brute = dp = immanants, n<=8, k=1..3 x100, <60s"):
        start = time.perf_counter()
        for n in range(2, 9):
            for t in range(100):
                a = seeded_matrix(n * 10_000 + t, n)
                for k in (1, 2, 3):
                    brute = fermionant(a, k, "brute")
                    assert fermionant(a, k, "dp") == brute
                    assert fermionant_via_immanants(a, k) == brute
        assert time.perf_counter() - start < 60.0


def test_a3_schur_weyl():
    with criterion("A3 Schur-Weyl expansion of k^cycles, n<=8, k<=4"):
        for n in range(1, 9):
            for k in range(1, 5):
                expansion = schur_weyl_expand(n, k)
                for mu in all_partitions(n):
                    total = sum(d * character(lam, mu) for lam, d in expansion.items())
                    assert total == k ** mu.depth


def test_a4_martin_identity():
    with criterion("A4 Martin identity, exhaustive <=5 edges + 200 random <=7"):
        for g in exhaustive_plane_graphs(5):
            assert circuit_partition_poly(medial(g)) == martin_rhs(g)
        for i in range(200):
            g = generate_plane_graph(40_000 + i, 7)
            assert circuit_partition_poly(medial(g)) == martin_rhs(g)


def test_a5_signed_line_digraph_identity():
    with criterion("A5 Ferm_k(A_e) = (-1)^arcs j(G;-k), 200 digraphs, k=1..3"):
        for i in range(200):
            h = generate_eulerian_digraph(50_000 + i, 8)
            j = circuit_partition_poly(h)
            sign = -1 if h.num_arcs % 2 else 1
            a_e = adjacency_matrix(line_digraph(h))
            for k in (1, 2, 3):
                assert fermionant(a_e, k, "dp") == sign * j(-k)
        # the sign is vacuous on every medial instance
        for g in exhaustive_plane_graphs(4):
            h = medial(g)
            assert h.num_arcs % 2 == 0
            j = circuit_partition_poly(h)
            a_e = adjacency_matrix(line_digraph(h))
            for k in (1, 2, 3):
                assert fermionant(a_e, k, "dp") == j(-k)


def test_a6_headline_identity():
    with criterion("A6 Ferm_k(A_me) = (-k)^c T(G;1-k,1-k), <=6 edges, k=1..3"):
        fixtures = exhaustive_plane_graphs(4) + [
            generate_plane_graph(60_000 + i, 6) for i in range(100)
        ]
        for g in fixtures:
            a_me = adjacency_matrix(line_digraph(medial(g)))
            c, _ = connected_components(g.graph)
            for k in (1, 2, 3):
                assert fermionant(a_me, k, "dp") == (-k) ** c * tutte_diagonal(
                    g.graph, 1 - k
                )


def test_a7_parity_relation():
    with criterion("A7 Ferm_2 = 0 mod 4 and Ferm_2/4 = #H mod 2, 200 graphs"):
        for i in range(200):
            rng = random.Random(70_000 + i)
            n = 5 + i % 5
            p = (0.3, 0.5, 0.8)[(i // 5) % 3]
            edges = tuple(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            )
            g = Multigraph(n, edges)
            f = fermionant(adjacency_matrix(g), 2, "dp")
            assert f % 4 == 0
            assert (f // 4) % 2 == count_hamiltonian_cycles(g) % 2


def test_a8_bicycle_formula(multigraph_fixtures):
    with criterion("A8 T(-1,-1) = (-1)^E (-2)^dimB and Ferm_2 closed form"):
        for g in multigraph_fixtures:
            if g.num_edges <= 8:
                assert tutte(g)(-1, -1) == (-1) ** g.num_edges * (
                    -2
                ) ** bicycle_dimension(g)
        for g in exhaustive_plane_graphs(5):
            direct = fermionant(
                adjacency_matrix(line_digraph(medial(g))), 2, "dp"
            )
            assert direct == ferm2_medial_closed_form(g)


def test_a9_tableaux_character_cross_checks():
    with criterion("A9 hook formulas = enumeration; chi at identity; orthogonality"):
        for n in range(0, 7):
            for lam in all_partitions(n):
                assert count_syt(lam) == syt_count_brute(lam.parts)
                for k in range(1, 5):
                    assert count_ssyt(lam, k) == ssyt_count_brute(lam.parts, k)
        for n in range(0, 9):
            identity = Partition((1,) * n)
            for lam in all_partitions(n):
                assert character(lam, identity) == count_syt(lam)
        for n in range(1, 8):
            lams = all_partitions(n)
            for a in lams:
                for b in lams:
                    total = sum(
                        class_size(mu) * character(a, mu) * character(b, mu)
                        for mu in all_partitions(n)
                    )
                    assert total == (math.factorial(n) if a == b else 0)


def test_a10_performance_floor():
    with criterion("A10 dp n=16 <=60s; dp medial n=20 <=60s; 12-edge tutte <=10s; verify seed 42 <=600s"):
        rng = random.Random(1016)
        a = Matrix(tuple(tuple(rng.randint(0, 1) for _ in range(16)) for _ in range(16)))
        start = time.perf_counter()
        fermionant(a, 2, "dp")
        assert time.perf_counter() - start <= 60.0

        plane_rng = random.Random(1020)  # its own stream: the Tutte graph below keeps its edges
        plane = generate_plane_graph(plane_rng.randrange(2**31), 10)
        while plane.num_edges != 10:
            plane = generate_plane_graph(plane_rng.randrange(2**31), 10)
        a_me = adjacency_matrix(line_digraph(medial(plane)))
        assert a_me.n == 20
        c, _ = connected_components(plane.graph)
        start = time.perf_counter()
        value = fermionant(a_me, 2, "dp")
        assert time.perf_counter() - start <= 60.0
        assert value == (-2) ** c * tutte_diagonal(plane.graph, -1)

        edges = tuple((rng.randrange(6), rng.randrange(6)) for _ in range(12))
        g = Multigraph(6, edges)
        start = time.perf_counter()
        tutte(g)
        assert time.perf_counter() - start <= 10.0

        start = time.perf_counter()
        report = verify_suite(42, Limits())
        assert time.perf_counter() - start <= 600.0
        assert report.all_passed
        payload = json.dumps(report.to_json(), separators=(",", ":")) + "\n"
        assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_VERIFY_SEED_42_SHA256
