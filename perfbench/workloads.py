"""Workload inputs, generated from a seed, and the operations run on them.

Each time-boxed workload is a list of rounds.  A round is one seeded
instance together with the top-level operations the workload applies to it;
the closed loop runs whole rounds until its time is up, cycling through the
list if it runs out.  ``verify-harness`` has no rounds: it runs the CLI.

Every function here reaches the package through the ``fm`` module passed in,
at call time, so a tracer installed before ``build_rounds`` sees each call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
DP_DENSE_REFS = HERE / "refs" / "dp_dense.json"
VERIFY_REFS = HERE / "refs" / "verify.json"

# Stated sizes.  Changing any of these changes the benchmark.
DP_DENSE_KS = (-1, 1, 2, 3)
DP_MEDIAL_EDGES = 7  # line digraph of the medial graph has 2 * 7 = 14 vertices
DP_MEDIAL_KS = (1, 2, 3)
DP_MEDIAL_ROUNDS = 40
GRAPH_POLY_ROUNDS = 80
TUTTE_EDGES = 14  # dense multigraphs on TUTTE_VERTICES vertices
TUTTE_VERTICES = 6
MEDIAL_CIRCUIT_EDGES = (12, 14)  # edge range of the plane graphs
EULERIAN_MAX_ARCS = 16
EULERIAN_SYSTEMS = (10**4, 5 * 10**4)
# ("complete", n) or ("bipartite", a, b): Hamiltonian counts have closed forms.
# Every round counts on both, so all rounds carry the same work mix.
HAMILTON_GRAPHS = (("complete", 14), ("bipartite", 8, 8))

# rounds the traced run executes: fixed, so its work counts repeat exactly
TRACE_ROUNDS = {"dp-dense": 1, "dp-medial": 3, "graph-poly": 10}


@dataclass
class Round:
    instance: dict[str, Any]  # names the instance in a mismatch report
    ops: list[tuple[str, Callable[[], Any]]]
    inputs: dict[str, Any] = field(default_factory=dict)  # what the oracles need


def sizes() -> dict[str, Any]:
    """Workload sizes, for the provenance record."""
    pool = json.loads(DP_DENSE_REFS.read_text())
    return {
        "dp-dense": {"n": pool["n"], "ks": list(DP_DENSE_KS), "pool": len(pool["matrices"]),
                     "entries": pool["entries"]},
        "dp-medial": {"edges": DP_MEDIAL_EDGES, "n": 2 * DP_MEDIAL_EDGES,
                      "ks": list(DP_MEDIAL_KS), "rounds": DP_MEDIAL_ROUNDS},
        "graph-poly": {"tutte_edges": TUTTE_EDGES, "tutte_vertices": TUTTE_VERTICES,
                       "medial_circuit_edges": list(MEDIAL_CIRCUIT_EDGES),
                       "eulerian_systems": list(EULERIAN_SYSTEMS),
                       "hamilton_graphs": [list(g) for g in HAMILTON_GRAPHS],
                       "rounds": GRAPH_POLY_ROUNDS},
        "verify-harness": {"limits": "defaults", "instances_at_seed_42": 5907},
    }


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def encode(value: Any) -> Any:
    """JSON form of an operation's result: ints as decimal strings,
    polynomials as their own to_json()."""
    if isinstance(value, int):
        return str(value)
    return value.to_json()


def plane_graph_with_edges(fm, rng: random.Random, lo: int, hi: int):
    """First seeded plane graph with lo..hi edges."""
    while True:
        g = fm.generate_plane_graph(rng.randrange(2**31), hi)
        if lo <= g.num_edges:
            return g


def _dp_dense(fm, seed: int) -> list[Round]:
    pool = json.loads(DP_DENSE_REFS.read_text())
    order = _rng(seed, "dp-dense", 0).sample(range(len(pool["matrices"])), len(pool["matrices"]))
    rounds = []
    for idx in order:
        a = fm.Matrix(tuple(tuple(r) for r in pool["matrices"][idx]))
        ops = [(f"ferm_dp k={k}", partial(fm.fermionant, a, k, "dp")) for k in DP_DENSE_KS]
        rounds.append(Round({"pool_index": idx}, ops, {"a": a, "pool_index": idx}))
    return rounds


def _medial_ferm(fm, g, k: int) -> int:
    return fm.fermionant(fm.medial_line_adjacency(g), k, "dp")


def _dp_medial(fm, seed: int) -> list[Round]:
    rounds = []
    for i in range(DP_MEDIAL_ROUNDS):
        g = plane_graph_with_edges(fm, _rng(seed, "dp-medial", i), DP_MEDIAL_EDGES, DP_MEDIAL_EDGES)
        ops = [(f"medial_ferm_dp k={k}", partial(_medial_ferm, fm, g, k)) for k in DP_MEDIAL_KS]
        rounds.append(Round({"round": i, "plane_edges": g.graph.edges, "rotations": g.rotations},
                            ops, {"g": g}))
    return rounds


def _dense_multigraph(fm, rng: random.Random, vertices: int, edges: int):
    pairs = []
    while len(pairs) < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return fm.Multigraph(vertices, tuple(pairs))


def transition_systems(graph) -> int:
    indeg = [0] * graph.num_vertices
    for _, head in graph.arcs:
        indeg[head] += 1
    return math.prod(math.factorial(d) for d in indeg)


def _eulerian_digraph(fm, rng: random.Random):
    lo, hi = EULERIAN_SYSTEMS
    while True:
        h = fm.generate_eulerian_digraph(rng.randrange(2**31), EULERIAN_MAX_ARCS)
        if lo <= transition_systems(h) <= hi:
            return h


def _hamilton_graph(fm, rng: random.Random, spec: tuple):
    """Complete or complete bipartite graph with vertices relabeled at random."""
    if spec[0] == "complete":
        n = spec[1]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        a, b = spec[1], spec[2]
        n = a + b
        pairs = [(u, a + v) for u in range(a) for v in range(b)]
    label = rng.sample(range(n), n)
    edges = [(label[u], label[v]) for u, v in pairs]
    rng.shuffle(edges)
    return fm.Multigraph(n, tuple(edges))


def _medial_circuit_poly(fm, plane):
    return fm.circuit_partition_poly(fm.medial(plane))


def _graph_poly(fm, seed: int) -> list[Round]:
    rounds = []
    for i in range(GRAPH_POLY_ROUNDS):
        rng = _rng(seed, "graph-poly", i)
        g = _dense_multigraph(fm, rng, TUTTE_VERTICES, TUTTE_EDGES)
        plane = plane_graph_with_edges(fm, rng, *MEDIAL_CIRCUIT_EDGES)
        h = _eulerian_digraph(fm, rng)
        ham = {f"hamiltonian_count {spec[0]}": spec for spec in HAMILTON_GRAPHS}
        ops = [
            ("tutte_dc", partial(fm.tutte, g)),
            ("tutte_subgraph_sum", partial(fm.tutte_subgraph_sum, g)),
            ("circuit_poly_medial", partial(_medial_circuit_poly, fm, plane)),
            ("circuit_poly_eulerian", partial(fm.circuit_partition_poly, h)),
        ] + [(label, partial(fm.count_hamiltonian_cycles, _hamilton_graph(fm, rng, spec)))
             for label, spec in ham.items()]
        instance = {
            "round": i,
            "multigraph": [g.num_vertices, g.edges],
            "plane": [plane.graph.edges, plane.rotations],
            "eulerian": [h.num_vertices, h.arcs],
        }
        rounds.append(Round(instance, ops, {"g": g, "plane": plane, "h": h, "ham": ham}))
    return rounds


_ROUND_MAKERS = {"dp-dense": _dp_dense, "dp-medial": _dp_medial, "graph-poly": _graph_poly}
WORKLOADS = ("verify-harness", "dp-dense", "dp-medial", "graph-poly")


def build_rounds(fm, workload: str, seed: int) -> list[Round]:
    return _ROUND_MAKERS[workload](fm, seed)
