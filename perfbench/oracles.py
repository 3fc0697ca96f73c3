"""Independent checks of every operation's result, run after the timed loop.

No check calls the route it checks:

* dp-dense   k = 1 against the Bareiss determinant, k = -1 against
             (-1)^n times the Ryser permanent, k = 2 and 3 against values
             pinned in refs/dp_dense.json (recorded by record_refs.py, which
             also confirms them by the colouring expansion there).
* dp-medial  the headline identity (-k)^c(G) T(G; 1-k, 1-k), with T from the
             subgraph-sum diagonal, and the closed form at k = 2.
* graph-poly the two Tutte routes against each other and T(-1,-1) against the
             bicycle dimension; Martin's identity for medial circuit
             polynomials; for Eulerian digraphs, j(1) against the product of
             degree factorials, (-1)^arcs j(-1) against the determinant of the
             line digraph and the z^1 coefficient against the BEST theorem;
             Hamiltonian counts against closed forms.

Each check returns (operation label, message) pairs, one per failed check.
"""

from __future__ import annotations

import json
import math
from typing import Any

from workloads import DP_DENSE_REFS, Round, transition_systems

Mismatch = tuple[str, str]


def uni_at(coeffs: list[str], z: int) -> int:
    """Evaluate a UniPolynomial from its JSON form (ascending coefficients)."""
    return sum(int(c) * z**d for d, c in enumerate(coeffs))


def bivar_at(coeffs: dict[str, str], x: int, y: int) -> int:
    """Evaluate a BivarPolynomial from its JSON form ("i,j" -> coefficient)."""
    total = 0
    for key, c in coeffs.items():
        i, j = (int(p) for p in key.split(","))
        total += int(c) * x**i * y**j
    return total


def _expect(out: list[Mismatch], label: str, got: Any, want: Any, what: str = "value") -> None:
    if got != want:
        out.append((label, f"{what}: got {got}, expected {want}"))


def check_dp_dense(fm, rnd: Round, results: dict[str, Any]) -> list[Mismatch]:
    a = rnd.inputs["a"]
    pinned = json.loads(DP_DENSE_REFS.read_text())["ferm"][rnd.inputs["pool_index"]]
    want = {
        -1: (-1) ** a.n * fm.permanent(a),
        1: fm.determinant(a),
        2: int(pinned["2"]),
        3: int(pinned["3"]),
    }
    out: list[Mismatch] = []
    for k, value in want.items():
        label = f"ferm_dp k={k}"
        if label in results:
            _expect(out, label, int(results[label]), value)
    return out


def check_dp_medial(fm, rnd: Round, results: dict[str, Any]) -> list[Mismatch]:
    g = rnd.inputs["g"]
    c, _ = fm.connected_components(g.graph)
    out: list[Mismatch] = []
    for label, got in results.items():
        k = int(label.rpartition("=")[2])
        _expect(out, label, int(got), (-k) ** c * fm.tutte_diagonal(g.graph, 1 - k))
        if k == 2:
            _expect(out, label, int(got), fm.ferm2_medial_closed_form(g), "closed form")
    return out


def best_circuits(fm, h) -> int:
    """Eulerian circuits of an Eulerian digraph by the BEST theorem:
    arborescences towards one vertex times the product of (deg - 1)!."""
    active = sorted({v for arc in h.arcs for v in arc})
    index = {v: i for i, v in enumerate(active)}
    size = len(active)
    lap = [[0] * size for _ in range(size)]
    for u, v in h.arcs:
        if u != v:
            lap[index[u]][index[u]] += 1
            lap[index[u]][index[v]] -= 1
    minor = fm.Matrix(tuple(tuple(row[1:]) for row in lap[1:]))
    trees = fm.determinant(minor) if size > 1 else 1
    outdeg = [0] * h.num_vertices
    for u, _ in h.arcs:
        outdeg[u] += 1
    return trees * math.prod(math.factorial(outdeg[v] - 1) for v in active)


def hamilton_closed_form(spec: tuple) -> int:
    if spec[0] == "complete":
        n = spec[1]
        return math.factorial(n - 1) // 2 if n >= 3 else 0
    a, b = spec[1], spec[2]
    return math.factorial(a) * math.factorial(a - 1) // 2 if a == b >= 2 else 0


def check_graph_poly(fm, rnd: Round, results: dict[str, Any]) -> list[Mismatch]:
    g, plane, h = rnd.inputs["g"], rnd.inputs["plane"], rnd.inputs["h"]
    out: list[Mismatch] = []
    if "tutte_dc" in results:
        dc = results["tutte_dc"]
        if "tutte_subgraph_sum" in results:  # routes that disagree both count as failed
            for label in ("tutte_dc", "tutte_subgraph_sum"):
                _expect(out, label, dc, results["tutte_subgraph_sum"], "deletion-contraction vs subgraph sum")
        bicycle = (-1) ** g.num_edges * (-2) ** fm.bicycle_dimension(g)
        _expect(out, "tutte_dc", bivar_at(dc, -1, -1), bicycle, "T(-1,-1) against bicycle")
    if "circuit_poly_medial" in results:
        _expect(out, "circuit_poly_medial", results["circuit_poly_medial"],
                fm.martin_rhs(plane).to_json(), "Martin's identity")
    if "circuit_poly_eulerian" in results:
        j = results["circuit_poly_eulerian"]
        label = "circuit_poly_eulerian"
        _expect(out, label, uni_at(j, 1), transition_systems(h), "j(1)")
        line_det = fm.determinant(fm.adjacency_matrix(fm.line_digraph(h)))
        _expect(out, label, (-1) ** h.num_arcs * uni_at(j, -1), line_det, "(-1)^arcs j(-1)")
        _expect(out, label, int(j[1]) if len(j) > 1 else 0, best_circuits(fm, h), "BEST circuits")
    for label, spec in rnd.inputs["ham"].items():
        if label in results:
            _expect(out, label, int(results[label]), hamilton_closed_form(spec), "closed form")
    return out


CHECKS = {"dp-dense": check_dp_dense, "dp-medial": check_dp_medial, "graph-poly": check_graph_poly}


def check_round(fm, workload: str, rnd: Round, results: dict[str, Any]) -> list[Mismatch]:
    return CHECKS[workload](fm, rnd, results)


def check_verify_payload(stdout: bytes, seed: int, pinned_sha: str | None, sha: str) -> list[str]:
    """Problems with one `fermionant verify` stdout: it must parse, be for
    this seed, hold every identity, and match the pinned sha256 if any."""
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    if payload.get("seed") != seed:
        problems.append(f"payload seed {payload.get('seed')} != {seed}")
    if payload.get("all_passed") is not True:
        problems.append("all_passed is not true")
    for ident in payload.get("identities", []):
        if ident["passes"] != ident["instances"] or ident["counterexample"] is not None:
            problems.append(f"{ident['name']}: {ident['passes']}/{ident['instances']} passed, "
                            f"counterexample {json.dumps(ident['counterexample'])}")
    if pinned_sha is not None and sha != pinned_sha:
        problems.append(f"stdout sha256 {sha} != pinned {pinned_sha}")
    return problems
