"""Identity-verification harness.

Eight identity families (I1-I8) are checked on exhaustively enumerated
small instances plus seeded random ones:

  I1 ferm1-equals-det            fermionant at k=1 vs. determinant
  I2 fermionant-route-agreement  brute vs. dp vs. immanant expansion
  I3 schur-weyl-multiplicities   sum of d_lam * chi_lam = k^cycles on classes
  I4 martin-circuit-partition    j(medial G; z) vs. z^c(G) T(G; z+1, z+1)
  I5 line-digraph-fermionant     Ferm_k A_e vs. (-1)^arcs j(G; -k), sign +1
                                 on medial instances
  I6 medial-tutte-headline       Ferm_k A_(m,e) vs. (-k)^c(G) T(G; 1-k, 1-k)
  I7 ferm2-hamiltonian-parity    Ferm_2 = 0 mod 4 and Ferm_2/4 = #H mod 2
  I8 bicycle-tutte-point         T(-1,-1) vs. (-1)^|E| (-2)^dim(bicycle), and
                                 the Ferm_2 closed form on plane instances

Everything is a pure function of (seed, limits): instance streams are
generated in a fixed order from derived seeds, and reports serialize
byte-identically across runs (wall times appear only in the human summary,
never in the JSON payload).  Any violation is recorded as the family's first
counterexample with both sides serialized; it is never skipped.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .characters import character, schur_weyl_expand
from .errors import CapacityError
from .generators import exhaustive_plane_graphs, generate_eulerian_digraph, generate_plane_graph
from .graphio import write_graph, write_matrix
from .graphpoly import TUTTE_DEFAULT_MAX_EDGES, circuit_partition_poly, martin_rhs, tutte, tutte_diagonal
from .graphs import Multigraph, PlaneGraph, adjacency_matrix, connected_components
from .hamilton import count_hamiltonian_cycles
from .matrixfn import (
    BRUTE_DEFAULT_MAX_N,
    DP_DEFAULT_MAX_N,
    Matrix,
    determinant,
    fermionant,
    fermionant_via_immanants,
)
from .partitions import all_partitions
from .transforms import bicycle_dimension, ferm2_medial_closed_form, line_digraph, medial


@dataclass(frozen=True)
class Limits:
    """Instance-size knobs; defaults fit the capacity bounds of every
    module and finish in minutes."""

    max_n: int = 8
    max_edges: int = 7
    trials: int = 100
    max_arcs: int = 8


@dataclass
class Counterexample:
    instance: dict[str, Any]
    lhs: str
    rhs: str

    def to_json(self) -> dict[str, Any]:
        return {"instance": self.instance, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class IdentityResult:
    name: str
    instances: int
    passes: int
    counterexample: Counterexample | None
    wall_time_s: float

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "instances": self.instances,
            "passes": self.passes,
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_json(),
        }


@dataclass
class VerificationReport:
    seed: int
    limits: Limits
    identities: list[IdentityResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.counterexample is None for r in self.identities)

    def to_json(self) -> dict[str, Any]:
        """Deterministic payload: identical bytes for identical inputs, so
        wall times are deliberately left to the stderr summary."""
        return {
            "seed": self.seed,
            "limits": {
                "max_n": self.limits.max_n,
                "max_edges": self.limits.max_edges,
                "trials": self.limits.trials,
                "max_arcs": self.limits.max_arcs,
            },
            "identities": [r.to_json() for r in self.identities],
            "all_passed": self.all_passed,
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.identities:
            status = "ok" if r.counterexample is None else "COUNTEREXAMPLE"
            lines.append(
                f"{r.name}: {r.passes}/{r.instances} passed ({r.wall_time_s:.2f}s) {status}"
            )
        total = sum(r.wall_time_s for r in self.identities)
        verdict = "all identities hold" if self.all_passed else "violations found"
        lines.append(f"total {total:.2f}s: {verdict}")
        return lines


def _child_seed(seed: int, family: int, index: int) -> int:
    return (seed * 1_000_003 + family * 10_007 + index) & 0x7FFFFFFF


def _random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> Matrix:
    return Matrix(tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n)))


def _random_simple_graph(rng: random.Random, n: int, p: float) -> Multigraph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Multigraph(n, tuple(edges))


def _show(value: Any) -> str:
    return str(value)


def _run_family(
    name: str, checks: Iterator[tuple[dict[str, Any], Any, Any]]
) -> IdentityResult:
    start = time.perf_counter()
    instances = 0
    passes = 0
    counterexample = None
    while True:
        try:
            instance, lhs, rhs = next(checks)
        except StopIteration:
            break
        except Exception as exc:  # a blown-up side is a violation, not a skip
            instances += 1
            if counterexample is None:
                counterexample = Counterexample(
                    {"error": True}, f"raised {type(exc).__name__}: {exc}", "a value"
                )
            continue
        instances += 1
        if lhs == rhs:
            passes += 1
        elif counterexample is None:
            counterexample = Counterexample(instance, _show(lhs), _show(rhs))
    return IdentityResult(name, instances, passes, counterexample, time.perf_counter() - start)


def _matrix_instance(a: Matrix, **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {"matrix": write_matrix(a).strip()}
    doc.update(extra)
    return doc


def _graph_instance(g: Any, **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {"graph": write_graph(g).strip()}
    doc.update(extra)
    return doc


def _i1_determinant(seed: int, limits: Limits) -> Iterator[tuple[dict, Any, Any]]:
    for n in range(2, min(7, limits.max_n) + 1):
        for t in range(limits.trials):
            rng = random.Random(_child_seed(seed, 1, n * 100_000 + t))
            a = _random_matrix(rng, n)
            yield _matrix_instance(a, n=n), fermionant(a, 1, "dp"), determinant(a)


def _i2_agreement(seed: int, limits: Limits) -> Iterator[tuple[dict, Any, Any]]:
    for n in range(2, limits.max_n + 1):
        for t in range(limits.trials):
            rng = random.Random(_child_seed(seed, 2, n * 100_000 + t))
            a = _random_matrix(rng, n)
            for k in (1, 2, 3):
                brute = fermionant(a, k, "brute")
                dp = fermionant(a, k, "dp")
                imm = fermionant_via_immanants(a, k)
                yield (
                    _matrix_instance(a, n=n, k=k),
                    _show(brute),
                    _show(dp) if dp == imm else f"dp={dp} immanants={imm}",
                )


def _i3_schur_weyl(seed: int, limits: Limits) -> Iterator[tuple[dict, Any, Any]]:
    for n in range(1, limits.max_n + 1):
        for k in range(1, 5):
            expansion = schur_weyl_expand(n, k)
            for mu in all_partitions(n):
                total = sum(d * character(lam, mu) for lam, d in expansion.items())
                yield {"n": n, "k": k, "cycle_type": str(mu)}, total, k**mu.depth


def _plane_instances(seed: int, family: int, limits: Limits, count: int, max_edges: int):
    for i in range(count):
        yield generate_plane_graph(_child_seed(seed, family, i), max_edges)


def _i4_martin(
    seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]
) -> Iterator[tuple[dict, Any, Any]]:
    small = exhaustive_plane_graphs(min(5, limits.max_edges))
    randoms = _plane_instances(seed, 4, limits, 2 * limits.trials, limits.max_edges)
    for g in list(small) + list(randoms):
        lhs = circuit_partition_poly(medial_fn(g))
        rhs = martin_rhs(g)
        yield _graph_instance(g), lhs, rhs


def _i5_line_digraph(
    seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]
) -> Iterator[tuple[dict, Any, Any]]:
    for i in range(2 * limits.trials):
        h = generate_eulerian_digraph(_child_seed(seed, 5, i), limits.max_arcs)
        j = circuit_partition_poly(h)
        sign = -1 if h.num_arcs % 2 else 1
        a_e = adjacency_matrix(line_digraph(h))
        for k in (1, 2, 3):
            yield _graph_instance(h, k=k), fermionant(a_e, k, "dp"), sign * j(-k)
    # medial instances: even arc count makes the sign vacuous
    for i in range(limits.trials):
        g = generate_plane_graph(_child_seed(seed, 55, i), min(4, limits.max_edges))
        h = medial_fn(g)
        j = circuit_partition_poly(h)
        a_e = adjacency_matrix(line_digraph(h))
        parity_ok = h.num_arcs % 2 == 0
        for k in (1, 2, 3):
            lhs = fermionant(a_e, k, "dp")
            yield (
                _graph_instance(g, k=k, medial=True),
                (lhs, parity_ok),
                (j(-k), True),
            )


def _i6_headline(
    seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]
) -> Iterator[tuple[dict, Any, Any]]:
    small = exhaustive_plane_graphs(min(4, limits.max_edges))
    randoms = _plane_instances(seed, 6, limits, limits.trials, min(6, limits.max_edges))
    for g in list(small) + list(randoms):
        a_me = adjacency_matrix(line_digraph(medial_fn(g)))
        c, _ = connected_components(g.graph)
        for k in (1, 2, 3):
            lhs = fermionant(a_me, k, "dp")
            rhs = (-k) ** c * tutte_diagonal(g.graph, 1 - k)
            yield _graph_instance(g, k=k), lhs, rhs


def _i7_parity(seed: int, limits: Limits) -> Iterator[tuple[dict, Any, Any]]:
    probabilities = (0.3, 0.5, 0.8)
    for i in range(2 * limits.trials):
        rng = random.Random(_child_seed(seed, 7, i))
        n = 5 + i % 5
        p = probabilities[(i // 5) % 3]
        g = _random_simple_graph(rng, n, p)
        f = fermionant(adjacency_matrix(g), 2, "dp")
        ham = count_hamiltonian_cycles(g)
        yield (
            _graph_instance(g, n=n, p=p),
            (f % 4, (f // 4) % 2),
            (0, ham % 2),
        )


def _i8_bicycle(
    seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]
) -> Iterator[tuple[dict, Any, Any]]:
    small = exhaustive_plane_graphs(min(4, limits.max_edges))
    randoms = list(_plane_instances(seed, 8, limits, limits.trials, limits.max_edges))
    for g in small + randoms:
        graph = g.graph
        t = tutte(graph)(-1, -1)
        rhs = (-1) ** graph.num_edges * (-2) ** bicycle_dimension(graph)
        yield _graph_instance(graph), t, rhs
    plane_small = exhaustive_plane_graphs(min(3, limits.max_edges))
    plane_randoms = list(_plane_instances(seed, 88, limits, limits.trials, min(5, limits.max_edges)))
    for g in plane_small + plane_randoms:
        a_me = adjacency_matrix(line_digraph(medial_fn(g)))
        lhs = fermionant(a_me, 2, "dp")
        yield _graph_instance(g, closed_form=True), lhs, ferm2_medial_closed_form(g)


def verify_suite(
    seed: int,
    limits: Limits | None = None,
    *,
    medial_fn: Callable[[PlaneGraph], Any] | None = None,
) -> VerificationReport:
    """Run identity families I1-I8; deterministic in (seed, limits).

    Raises ``CapacityError`` before any family runs when a limit exceeds
    the default cap of the route it feeds: ``max_n`` the brute and immanant
    routes of I2, ``max_edges`` deletion-contraction Tutte (I4, I8) and
    ``max_arcs`` the dp on the line digraph (I5), whose vertices are arcs.
    A capacity limit is thus never reported as an identity violation.

    ``medial_fn`` substitutes the medial construction in the families that
    use one; it exists so tests can confirm the harness catches a corrupted
    transform.
    """
    limits = limits or Limits()
    for name, value, cap, route in (
        ("max_n", limits.max_n, BRUTE_DEFAULT_MAX_N, "the brute and immanant routes"),
        ("max_edges", limits.max_edges, TUTTE_DEFAULT_MAX_EDGES, "deletion-contraction Tutte"),
        ("max_arcs", limits.max_arcs, DP_DEFAULT_MAX_N, "the dp fermionant of the line digraph"),
    ):
        if value > cap:
            raise CapacityError(f"verify {name} limited to {cap} by {route}, got {value}")
    md = medial_fn if medial_fn is not None else medial
    report = VerificationReport(seed, limits)
    report.identities.append(_run_family("ferm1-equals-det", _i1_determinant(seed, limits)))
    report.identities.append(_run_family("fermionant-route-agreement", _i2_agreement(seed, limits)))
    report.identities.append(_run_family("schur-weyl-multiplicities", _i3_schur_weyl(seed, limits)))
    report.identities.append(_run_family("martin-circuit-partition", _i4_martin(seed, limits, md)))
    report.identities.append(_run_family("line-digraph-fermionant", _i5_line_digraph(seed, limits, md)))
    report.identities.append(_run_family("medial-tutte-headline", _i6_headline(seed, limits, md)))
    report.identities.append(_run_family("ferm2-hamiltonian-parity", _i7_parity(seed, limits)))
    report.identities.append(_run_family("bicycle-tutte-point", _i8_bicycle(seed, limits, md)))
    return report
