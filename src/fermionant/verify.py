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
counterexample with its instance and both sides serialized; it is never
skipped, and no other instance is serialized.  A check that raises is a
violation of its own instance, and the family goes on with the next one.

The families are independent, so they run on a pool of forked worker
processes, one per usable CPU; only each family's result comes back.  With
one usable CPU, or where processes cannot be forked, they run in-process.
Either way the results are reported in family order.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Any, Callable, Iterator

from .characters import character, schur_weyl_expand
from .errors import CapacityError
from .generators import exhaustive_plane_graphs, generate_eulerian_digraph, generate_plane_graph
from .graphio import write_graph, write_matrix
from .graphpoly import TUTTE_MAX_EDGES, circuit_partition_poly, martin_rhs, tutte, tutte_diagonal
from .graphs import Digraph, Multigraph, PlaneGraph, adjacency_matrix, connected_components
from .hamilton import count_hamiltonian_cycles
from .matrixfn import (
    BRUTE_MAX_N,
    DP_MAX_N,
    Matrix,
    determinant,
    fermionant,
    fermionant_via_immanants,
)
from .partitions import all_partitions
from .polynomials import UniPolynomial
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
    wall_time_s: float = 0.0

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
        verdict = "all identities hold" if self.all_passed else "violations found"
        lines.append(f"total {self.wall_time_s:.2f}s: {verdict}")
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


# A family yields (describe, check) pairs: check() computes the two sides, and
# describe() builds the instance document, only for the first counterexample.
_Checks = Iterator[tuple[Callable[[], dict[str, Any]], Callable[[], tuple[Any, Any]]]]


def _run_family(name: str, checks: _Checks) -> IdentityResult:
    """Run every check of a family.  A check that raises counts as a
    violation of its own instance, and the family goes on to the next."""
    start = time.perf_counter()
    instances = 0
    passes = 0
    counterexample = None
    for describe, check in checks:
        instances += 1
        try:
            lhs, rhs = check()
        except Exception as exc:  # a blown-up side is a violation, not a skip
            lhs, rhs = f"raised {type(exc).__name__}: {exc}", "a value"
        if lhs == rhs:
            passes += 1
        elif counterexample is None:
            counterexample = Counterexample(describe(), str(lhs), str(rhs))
    return IdentityResult(name, instances, passes, counterexample, time.perf_counter() - start)


def _describe(obj: Any, **extra: Any) -> dict[str, Any]:
    """A matrix or graph document of the instance, then the extras."""
    if isinstance(obj, Matrix):
        return {"matrix": write_matrix(obj).strip(), **extra}
    return {"graph": write_graph(obj).strip(), **extra}


# Work shared by the checks of several instances (one per k) is wrapped in
# functools.cache: it runs inside the first check that needs it, so a raise
# is charged to an instance, and later checks reuse it.  Checks bind the loop
# variables they read as defaults, so none depends on when it runs.


def _i1_determinant(seed: int, limits: Limits) -> _Checks:
    for n in range(2, min(7, limits.max_n) + 1):
        for t in range(limits.trials):
            rng = random.Random(_child_seed(seed, 1, n * 100_000 + t))
            a = _random_matrix(rng, n)
            yield partial(_describe, a, n=n), lambda a=a: (fermionant(a, 1, "dp"), determinant(a))


def _i2_agreement(seed: int, limits: Limits) -> _Checks:
    for n in range(2, limits.max_n + 1):
        for t in range(limits.trials):
            rng = random.Random(_child_seed(seed, 2, n * 100_000 + t))
            a = _random_matrix(rng, n)
            for k in (1, 2, 3):

                def check(a=a, k=k):
                    brute = fermionant(a, k, "brute")
                    dp = fermionant(a, k, "dp")
                    imm = fermionant_via_immanants(a, k)
                    return brute, dp if dp == imm else f"dp={dp} immanants={imm}"

                yield partial(_describe, a, n=n, k=k), check


def _i3_schur_weyl(seed: int, limits: Limits) -> _Checks:
    for n in range(1, limits.max_n + 1):
        for k in range(1, 5):
            expansion = cache(partial(schur_weyl_expand, n, k))
            for mu in all_partitions(n):

                def check(expansion=expansion, mu=mu, k=k):
                    total = sum(d * character(lam, mu) for lam, d in expansion().items())
                    return total, k**mu.depth

                yield lambda n=n, k=k, mu=mu: {"n": n, "k": k, "cycle_type": str(mu)}, check


def _plane_instances(seed: int, family: int, count: int, max_edges: int):
    for i in range(count):
        yield generate_plane_graph(_child_seed(seed, family, i), max_edges)


def _i4_martin(seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]) -> _Checks:
    small = exhaustive_plane_graphs(min(5, limits.max_edges))
    randoms = _plane_instances(seed, 4, 2 * limits.trials, limits.max_edges)
    for g in list(small) + list(randoms):
        yield partial(_describe, g), lambda g=g: (circuit_partition_poly(medial_fn(g)), martin_rhs(g))


def _line_digraph_sides(h: Digraph) -> tuple[UniPolynomial, Matrix]:
    """j(h; z) and the line digraph's adjacency matrix, one row per arc."""
    return circuit_partition_poly(h), adjacency_matrix(line_digraph(h))


def _i5_line_digraph(seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]) -> _Checks:
    for i in range(2 * limits.trials):
        h = generate_eulerian_digraph(_child_seed(seed, 5, i), limits.max_arcs)
        sign = -1 if h.num_arcs % 2 else 1
        sides = cache(partial(_line_digraph_sides, h))
        for k in (1, 2, 3):

            def check(sides=sides, k=k, sign=sign):
                j, a_e = sides()
                return fermionant(a_e, k, "dp"), sign * j(-k)

            yield partial(_describe, h, k=k), check
    # medial instances: even arc count makes the sign vacuous
    for i in range(limits.trials):
        g = generate_plane_graph(_child_seed(seed, 55, i), min(4, limits.max_edges))
        sides = cache(lambda g=g: _line_digraph_sides(medial_fn(g)))
        for k in (1, 2, 3):

            def check(sides=sides, k=k):
                j, a_e = sides()
                return (fermionant(a_e, k, "dp"), a_e.n % 2 == 0), (j(-k), True)

            yield partial(_describe, g, k=k, medial=True), check


def _i6_headline(seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]) -> _Checks:
    small = exhaustive_plane_graphs(min(4, limits.max_edges))
    randoms = _plane_instances(seed, 6, limits.trials, min(6, limits.max_edges))
    for g in list(small) + list(randoms):
        a_me = cache(lambda g=g: adjacency_matrix(line_digraph(medial_fn(g))))
        for k in (1, 2, 3):

            def check(g=g, a_me=a_me, k=k):
                c, _ = connected_components(g.graph)
                return fermionant(a_me(), k, "dp"), (-k) ** c * tutte_diagonal(g.graph, 1 - k)

            yield partial(_describe, g, k=k), check


def _i7_parity(seed: int, limits: Limits) -> _Checks:
    probabilities = (0.3, 0.5, 0.8)
    for i in range(2 * limits.trials):
        rng = random.Random(_child_seed(seed, 7, i))
        n = 5 + i % 5
        p = probabilities[(i // 5) % 3]
        g = _random_simple_graph(rng, n, p)

        def check(g=g):
            f = fermionant(adjacency_matrix(g), 2, "dp")
            return (f % 4, (f // 4) % 2), (0, count_hamiltonian_cycles(g) % 2)

        yield partial(_describe, g, n=n, p=p), check


def _i8_bicycle(seed: int, limits: Limits, medial_fn: Callable[[PlaneGraph], Any]) -> _Checks:
    small = exhaustive_plane_graphs(min(4, limits.max_edges))
    randoms = list(_plane_instances(seed, 8, limits.trials, limits.max_edges))
    for g in small + randoms:
        graph = g.graph

        def check(graph=graph):
            rhs = (-1) ** graph.num_edges * (-2) ** bicycle_dimension(graph)
            return tutte(graph)(-1, -1), rhs

        yield partial(_describe, graph), check
    plane_small = exhaustive_plane_graphs(min(3, limits.max_edges))
    plane_randoms = list(_plane_instances(seed, 88, limits.trials, min(5, limits.max_edges)))
    for g in plane_small + plane_randoms:

        def check(g=g):
            lhs = fermionant(adjacency_matrix(line_digraph(medial_fn(g))), 2, "dp")
            return lhs, ferm2_medial_closed_form(g)

        yield partial(_describe, g, closed_form=True), check


# A family's name and its stream of checks, not yet started.
_Family = tuple[str, _Checks]

# The suite a pool worker runs, filled in each worker as it starts.  Families
# reach workers by fork inheritance, never by pickle, so a medial_fn that
# cannot be pickled (a lambda, a local function) still works.
_worker_families: list[_Family] = []


def _run_indexed(index: int) -> IdentityResult:
    name, checks = _worker_families[index]
    return _run_family(name, checks)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_families(families: list[_Family]) -> list[IdentityResult]:
    """Run each family to its result, in family order.

    Families are handed to the workers in order, one at a time, so the
    second worker starts the long I2 while the first finishes the short I1.
    An exception a family raises outside its checks reaches the caller with
    its type and message.  A worker that dies (killed, or a hook that exits)
    raises ``ChildProcessError``, where the pool alone would wait for its
    result forever.  The pool is gone before this returns or raises."""
    workers = min(len(families), _usable_cpus())
    if workers > 1:
        import multiprocessing  # only here: importing the CLI stays cheap

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            others = set(multiprocessing.active_children())
            pool = context.Pool(workers, initializer=_worker_families.extend, initargs=(families,))
            try:
                started = set(multiprocessing.active_children()) - others
                pending = pool.imap(_run_indexed, range(len(families)))
                results = []
                while len(results) < len(families):
                    try:
                        results.append(pending.next(timeout=0.1))
                    except multiprocessing.TimeoutError:
                        if any(p.exitcode is not None for p in started):
                            raise ChildProcessError("a verify worker died mid-family") from None
                return results
            finally:
                pool.terminate()
                pool.join()
    return [_run_family(name, checks) for name, checks in families]


def verify_suite(
    seed: int,
    limits: Limits | None = None,
    *,
    medial_fn: Callable[[PlaneGraph], Any] | None = None,
) -> VerificationReport:
    """Run identity families I1-I8; deterministic in (seed, limits).

    Raises ``CapacityError`` before any family runs when a limit exceeds
    the capacity bound of the route it feeds: ``max_n`` the brute and
    immanant routes of I2, ``max_edges`` deletion-contraction Tutte (I4, I8)
    and ``max_arcs`` the dp on the line digraph (I5), whose vertices are
    arcs.
    A capacity limit is thus never reported as an identity violation.
    A limit that is not an int (a bool or a float included), ``max_n``
    below 2, or ``max_edges``, ``trials`` or ``max_arcs`` below 1, raises
    ``ValueError``, also before any family runs, so every family checks at
    least one instance.

    ``medial_fn`` substitutes the medial construction in the families that
    use one; it exists so tests can confirm the harness catches a corrupted
    transform.  Where the families run on worker processes, ``medial_fn``
    runs inside the workers, so its side effects (appending to a list, say)
    happen there and do not reach the caller.

    ``wall_time_s`` of the report is the suite's elapsed time, which with
    workers is less than the sum of the family times.
    """
    limits = limits or Limits()
    for name, value in vars(limits).items():
        if type(value) is not int:
            raise ValueError(f"verify {name} must be an integer, got {value!r}")
    for name, value, cap, route in (
        ("max_n", limits.max_n, BRUTE_MAX_N, "the brute and immanant routes"),
        ("max_edges", limits.max_edges, TUTTE_MAX_EDGES, "deletion-contraction Tutte"),
        ("max_arcs", limits.max_arcs, DP_MAX_N, "the dp fermionant of the line digraph"),
    ):
        if value > cap:
            raise CapacityError(f"verify {name} limited to {cap} by {route}, got {value}")
    # below these, some family would have no instance: I1 and I2 start at n = 2
    for name, value, least in (
        ("max_n", limits.max_n, 2),
        ("max_edges", limits.max_edges, 1),
        ("trials", limits.trials, 1),
        ("max_arcs", limits.max_arcs, 1),
    ):
        if value < least:
            raise ValueError(f"verify {name} must be at least {least}, got {value}")
    md = medial_fn if medial_fn is not None else medial
    families = [
        ("ferm1-equals-det", _i1_determinant(seed, limits)),
        ("fermionant-route-agreement", _i2_agreement(seed, limits)),
        ("schur-weyl-multiplicities", _i3_schur_weyl(seed, limits)),
        ("martin-circuit-partition", _i4_martin(seed, limits, md)),
        ("line-digraph-fermionant", _i5_line_digraph(seed, limits, md)),
        ("medial-tutte-headline", _i6_headline(seed, limits, md)),
        ("ferm2-hamiltonian-parity", _i7_parity(seed, limits)),
        ("bicycle-tutte-point", _i8_bicycle(seed, limits, md)),
    ]
    start = time.perf_counter()
    identities = _run_families(families)
    return VerificationReport(seed, limits, identities, time.perf_counter() - start)
