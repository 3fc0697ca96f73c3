"""Timings of the dp fermionant, stdlib only: on dense matrices (entries
drawn uniformly from +-1, +-2, +-3, seeded) and on the line digraphs of the
medial graphs of seeded plane graphs (two nonzeros a row); of the
Hamiltonian-cycle count; and of the two Tutte routes.

    python3 scripts/dp_timings.py levels [H ...]
        For each h (default 4..10), the cost of one cover level with h
        vertices above its lowest vertex, done as a list walk over every
        cycle and as the subset convolution: level m = 1 of a dense
        (h+2) x (h+2) matrix, the only level the two runs do differently
        (``matrixfn._list_cap`` is patched at h alone, and
        ``matrixfn._FOLD`` to 1, so that level 1 is not folded into the
        per-matrix top), best of a few k = 2 runs with the cycle sums
        memoised.  The crossover sets ``matrixfn._CONVOLVE_MIN_H``.
    python3 scripts/dp_timings.py dense [N ...]
        For each n (default 14 16 18 20), in a fresh process: the first k,
        Ferm_2 from a cold memo, as its two phases timed apart (cycle_sums_s,
        the k-independent phase: the cycle sums and, from them, the folded
        top of the cover, the per-matrix polynomial in -k of the cycles
        through the lowest levels; then cover_s, the rest of the cover for
        k = 2), then Ferm_3, Ferm_-1 and Ferm_1 on the same matrix (cover
        only), and the process's peak RSS.
    python3 scripts/dp_timings.py medial [EDGES ...]
        For each edge count (default 7 8 9 10), the line digraph of the
        medial graph of each of 20 seeded plane graphs with that many edges
        (n = 2 * EDGES): the cycle sums from a cold memo, then the cover for
        k = 2, timed apart, each reported as the median and max over the
        graphs.
    python3 scripts/dp_timings.py hamilton [N]
        ``count_hamiltonian_cycles`` at cap N (default 18, the largest n it
        takes) on K_{N-4}, K_{N-2}, K_N, K_{N/2-1,N/2-1} and K_{N/2,N/2},
        vertices relabelled at random (seeded), and on G(N, 0.2) and
        G(N, 0.5), seeds 1 and 2: for each graph, the count, the tracemalloc
        peak of a first call and the time of a second call.
    python3 scripts/dp_timings.py tutte [GRAPHS]
        Both Tutte routes, ``tutte`` (deletion-contraction) and
        ``tutte_subgraph_sum``, on GRAPHS (default 30) seeded graphs of each
        of two kinds, 14 edges each: multigraphs on 6 vertices, drawn as the
        benchmark's graph-poly workload draws them (no loops), and simple
        graphs on 7 vertices; then on the fat triangle, classes of 5, 5 and
        4 parallel edges.  One line per kind: the median and max time of
        one call of each route over its graphs, which must agree.

Each line is one JSON object on stdout.  The package timed is the first
``fermionant`` on ``sys.path``: this checkout's ``src`` is appended to it, so
``PYTHONPATH=<other tree>/src`` times that tree instead (the dense mode's
fresh processes inherit it).  The timed package's path goes to stderr.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.append(str(SRC))

from fermionant import (  # noqa: E402
    Matrix,
    Multigraph,
    count_hamiltonian_cycles,
    fermionant,
    generate_plane_graph,
    matrixfn,
    medial_line_adjacency,
    tutte,
    tutte_subgraph_sum,
)

ENTRIES = (1, -1, 2, -2, 3, -3)


def dense_matrix(n: int, seed: int) -> Matrix:
    rng = random.Random(f"dp-timings-{n}-{seed}")
    return Matrix(tuple(tuple(rng.choice(ENTRIES) for _ in range(n)) for _ in range(n)))


def medial_matrix(edges: int, seed: int) -> Matrix:
    rng = random.Random(f"dp-timings-medial-{edges}-{seed}")
    while True:
        g = generate_plane_graph(rng.randrange(2**31), edges)
        if g.num_edges == edges:
            return medial_line_adjacency(g)


def _best_of(runs: int, call) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def time_levels(hs: list[int]) -> None:
    rule, fold = matrixfn._list_cap, matrixfn._FOLD
    matrixfn._FOLD = 1
    try:
        for h in hs:
            a = dense_matrix(h + 2, 0)
            times = {}
            for kind, cap in (("list", 1 << h), ("convolve", 0)):
                matrixfn._list_cap = lambda hh, h=h, cap=cap: cap if hh == h else rule(hh)
                matrixfn._cycle_sums.cache_clear()
                matrixfn._cycle_sums(a)
                times[kind] = _best_of(3 if h < 10 else 1, lambda: fermionant(a, 2, "dp"))
            row = {"h": h, **{f"{kind}_s": round(t, 6) for kind, t in times.items()}}
            row["convolve_over_list"] = round(times["convolve"] / times["list"], 3)
            print(json.dumps(row), flush=True)
    finally:
        matrixfn._list_cap, matrixfn._FOLD = rule, fold
        matrixfn._cycle_sums.cache_clear()


def time_dense(n: int) -> None:
    a = dense_matrix(n, 0)
    matrixfn._cycle_sums.cache_clear()
    row: dict[str, object] = {"n": n, "cycle_sums_s": round(_best_of(1, lambda: matrixfn._cycle_sums(a)), 3)}
    row["cover_s"] = round(_best_of(1, lambda: fermionant(a, 2, "dp")), 3)
    for k in (3, -1, 1):
        row[f"k={k}_s"] = round(_best_of(1, lambda: fermionant(a, k, "dp")), 3)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    row["python"] = sys.version.split()[0]
    print(json.dumps(row), flush=True)


def time_medial(edges: int, graphs: int = 20) -> None:
    cycle_sums, cover = [], []
    for seed in range(graphs):
        a = medial_matrix(edges, seed)
        matrixfn._cycle_sums.cache_clear()
        cycle_sums.append(_best_of(1, lambda: matrixfn._cycle_sums(a)))
        cover.append(_best_of(1, lambda: fermionant(a, 2, "dp")))
    row: dict[str, object] = {"edges": edges, "n": 2 * edges, "graphs": graphs}
    for name, times in (("cycle_sums", cycle_sums), ("cover", cover)):
        row[f"{name}_median_s"] = round(statistics.median(times), 5)
        row[f"{name}_max_s"] = round(max(times), 5)
    print(json.dumps(row), flush=True)


def hamilton_graphs(cap: int) -> list[tuple[str, Multigraph]]:
    """(name, graph) for the hamilton mode: the complete and complete
    bipartite graphs relabelled at random (seeded), then G(cap, p)."""
    shapes = [(f"K{n}", n, [(u, v) for u in range(n) for v in range(u + 1, n)])
              for n in (cap - 4, cap - 2, cap)]
    shapes += [(f"K{a},{a}", 2 * a, [(u, a + v) for u in range(a) for v in range(a)])
               for a in (cap // 2 - 1, cap // 2)]
    graphs = []
    for name, n, pairs in shapes:
        label = random.Random(f"dp-timings-hamilton-{name}").sample(range(n), n)
        graphs.append((name, Multigraph(n, tuple((label[u], label[v]) for u, v in pairs))))
    for p in (0.2, 0.5):
        for seed in (1, 2):
            rng = random.Random(seed)
            edges = tuple((u, v) for u in range(cap) for v in range(u + 1, cap) if rng.random() < p)
            graphs.append((f"G({cap},{p}) seed {seed}", Multigraph(cap, edges)))
    return graphs


def time_hamilton(cap: int) -> None:
    for name, graph in hamilton_graphs(cap):
        tracemalloc.start()
        cycles = count_hamiltonian_cycles(graph)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row = {"graph": name, "n": graph.num_vertices, "cycles": cycles,
               "seconds": round(_best_of(1, lambda: count_hamiltonian_cycles(graph)), 5),
               "traced_peak_mb": round(peak / 2**20, 3)}
        print(json.dumps(row), flush=True)


def tutte_graphs(graphs: int) -> list[tuple[str, list[Multigraph]]]:
    """(kind, graphs) for the tutte mode, 14 edges each."""
    multigraphs, simple = [], []
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    for seed in range(graphs):
        rng = random.Random(f"dp-timings-tutte-multigraph-{seed}")
        pairs = []
        while len(pairs) < 14:
            u, v = rng.randrange(6), rng.randrange(6)
            if u != v:
                pairs.append((min(u, v), max(u, v)))
        multigraphs.append(Multigraph(6, tuple(pairs)))
        rng = random.Random(f"dp-timings-tutte-simple-{seed}")
        simple.append(Multigraph(7, tuple(rng.sample(k7, 14))))
    fat = Multigraph(3, ((0, 1),) * 5 + ((1, 2),) * 5 + ((0, 2),) * 4)
    return [("multigraph 6 vertices", multigraphs), ("simple 7 vertices", simple),
            ("fat triangle 5,5,4", [fat])]


def time_tutte(graphs: int) -> None:
    for kind, batch in tutte_graphs(graphs):
        times: dict[str, list[float]] = {"tutte": [], "subgraph_sum": []}
        for g in batch:
            values = []
            for name, route in (("tutte", tutte), ("subgraph_sum", tutte_subgraph_sum)):
                t0 = time.perf_counter()
                values.append(route(g))
                times[name].append(time.perf_counter() - t0)
            if values[0] != values[1]:
                raise SystemExit(f"the Tutte routes disagree on {g}")
        row: dict[str, object] = {"graphs": kind, "count": len(batch), "edges": 14}
        for name, ts in times.items():
            row[f"{name}_median_s"] = round(statistics.median(ts), 5)
            row[f"{name}_max_s"] = round(max(ts), 5)
        print(json.dumps(row), flush=True)


def main(argv: list[str]) -> None:
    mode, args = (argv[0], [int(x) for x in argv[1:]]) if argv else ("", [])
    print(f"timing {Path(matrixfn.__file__).parent}", file=sys.stderr, flush=True)
    if mode == "levels":
        time_levels(args or list(range(4, 11)))
    elif mode == "dense":
        for n in args or [14, 16, 18, 20]:
            subprocess.run([sys.executable, __file__, "dense-one", str(n)], check=True)
    elif mode == "dense-one" and len(args) == 1:
        time_dense(args[0])
    elif mode == "medial":
        for edges in args or [7, 8, 9, 10]:
            time_medial(edges)
    elif mode == "hamilton" and len(args) <= 1:
        time_hamilton(args[0] if args else 18)
    elif mode == "tutte" and len(args) <= 1:
        time_tutte(args[0] if args else 30)
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
