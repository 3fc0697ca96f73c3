"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates from first principles (fillings, permutations,
subsets) and deliberately shares no code with the package implementations.
"""

from __future__ import annotations

import itertools


def syt_count_brute(parts: tuple[int, ...]) -> int:
    """Standard fillings, by placing 1..n in weakly-left-filled rows."""
    n = sum(parts)
    if n == 0:
        return 1
    rows = [0] * len(parts)

    def rec(placed: int) -> int:
        if placed == n:
            return 1
        acc = 0
        for i in range(len(parts)):
            if rows[i] < parts[i] and (i == 0 or rows[i - 1] > rows[i]):
                rows[i] += 1
                acc += rec(placed + 1)
                rows[i] -= 1
        return acc

    return rec(0)


def ssyt_count_brute(parts: tuple[int, ...], k: int) -> int:
    """Semistandard fillings with entries in 1..k, cell by cell."""
    cells = [(i, j) for i in range(len(parts)) for j in range(parts[i])]
    grid: dict[tuple[int, int], int] = {}

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        acc = 0
        for v in range(lo, k + 1):
            grid[(i, j)] = v
            acc += rec(idx + 1)
        if (i, j) in grid:
            del grid[(i, j)]
        return acc

    return rec(0)


def permutation_cycle_lengths(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            out.append(length)
    return tuple(sorted(out, reverse=True))


def class_sizes_brute(n: int) -> dict[tuple[int, ...], int]:
    """Cycle-type census of S_n by full enumeration."""
    out: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        t = permutation_cycle_lengths(perm)
        out[t] = out.get(t, 0) + 1
    return out


def fixed_point_count(cycle_lengths: tuple[int, ...]) -> int:
    return sum(1 for length in cycle_lengths if length == 1)


def sign_of_type(cycle_lengths: tuple[int, ...]) -> int:
    n = sum(cycle_lengths)
    return (-1) ** (n - len(cycle_lengths))


def partitions_brute(n: int, max_parts: int) -> set[tuple[int, ...]]:
    """All partitions of n with at most max_parts parts, by filtering every
    weakly decreasing composition."""
    out: set[tuple[int, ...]] = set()

    def rec(remaining: int, bound: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            if len(acc) <= max_parts:
                out.add(acc)
            return
        if len(acc) == max_parts:
            return
        for p in range(min(bound, remaining), 0, -1):
            rec(remaining - p, p, acc + (p,))

    rec(n, n, ())
    if n == 0:
        out.add(())
    return out


def cycle_cover_fermionant_brute(rows: list[list[int]], k: int) -> int:
    """The definition, written independently of the package: sum over
    permutations of (-k)^cycles times the entry product, with global sign."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        w = 1
        for i in range(n):
            w *= rows[i][perm[i]]
        total += (-k) ** len(permutation_cycle_lengths(perm)) * w
    return (-1) ** n * total


def _component_count(num_vertices: int, edges) -> int:
    """Components of the graph on 0..num_vertices-1, by depth-first search
    from every unvisited vertex (isolated vertices included)."""
    adjacent: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = [False] * num_vertices
    count = 0
    for start in range(num_vertices):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for y in adjacent[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def subgraph_tally_brute(num_vertices: int, edges) -> dict[tuple[int, int], int]:
    """Spanning subgraphs (V, S) counted by (c(S) - c(G), c(S) + |S| - |V|),
    visiting all 2^|E| edge subsets one by one."""
    c_full = _component_count(num_vertices, edges)
    tally: dict[tuple[int, int], int] = {}
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            c = _component_count(num_vertices, subset)
            key = (c - c_full, c + size - num_vertices)
            tally[key] = tally.get(key, 0) + 1
    return tally


def circuit_poly_brute(num_vertices: int, arcs) -> tuple[int, ...]:
    """Coefficients of the circuit-partition polynomial of a balanced
    digraph: the product over vertices of every bijection from its in-arcs
    to its out-arcs, each system's closed walks counted by following arcs."""
    in_arcs: list[list[int]] = [[] for _ in range(num_vertices)]
    out_arcs: list[list[int]] = [[] for _ in range(num_vertices)]
    for aid, (u, v) in enumerate(arcs):
        out_arcs[u].append(aid)
        in_arcs[v].append(aid)
    counts = [0] * (len(arcs) + 1)
    per_vertex = [itertools.permutations(out_arcs[v]) for v in range(num_vertices)]
    for system in itertools.product(*per_vertex):
        nxt = {}
        for v, outs in enumerate(system):
            nxt.update(zip(in_arcs[v], outs))
        walks = 0
        unvisited = set(range(len(arcs)))
        while unvisited:
            walks += 1
            a = unvisited.pop()
            a = nxt[a]
            while a in unvisited:
                unvisited.remove(a)
                a = nxt[a]
        counts[walks] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)
