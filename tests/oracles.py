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


def cycle_cover_fermionants_brute(rows: list[list[int]], ks) -> dict[int, int]:
    """The definition, written independently of the package, for each k in
    ks from one enumeration: sum over permutations of (-k)^cycles times the
    entry product, with global sign.  Permutations are tallied by cycle
    count, and those with a zero product skipped."""
    n = len(rows)
    by_cycles = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        w = 1
        for i in range(n):
            w *= rows[i][perm[i]]
            if not w:
                break
        if w:
            by_cycles[len(permutation_cycle_lengths(perm))] += w
    return {k: (-1) ** n * sum(c * (-k) ** j for j, c in enumerate(by_cycles)) for k in ks}


def cycle_cover_fermionant_brute(rows: list[list[int]], k: int) -> int:
    return cycle_cover_fermionants_brute(rows, (k,))[k]


def cycle_sums_brute(rows: list[list[int]]) -> list[int]:
    """C[S] for every vertex set S (C[0] = 0): the weight sum of the directed
    cycles with vertex set exactly S, each counted once, as the cycle
    through min(S) that visits S minus min(S) in one of its orderings."""
    n = len(rows)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        first, *others = [i for i in range(n) if mask >> i & 1]
        for order in itertools.permutations(others):
            w = 1
            for i, j in zip((first, *order), (*order, first)):
                w *= rows[i][j]
            sums[mask] += w
    return sums


def folded_top_brute(rows: list[list[int]], f: int) -> list[list[int]]:
    """[P_1, ..., P_f] for the first f vertices L = {0..f-1}: P_j[i] sums,
    over the permutations of L | Z with exactly j cycles, each cycle
    meeting L, the product of rows[v][pi(v)], where Z holds the vertices
    f + t for the bits t of i.  [] when f = 0."""
    if not f:
        return []
    h = len(rows) - f
    top = [[0] * (1 << h) for _ in range(f)]
    for i in range(1 << h):
        vertices = [*range(f), *(f + t for t in range(h) if i >> t & 1)]
        for image in itertools.permutations(vertices):
            pi = dict(zip(vertices, image))
            w = 1
            for v in vertices:
                w *= rows[v][pi[v]]
            if not w:
                continue
            seen: set[int] = set()
            cycles = 0
            for v in vertices:
                if v in seen:
                    continue
                cycle = [v]
                while pi[cycle[-1]] != v:
                    cycle.append(pi[cycle[-1]])
                seen.update(cycle)
                if min(cycle) >= f:
                    break
                cycles += 1
            else:
                top[cycles - 1][i] += w
    return top


def principal_minors(rows: list[list[int]]) -> list[int]:
    """d[S] = det A[S, S] for every vertex set S (d[0] = 1), each by its own
    fraction-free elimination: after pivot p, every entry below becomes
    (p * x - f * y) / (previous pivot), an exact integer division."""
    n = len(rows)
    d = [1] * (1 << n)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        m = [[rows[i][j] for j in idx] for i in idx]
        sign, prev = 1, 1
        for c in range(len(idx) - 1):
            if not m[c][c]:
                swap = next((r for r in range(c + 1, len(idx)) if m[r][c]), None)
                if swap is None:
                    sign = 0
                    break
                m[c], m[swap] = m[swap], m[c]
                sign = -sign
            pivot = m[c][c]
            for r in range(c + 1, len(idx)):
                f = m[r][c]
                m[r] = [(pivot * x - f * y) // prev for x, y in zip(m[r], m[c])]
            prev = pivot
        d[mask] = sign * m[-1][-1]
    return d


def colouring_fermionant(rows: list[list[int]], k: int) -> int:
    """Ferm_k by the colouring expansion.  sgn(pi) = (-1)^(n - cycles), and
    k^cycles counts the maps [n] -> [k] constant on the cycles of pi, so for
    k >= 1

        Ferm_k(A) = sum over maps f: [n] -> [k] of prod_c det A[f^-1(c)].

    Grouped by the j colours a map uses, that is sum over j of binom(k, j)
    E_j, with E_j the sum over ordered partitions of [n] into j nonempty
    blocks of the product of the blocks' principal minors.  Both sides are
    polynomials in k, so the grouped form holds for every integer k; for
    k >= 0 only j <= k contribute.  A sum of products of principal minors,
    sharing no code with the package."""
    n = len(rows)
    if n == 0:
        return 1
    d = principal_minors(rows)
    full = (1 << n) - 1
    e = [0] + d[1:]  # j = 1: one block
    total = k * e[full]
    top = min(k, n) if k >= 0 else n
    binom = k
    for j in range(2, top + 1):
        binom = binom * (k - j + 1) // j
        targets = (full,) if j == top else range(full + 1)
        nxt = [0] * (full + 1)
        for u in targets:
            s = 0
            t = u
            while t:  # nonempty blocks t within u, the rest split into j - 1
                s += d[t] * e[u ^ t]
                t = (t - 1) & u
            nxt[u] = s
        e = nxt
        total += binom * e[full]
    return total


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
