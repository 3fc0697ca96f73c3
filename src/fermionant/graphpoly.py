"""Tutte polynomial, circuit-partition polynomial, and the bridge between
them for plane graphs.

The Tutte polynomial is computed two ways: a spanning-subgraph sum

    T(G; x, y) = sum over S subset of E of
                 (x-1)^(c(S) - c(G)) * (y-1)^(c(S) + |S| - |V|)

used as the oracle, and the usual deletion-contraction recursion.  c counts
connected components, isolated vertices included; c(S) + |S| - |V| is the
total excess of the spanning subgraph (V, S), the number of independent
cycles in it.  The sum is tallied by a transfer over the edges whose state
is the component labelling of the vertices with an edge still to come, so
subsets that connect those vertices alike are counted together rather than
visited one by one.

The circuit-partition polynomial j(G; z) of an Eulerian digraph is the
generating function sum of r_t z^t, where r_t counts the transition systems
(one bijection from in-arcs to out-arcs at every vertex) whose induced arc
decomposition has exactly t closed walks.  r_1 is the number of Eulerian
circuits.  An arcless digraph yields the constant 1 (empty product).  The
systems are counted by a depth-first search that settles one vertex's
bijection at a time, each arc picking a free out-arc of its head; arcs with
no choice are linked before the search, and the last vertex with a choice is
closed without one: its d! bijections add the Stirling numbers of the first
kind c(d, j) to the counts.

For a plane graph G with directed medial G_m these meet in Martin's
identity:  j(G_m; z) = z^(c(G)) * T(G; z+1, z+1), valid when G has no
isolated vertices.  ``martin_rhs`` builds the right-hand side.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import CapacityError
from .graphs import (
    Digraph,
    Multigraph,
    PlaneGraph,
    _fundamental_cycles,
    connected_components,
)
from .polynomials import BivarPolynomial, UniPolynomial

SUBGRAPH_SUM_MAX_EDGES = 16
TUTTE_MAX_EDGES = 14
TRANSITION_MAX_SYSTEMS = 10**7


def _subgraph_tally(graph: Multigraph) -> dict[tuple[int, int], int]:
    """Spanning subgraphs (V, S) counted by (c(S) - c(G), c(S) + |S| - |V|),
    the exponent pair of the subgraph sum.

    A connectivity-state transfer over the edges in id order: a state is the
    component labelling of the vertices under the edges chosen so far, each
    component labelled in order of its first vertex, mapped to the number of
    edge choices reaching it per (closed components, |S|).  Leaving an edge
    out keeps the state; taking it merges its endpoints' labels, or, for a
    loop or an edge inside one component, only bumps |S|.  After its last
    edge a vertex drops out of the labelling, and a component left with no
    labelled vertex is counted closed, so choices that differ only among
    finished vertices share a state.  The edgeless vertices are left out of
    the labelling, the rest numbered in order of first appearance, and c(S)
    is the closed count plus the edgeless vertices.  Both subgraph-sum
    routes meet their edge bound here."""
    if graph.num_edges > SUBGRAPH_SUM_MAX_EDGES:
        raise CapacityError(f"subgraph sum limited to {SUBGRAPH_SUM_MAX_EDGES} edges, got {graph.num_edges}")
    c_full, _ = connected_components(graph)
    label: dict[int, int] = {}
    edges = [(label.setdefault(u, len(label)), label.setdefault(v, len(label))) for u, v in graph.edges]
    n = len(label)
    last_edge = {}
    for e, (u, v) in enumerate(edges):
        last_edge[u] = last_edge[v] = e
    step = len(edges) + 1  # a count's key is |S| + step * (closed components)
    states: dict[tuple[int, ...], dict[int, int]] = {tuple(range(n)): {0: 1}}
    for e, (u, v) in enumerate(edges):
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for labels, counts in states.items():
            out = nxt.setdefault(labels, {})
            for key, count in counts.items():
                out[key] = out.get(key, 0) + count
            a, b = labels[u], labels[v]
            if a != b:  # the later-labelled component joins the earlier one
                if a > b:
                    a, b = b, a
                labels = tuple([a if x == b else x - (x > b) for x in labels])
            out = nxt.setdefault(labels, {})
            for key, count in counts.items():
                out[key + 1] = out.get(key + 1, 0) + count
        states = nxt
        finished = [w for w in {u, v} if last_edge[w] == e]
        if not finished:
            continue
        nxt = {}
        for labels, counts in states.items():
            marks = list(labels)
            shift = 0
            for w in finished:
                a = marks[w]
                marks[w] = -1
                if a not in marks:
                    shift += step
            order: dict[int, int] = {}
            labels = tuple([order.setdefault(x, len(order)) if x >= 0 else -1 for x in marks])
            out = nxt.setdefault(labels, {})
            for key, count in counts.items():
                out[key + shift] = out.get(key + shift, 0) + count
        states = nxt
    edgeless = graph.num_vertices - n
    tally: dict[tuple[int, int], int] = {}
    for counts in states.values():
        for key, count in counts.items():
            c = key // step + edgeless
            pair = (c - c_full, c + key % step - graph.num_vertices)
            tally[pair] = tally.get(pair, 0) + count
    return tally


def tutte_subgraph_sum(graph: Multigraph) -> BivarPolynomial:
    """The spanning-subgraph sum, expanded exactly into the (x, y) basis from
    the connectivity-state tally; the independent oracle for ``tutte``, as
    it never deletes or contracts an edge."""
    coeffs: dict[tuple[int, int], int] = {}
    for (a, b), count in _subgraph_tally(graph).items():
        for i in range(a + 1):
            xa = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                term = count * xa * comb(b, j) * (-1) ** (b - j)
                key = (i, j)
                coeffs[key] = coeffs.get(key, 0) + term
    return BivarPolynomial(coeffs)


def _bridges(num_vertices: int, edges: list[tuple[int, int]]) -> set[int]:
    """Ids of bridge edges, the edges on no cycle.  Every edge outside the
    spanning forest lies on its own fundamental cycle, so these are the
    forest edges that no fundamental cycle covers."""
    cycles = _fundamental_cycles(num_vertices, edges)
    on_cycle = 0
    for mask in cycles:
        on_cycle |= mask
    return {eid for eid in range(len(edges)) if not on_cycle >> eid & 1}


def tutte(graph: Multigraph) -> BivarPolynomial:
    """Tutte polynomial by deletion-contraction.

    Recurses on the highest-id edge that is neither a loop nor a bridge;
    once only loops and bridges remain the value is x^bridges * y^loops.
    Isolated vertices leave T unchanged, so the recursion sees only the
    vertices with an edge, numbered in order of first appearance.
    Deterministic, no isomorphism caching.
    """
    if graph.num_edges > TUTTE_MAX_EDGES:
        raise CapacityError(
            f"deletion-contraction limited to {TUTTE_MAX_EDGES} edges, got {graph.num_edges}"
        )

    def rec(n: int, edges: list[tuple[int, int]]) -> BivarPolynomial:
        loops = sum(1 for u, v in edges if u == v)
        bridges = _bridges(n, edges)
        pick = -1
        for eid in range(len(edges) - 1, -1, -1):
            u, v = edges[eid]
            if u != v and eid not in bridges:
                pick = eid
                break
        if pick < 0:
            return BivarPolynomial.monomial(len(bridges), loops)
        u, v = edges[pick]
        deleted = edges[:pick] + edges[pick + 1 :]
        lo, hi = min(u, v), max(u, v)

        def relabel(w: int) -> int:
            if w == hi:
                return lo
            return w - 1 if w > hi else w

        contracted = [(relabel(a), relabel(b)) for a, b in deleted]
        return rec(n, deleted) + rec(n - 1, contracted)

    label: dict[int, int] = {}
    edges = [(label.setdefault(u, len(label)), label.setdefault(v, len(label))) for u, v in graph.edges]
    return rec(len(label), edges)


def tutte_diagonal(graph: Multigraph, x: int) -> int:
    """T(G; x, x) computed directly from the one-variable subgraph sum

        sum over S of (x-1)^(c(S) + l(S) - c(G)),  l(S) = c(S) + |S| - |V|,

    as an oracle independent of deletion-contraction; it reads the same
    tally as ``tutte_subgraph_sum``, so it is no check on that route."""
    return sum(count * (x - 1) ** (a + b) for (a, b), count in _subgraph_tally(graph).items())


def _stirling_cycles(d: int) -> list[int]:
    """c(d, j) for j = 0..d: the permutations of d things with j cycles, the
    coefficients of the rising factorial z(z+1)...(z+d-1)."""
    row = [1]
    for i in range(d):
        row = [i * c + lower for c, lower in zip([*row, 0], [0, *row])]
    return row


def _count_systems(arcs: tuple[tuple[int, int], ...], out_arcs: list[list[int]]) -> list[int]:
    """counts[c]: the transition systems with c circuits of a balanced
    digraph with at least one arc.

    The placed pairs arc -> out-arc of its head form chains head -> ... ->
    tail.  An arc into a vertex of out-degree 1 is that vertex's only
    in-arc, so its pair is placed before the search, which recurses only
    through the arcs with a choice, grouped by head vertex in id order, so
    that it settles one vertex's bijection at a time.  An arc not yet placed
    is always a tail and a free arc always a head, so each pick closes a
    circuit or joins two chains in O(1), and is undone on return.  Balance
    leaves every pick a free out-arc.

    The search stops before v, the last vertex with a choice.  There v's d
    out-arcs are the free heads and its d in-arcs the open tails, so the
    chains pair them by some bijection pi; v's own bijection sigma closes
    them into the cycles of sigma o pi, which runs over all of S_d as sigma
    does.  So each partial system with ``closed`` circuits stands for c(d, j)
    systems with closed + j circuits, and the search only tallies the
    partial systems by ``closed``.
    """
    m = len(arcs)
    head = list(range(m))  # head[t] of the chain ending at tail t
    tail = list(range(m))  # tail[h] of the chain starting at head h
    free = [True] * m
    closed = 0
    choosers: list[int] = []
    for a, (_, v) in enumerate(arcs):
        if len(out_arcs[v]) > 1:
            choosers.append(a)
            continue
        (b,) = out_arcs[v]
        free[b] = False
        h = head[a]
        if b == h:
            closed += 1
        else:
            t = tail[b]
            tail[h] = t
            head[t] = h
    counts = [0] * (m + 1)
    if not choosers:  # the forced pairs are a bijection, all circuits closed
        counts[closed] = 1
        return counts
    choosers.sort(key=lambda a: arcs[a][1])  # stable: arc-id order within a vertex
    last_degree = len(out_arcs[arcs[choosers[-1]][1]])
    order = choosers[:-last_degree]
    options = [out_arcs[arcs[a][1]] for a in order]
    depth = len(order)
    tally = [0] * (m + 1)  # tally[c]: searched partial systems with c circuits closed

    def extend(d: int, closed: int) -> None:
        if d == depth:
            tally[closed] += 1
            return
        i = order[d]
        h = head[i]
        for j in options[d]:
            if not free[j]:
                continue
            free[j] = False
            if j == h:
                extend(d + 1, closed + 1)
            else:
                t = tail[j]
                tail[h] = t
                head[t] = h
                extend(d + 1, closed)
                tail[h] = i
                head[t] = j
            free[j] = True

    extend(0, closed)
    # extend refers to itself through its closure; breaking that cycle frees
    # the search state now rather than at the next cyclic collection, which
    # otherwise lets one dead state per call pile up and raise peak memory
    del extend
    cycles = _stirling_cycles(last_degree)
    for c, count in enumerate(tally):
        if count:
            for j in range(1, last_degree + 1):
                counts[c + j] += count * cycles[j]
    return counts


def circuit_partition_poly(graph: Digraph) -> UniPolynomial:
    """Generating function of transition systems by circuit count.

    Requires in-degree = out-degree at every vertex, checked at every vertex
    before the system count.  A transition system is a permutation of the
    arcs sending each arc to an out-arc of its head, and its circuits are
    the permutation's cycles, which ``_count_systems`` counts by searching
    every vertex with a choice but the last and closing that one by
    Stirling numbers.  The product of degree factorials is capped at
    ``TRANSITION_MAX_SYSTEMS``, though the search visits only the systems
    of the other vertices.
    """
    n = graph.num_vertices
    arcs = graph.arcs
    in_degree = [0] * n
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    for aid, (u, v) in enumerate(arcs):
        out_arcs[u].append(aid)
        in_degree[v] += 1
    for v in range(n):
        if in_degree[v] != len(out_arcs[v]):
            raise ValueError(
                f"vertex {v} is not Eulerian: in-degree {in_degree[v]}"
                f" != out-degree {len(out_arcs[v])}"
            )
    systems = 1
    for v in range(n):
        systems *= factorial(in_degree[v])
        if systems > TRANSITION_MAX_SYSTEMS:
            raise CapacityError(
                f"transition-system count exceeds {TRANSITION_MAX_SYSTEMS} at vertex {v}"
            )
    if not arcs:
        return UniPolynomial.constant(1)
    return UniPolynomial(tuple(_count_systems(arcs, out_arcs)))


def martin_rhs(plane: PlaneGraph) -> UniPolynomial:
    """z^(c(G)) * T(G; z+1, z+1), the Tutte side of Martin's identity."""
    t = tutte(plane.graph)
    c, _ = connected_components(plane.graph)
    z_plus_1 = UniPolynomial((1, 1))
    return t.substitute_diagonal(z_plus_1).shift(c)
