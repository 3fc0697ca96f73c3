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
circuits.  An arcless digraph yields the constant 1 (empty product).

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
    _union_find,
    connected_components,
)
from .polynomials import BivarPolynomial, UniPolynomial

SUBGRAPH_SUM_DEFAULT_MAX_EDGES = 16
TUTTE_DEFAULT_MAX_EDGES = 14
TRANSITION_DEFAULT_MAX_SYSTEMS = 10**7


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
    finished vertices share a state.  c(S) is the closed count plus the
    edgeless vertices."""
    n = graph.num_vertices
    edges = graph.edges
    c_full, _ = _union_find(n, edges)
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
    edgeless = n - len(last_edge)
    tally: dict[tuple[int, int], int] = {}
    for counts in states.values():
        for key, count in counts.items():
            c = key // step + edgeless
            pair = (c - c_full, c + key % step - n)
            tally[pair] = tally.get(pair, 0) + count
    return tally


def tutte_subgraph_sum(
    graph: Multigraph, *, max_edges: int = SUBGRAPH_SUM_DEFAULT_MAX_EDGES
) -> BivarPolynomial:
    """The spanning-subgraph sum, expanded exactly into the (x, y) basis from
    the connectivity-state tally; the independent oracle for ``tutte``, as
    it never deletes or contracts an edge."""
    m = graph.num_edges
    if m > max_edges:
        raise CapacityError(f"subgraph sum limited to {max_edges} edges, got {m}")
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
    on_cycle = 0
    for mask in _fundamental_cycles(num_vertices, edges):
        on_cycle |= mask
    return {eid for eid in range(len(edges)) if not on_cycle >> eid & 1}


def tutte(graph: Multigraph, *, max_edges: int = TUTTE_DEFAULT_MAX_EDGES) -> BivarPolynomial:
    """Tutte polynomial by deletion-contraction.

    Recurses on the highest-id edge that is neither a loop nor a bridge;
    once only loops and bridges remain the value is x^bridges * y^loops.
    Deterministic, no isomorphism caching.
    """
    if graph.num_edges > max_edges:
        raise CapacityError(
            f"deletion-contraction limited to {max_edges} edges, got {graph.num_edges}"
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

    return rec(graph.num_vertices, list(graph.edges))


def tutte_diagonal(
    graph: Multigraph, x: int, *, max_edges: int = SUBGRAPH_SUM_DEFAULT_MAX_EDGES
) -> int:
    """T(G; x, x) computed directly from the one-variable subgraph sum

        sum over S of (x-1)^(c(S) + l(S) - c(G)),  l(S) = c(S) + |S| - |V|,

    as an oracle independent of both Tutte routes."""
    m = graph.num_edges
    if m > max_edges:
        raise CapacityError(f"diagonal sum limited to {max_edges} edges, got {m}")
    return sum(count * (x - 1) ** (a + b) for (a, b), count in _subgraph_tally(graph).items())


def _link_chains(succ: list[list[tuple[int, int]]], power: list[int]) -> dict[int, int]:
    """Weight sums of the permutations pi of 0..N-1 that send each i to one
    of its listed successors, succ[i] = [(j, x), ...] with weight x, keyed by
    the sum of power[length] over the cycles of pi; the weight of pi is the
    product of its chosen x.  The search behind ``circuit_partition_poly``,
    N >= 1.

    The placed pairs form chains head -> ... -> tail.  An element with one
    listed successor is placed before the search, so the search recurses
    only through the elements with a choice, however many are forced.  Each
    of those then picks a free successor depth first, so an element without
    a free listed successor prunes its whole subtree.  An element not yet
    placed is always a tail and a free successor always a head, so each pick
    closes a cycle or joins two chains in O(1), and is undone on return.
    """
    n = len(succ)
    head = list(range(n))  # head[t] of the chain ending at tail t
    tail = list(range(n))  # tail[h] of the chain starting at head h
    size = [1] * n  # size[h]: elements on the chain starting at head h
    free = [True] * n
    key0, w0 = 0, 1
    choosers: list[int] = []
    for i, options in enumerate(succ):
        if len(options) != 1:
            if not options:
                return {}
            choosers.append(i)
            continue
        ((j, x),) = options
        if not free[j]:
            return {}
        free[j] = False
        w0 *= x
        h = head[i]
        if j == h:
            key0 += power[size[h]]
        else:
            t = tail[j]
            tail[h] = t
            head[t] = h
            size[h] += size[j]
    if not choosers:  # the forced pairs are a bijection, all cycles closed
        return {key0: w0}
    last = choosers[-1]
    last_weight = [0] * n  # x of last -> j, 0 where j is not listed
    for j, x in succ[last]:
        last_weight[j] = x
    order = choosers[:-1]
    depth = len(order)
    sums: dict[int, int] = {}

    def extend(d: int, w: int, key: int) -> None:
        if d == depth:  # one successor is free, and it closes the chain
            h = head[last]
            x = last_weight[h]
            if x:
                key += power[size[h]]
                sums[key] = sums.get(key, 0) + w * x
            return
        i = order[d]
        h = head[i]
        for j, x in succ[i]:
            if not free[j]:
                continue
            free[j] = False
            if j == h:
                extend(d + 1, w * x, key + power[size[h]])
            else:
                t = tail[j]
                tail[h] = t
                head[t] = h
                size_h = size[h]
                size[h] = size_h + size[j]
                extend(d + 1, w * x, key)
                tail[h] = i
                head[t] = j
                size[h] = size_h
            free[j] = True

    extend(0, w0, key0)
    # extend refers to itself through its closure; breaking that cycle frees
    # the search state now rather than at the next cyclic collection, which
    # otherwise lets one dead state per call pile up and raise peak memory
    del extend
    return sums


def circuit_partition_poly(
    graph: Digraph, *, max_systems: int = TRANSITION_DEFAULT_MAX_SYSTEMS
) -> UniPolynomial:
    """Generating function of transition systems by circuit count.

    Requires in-degree = out-degree at every vertex, checked at every vertex
    before the system count.  A transition system is a permutation of the
    arcs sending each arc to an out-arc of its head, and its circuits are
    the permutation's cycles, so the chain-linking search ``_link_chains``
    visits the systems one by one, every cycle keyed 1.  The product of
    degree factorials is capped at ``max_systems``.
    """
    n = graph.num_vertices
    arcs = graph.arcs
    in_degree = [0] * n
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for aid, (u, v) in enumerate(arcs):
        out_arcs[u].append((aid, 1))
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
        if systems > max_systems:
            raise CapacityError(
                f"transition-system count exceeds {max_systems} at vertex {v}"
            )
    if not arcs:
        return UniPolynomial.constant(1)

    counts = [0] * (len(arcs) + 1)
    successors = [out_arcs[head] for _, head in arcs]
    for circuits, count in _link_chains(successors, [1] * len(counts)).items():
        counts[circuits] = count
    return UniPolynomial(tuple(counts))


def martin_rhs(plane: PlaneGraph, *, max_edges: int = TUTTE_DEFAULT_MAX_EDGES) -> UniPolynomial:
    """z^(c(G)) * T(G; z+1, z+1), the Tutte side of Martin's identity."""
    t = tutte(plane.graph, max_edges=max_edges)
    c, _ = connected_components(plane.graph)
    z_plus_1 = UniPolynomial((1, 1))
    return t.substitute_diagonal(z_plus_1).shift(c)
