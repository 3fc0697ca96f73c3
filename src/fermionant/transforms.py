"""Graph constructions: directed medial graph, line digraph, bicycle space.

The directed medial G_m of a plane graph places one vertex on every edge of
G and, for each face walk e_1 ... e_l (traced with bounded faces encircled
counterclockwise), adds the arcs e_i -> e_(i+1 mod l).  Every medial vertex
then has in-degree and out-degree exactly 2, and the arc count is twice the
edge count of G.  A bridge appears twice in the same walk, producing loops
at its medial vertex.

The line digraph G_e of a digraph has one vertex per arc of G, with an arc
from (u, v) to (u', v') whenever v = u', i.e. whenever the two could be
walked consecutively.  Transition systems of an Eulerian G correspond to
permutations of V(G_e) with nonzero weight in the adjacency matrix of G_e,
circuits matching permutation cycles, which yields

    Ferm_k(A(G_e)) = (-1)^(number of arcs of G) * j(G; -k).

The sign is +1 for every medial graph (2|E| arcs), giving the unsigned form
for plane graphs.

The bicycle space of a multigraph is the GF(2) intersection of the cycle
space and the cut (star) space; its dimension controls the Tutte value at
(-1, -1).  Its cycle basis is the fundamental cycles of the spanning forest
in ``graphs``, and every vertex star spans the cut space; the GF(2) rank
that meets the two lives here, on edge-indexed bitmasks (Python ints are
unbounded, so one "word" per row covers any edge count).
"""

from __future__ import annotations

from .errors import CapacityError
from .graphs import (
    Digraph,
    Multigraph,
    PlaneGraph,
    _fundamental_cycles,
    adjacency_matrix,
    connected_components,
    faces,
)

BICYCLE_MAX_EDGES = 10**4


def medial(plane: PlaneGraph) -> Digraph:
    """Directed medial graph; one vertex per edge of the input, arcs along
    face walks.  Rejects edgeless input (no medial vertices)."""
    g = plane.graph
    if g.num_edges == 0:
        raise ValueError("medial graph requires at least one edge")
    arcs = []
    for walk in faces(plane):
        length = len(walk)
        for i in range(length):
            arcs.append((walk[i][0], walk[(i + 1) % length][0]))
    arcs.sort()
    return Digraph(g.num_edges, tuple(arcs))


def line_digraph(graph: Digraph) -> Digraph:
    """One vertex per arc; arc a -> b whenever head(a) = tail(b), listed
    by a and then b.  Each arc a reads only the arcs leaving head(a)."""
    arcs = graph.arcs
    leaving: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for b, (tail, _) in enumerate(arcs):
        leaving[tail].append(b)
    out = [(a, b) for a, (_, head) in enumerate(arcs) for b in leaving[head]]
    return Digraph(len(arcs), tuple(out))


def _gf2_rank(rows: list[int]) -> int:
    """Rank of the span of the given bitmask vectors over GF(2), by Gaussian
    elimination keyed on the leading bit."""
    pivots: dict[int, int] = {}
    for vec in rows:
        x = vec
        while x:
            msb = x.bit_length() - 1
            if msb in pivots:
                x ^= pivots[msb]
            else:
                pivots[msb] = x
                break
    return len(pivots)


def bicycle_dimension(graph: Multigraph) -> int:
    """Dimension over GF(2) of cycle space intersect cut space, via
    dim U + dim W - dim(U + W).  The cycle space has the forest's
    fundamental cycles as a basis, one per edge off the forest, and the cut
    space has dimension the forest's edge count, so dim U + dim W = |E|;
    U + W is spanned by those cycles and every vertex star.  A loop's bit is
    flipped twice at its one vertex, so it vanishes from the stars.

    Every row is a bitmask as wide as the edge count and the elimination
    may reduce each row by every pivot, so more than ``BICYCLE_MAX_EDGES``
    edges raise ``CapacityError`` before any work."""
    if graph.num_edges > BICYCLE_MAX_EDGES:
        raise CapacityError(
            f"bicycle dimension limited to {BICYCLE_MAX_EDGES} edges, got {graph.num_edges}"
        )
    stars = [0] * graph.num_vertices
    for eid, (a, b) in enumerate(graph.edges):
        stars[a] ^= 1 << eid
        stars[b] ^= 1 << eid
    cycles = _fundamental_cycles(graph.num_vertices, graph.edges)
    return graph.num_edges - _gf2_rank(cycles + stars)


def ferm2_medial_closed_form(plane: PlaneGraph) -> int:
    """Closed form for Ferm_2 of the adjacency matrix of the line digraph of
    the medial graph:

        (-2)^(components of G) * (-1)^(edges of G) * (-2)^(bicycle dimension)

    It equals the directly computed fermionant whenever every component of G
    contains an edge (the medial graph never sees isolated vertices)."""
    g = plane.graph
    if g.num_edges == 0:
        raise ValueError("medial graph requires at least one edge")
    c, _ = connected_components(g)
    dim_b = bicycle_dimension(g)
    return (-2) ** c * (-1) ** g.num_edges * (-2) ** dim_b


def medial_line_adjacency(plane: PlaneGraph):
    """Adjacency matrix of line_digraph(medial(G)); the matrix whose
    fermionant the plane-graph identities are about."""
    return adjacency_matrix(line_digraph(medial(plane)))
