r"""Multigraphs, digraphs, and combinatorial planar embeddings.

A PlaneGraph is a multigraph plus a rotation system: for each vertex, the
cyclic counterclockwise order of its incident half-edges.  Each edge e
contributes half-edges (e, 0) at its first endpoint and (e, 1) at its
second; a loop contributes both at the same vertex.

Face traversal follows the fixed successor rule: a dart (a directed
traversal of an edge, named by the half-edge it departs from) arrives at a
vertex on the opposite half-edge, and the walk continues along the next
half-edge counterclockwise from the arrival.  With counterclockwise
rotations this traces every bounded face with its interior on the left and
the unbounded face the other way round, e.g. for a triangle embedded with
vertices in counterclockwise position::

        2            rotation at 1 is [edge 12, edge 01]; the dart 0->1
       / \           arrives on edge 01's half-edge at 1 and departs on
      0---1          edge 12, so the walk 0->1->2->0 encloses the inside.

Every half-edge lies on exactly one face walk, so walk lengths sum to twice
the edge count, and each component that has edges satisfies the planarity
relation  vertices - edges + faces = 2.  (With all edges in one component
this is the familiar |V| - |E| + |F| = 1 + components, isolated vertices
included.)  Constructors reject rotation systems that violate it.

Face tracing has one home here: ``faces`` and the plane-graph generators
(on the rotation lists of an embedding under construction) share one walk.
Connectivity has one home here too: one depth-first spanning forest gives
the component labels and counts, and its fundamental cycles, built only for
the bicycle space that reads them.

All graph values are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import FormatError

if TYPE_CHECKING:
    from .matrixfn import Matrix

HalfEdge = tuple[int, int]  # (edge_id, end) with end in {0, 1}


def _checked_pairs(
    num_vertices: int, pairs: Iterable[tuple[int, int]], noun: str
) -> tuple[tuple[int, int], ...]:
    """The endpoint pairs of a graph's edges or arcs (``noun``) as a tuple,
    each endpoint an int (not a bool) naming one of ``num_vertices``
    vertices; anything else is a ValueError naming the pair's position."""
    if type(num_vertices) is not int:
        raise ValueError(f"num_vertices must be an integer, got {num_vertices!r}")
    if num_vertices < 0:
        raise ValueError("num_vertices must be nonnegative")
    pairs = tuple((u, v) for u, v in pairs)
    for i, (u, v) in enumerate(pairs):
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"{noun} {i} endpoints ({u!r}, {v!r}) must be integers")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(
                f"{noun} {i} endpoints ({u}, {v}) out of range for {num_vertices} vertices"
            )
    return pairs


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; loops and parallel edges allowed.  The index
    of an edge in ``edges`` is its id."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _checked_pairs(self.num_vertices, self.edges, "edge"))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Loops count twice."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def is_loop(self, edge_id: int) -> bool:
        u, v = self.edges[edge_id]
        return u == v


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph; arcs are (tail, head), loops and parallel arcs
    allowed.  The index of an arc in ``arcs`` is its id."""

    num_vertices: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", _checked_pairs(self.num_vertices, self.arcs, "arc"))

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def out_degree(self, v: int) -> int:
        return sum(1 for u, _ in self.arcs if u == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, w in self.arcs if w == v)


def _half_edge(v: int, item: object) -> HalfEdge:
    """A rotation item at vertex v as a half-edge (edge_id, end) of two
    ints (not bools); anything else is a FormatError naming v and the item."""
    try:
        e, s = item
    except (TypeError, ValueError):
        e = s = None
    if type(e) is not int or type(s) is not int:
        raise FormatError(f"rotation at vertex {v} lists {item!r}, not a half-edge (edge_id, end) of two integers")
    return e, s


@dataclass(frozen=True)
class PlaneGraph:
    """A multigraph with a counterclockwise rotation system.

    ``rotations[v]`` lists the half-edges incident to v in counterclockwise
    cyclic order.  Validation checks that the rotation lists partition the
    half-edges, that each half-edge sits at its own endpoint, and that every
    component with edges is planar under the face count."""

    graph: Multigraph
    rotations: tuple[tuple[HalfEdge, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rotations",
            tuple(tuple(_half_edge(v, he) for he in rot) for v, rot in enumerate(self.rotations)),
        )
        g = self.graph
        if len(self.rotations) != g.num_vertices:
            raise FormatError(
                f"expected one rotation per vertex ({g.num_vertices}), got {len(self.rotations)}"
            )
        owner = {(eid, s): ends[s] for eid, ends in enumerate(g.edges) for s in (0, 1)}
        seen: set[HalfEdge] = set()
        for v, rot in enumerate(self.rotations):
            for he in rot:
                if he not in owner:
                    raise FormatError(f"rotation at vertex {v} names unknown half-edge {he}")
                if owner[he] != v:
                    raise FormatError(
                        f"rotation at vertex {v} lists half-edge {he} belonging to vertex {owner[he]}"
                    )
                if he in seen:
                    raise FormatError(f"half-edge {he} duplicated (vertex {v})")
                seen.add(he)
        missing = set(owner) - seen
        if missing:
            he = min(missing)
            raise FormatError(
                f"half-edge {he} missing from the rotation at vertex {owner[he]}"
            )
        # per-component planarity: V - E + F = 2 wherever there are edges
        walks = faces(self)
        comp_count, labels = connected_components(g)
        v_of = [0] * comp_count
        e_of = [0] * comp_count
        f_of = [0] * comp_count
        for v in range(g.num_vertices):
            v_of[labels[v]] += 1
        for u, _ in g.edges:
            e_of[labels[u]] += 1
        for walk in walks:
            eid = walk[0][0]
            f_of[labels[g.edges[eid][0]]] += 1
        for c in range(comp_count):
            if e_of[c] and v_of[c] - e_of[c] + f_of[c] != 2:
                raise FormatError(
                    f"rotation system is not planar on the component of vertex "
                    f"{labels.index(c)}: V-E+F = {v_of[c]}-{e_of[c]}+{f_of[c]} != 2"
                )

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


def faces(plane: PlaneGraph) -> list[tuple[HalfEdge, ...]]:
    """Face walks of the embedding, each a cyclic dart sequence.

    A dart is named by the half-edge it departs from: (e, s) traverses edge
    e from endpoint s to endpoint 1-s.  Every half-edge appears in exactly
    one walk.  Walks are normalized to start at their smallest dart and the
    list is sorted, so the output is canonical.
    """
    return _face_walks(plane.num_edges, plane.rotations)


def _rotation_successor(rotations: Sequence[Sequence[HalfEdge]]) -> dict[HalfEdge, HalfEdge]:
    """Each half-edge mapped to the next one counterclockwise at its vertex."""
    succ: dict[HalfEdge, HalfEdge] = {}
    for rot in rotations:
        d = len(rot)
        for i, he in enumerate(rot):
            succ[he] = rot[(i + 1) % d]
    return succ


def _face_walks(
    num_edges: int, rotations: Sequence[Sequence[HalfEdge]]
) -> list[tuple[HalfEdge, ...]]:
    """``faces`` on bare rotation lists, so an embedding still being built
    is traced without validating it first: dart (e, s) arrives on (e, 1-s)
    and continues at that half-edge's rotation successor."""
    succ = _rotation_successor(rotations)
    walks = []
    visited: set[HalfEdge] = set()
    for eid in range(num_edges):
        for s in (0, 1):
            start = (eid, s)
            if start in visited:
                continue
            walk = []
            d = start
            while True:
                walk.append(d)
                visited.add(d)
                d = succ[(d[0], 1 - d[1])]
                if d == start:
                    break
            k = walk.index(min(walk))
            walks.append(tuple(walk[k:] + walk[:k]))
    walks.sort()
    return walks


def _spanning_forest(
    num_vertices: int, pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The depth-first spanning forest of the graph on vertices
    0..num_vertices-1 with the given endpoint pairs, grown from each vertex
    not yet reached in vertex order.  Returns each vertex's component label,
    0, 1, ... in order of the component's first vertex (isolated vertices
    included), and the forest as (vertex, parent, pair id) triples, one per
    non-root vertex in the order the search reaches them, so a parent comes
    before its children.  Time and memory are linear in the graph's size."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for eid, (u, v) in enumerate(pairs):
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    labels = [-1] * num_vertices
    forest = []
    count = 0
    for start in range(num_vertices):
        if labels[start] >= 0:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for y, eid in adjacency[x]:
                if labels[y] < 0:
                    labels[y] = count
                    forest.append((y, x, eid))
                    stack.append(y)
        count += 1
    return labels, forest


def _fundamental_cycles(num_vertices: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The fundamental-cycle bitmasks of the spanning forest (bit i = pair
    i): one per pair outside the forest, loops included, in pair order.  The
    cycles form a basis of the cycle space, and a pair lies on some cycle
    exactly when one of them covers it.  Each vertex's tree path to its root
    is a mask here, so the cost grows with vertices times pairs."""
    _, forest = _spanning_forest(num_vertices, pairs)
    root_path = [0] * num_vertices
    in_forest = set()
    for v, parent, eid in forest:
        root_path[v] = root_path[parent] ^ (1 << eid)
        in_forest.add(eid)
    return [
        root_path[u] ^ root_path[v] ^ (1 << eid)
        for eid, (u, v) in enumerate(pairs)
        if eid not in in_forest
    ]


def connected_components(graph: Multigraph | Digraph) -> tuple[int, list[int]]:
    """Component count (isolated vertices included) and a vertex labeling
    with labels 0..count-1 in order of first appearance.  Arc direction is
    ignored for digraphs."""
    pairs = graph.edges if isinstance(graph, Multigraph) else graph.arcs
    labels, _ = _spanning_forest(graph.num_vertices, pairs)
    return max(labels, default=-1) + 1, labels


def adjacency_matrix(graph: Multigraph | Digraph) -> Matrix:
    """Multiplicity-counting adjacency matrix.  For a digraph, entry (u, v)
    is the number of arcs u -> v (loops on the diagonal); for a multigraph,
    entry (u, v) is the number of edges between u and v and the diagonal
    counts loops once.  The matrix code is imported here, on first use, so
    that the graph-only routes never load it."""
    from .matrixfn import Matrix

    n = graph.num_vertices
    m = [[0] * n for _ in range(n)]
    if isinstance(graph, Digraph):
        for u, v in graph.arcs:
            m[u][v] += 1
    else:
        for u, v in graph.edges:
            if u == v:
                m[u][u] += 1
            else:
                m[u][v] += 1
                m[v][u] += 1
    return Matrix(tuple(tuple(r) for r in m))
