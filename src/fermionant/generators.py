"""Deterministic instance generators for the verification harness.

Plane graphs are grown by operations that keep the rotation system planar by
construction:

* attach a leaf edge at any rotation gap of an existing vertex,
* attach a loop at an edgeless vertex (two adjacent half-edges),
* draw a chord between two corners of the same face, splitting it; the two
  corners may coincide (a tiny loop) or share a vertex (a loop enclosing
  part of the face).

A corner is where a face walk turns through a vertex: after the dart (e, s)
the walk sits at the far endpoint between arrival half-edge (e, 1-s) and its
rotation successor, and that gap is where a new half-edge lands.

The same grammar drives the seeded random generator (with biased op choices
for the classic families: trees, paths, cycles, parallel bundles, loop
bouquets, disjoint unions) and the exhaustive enumerator used for
small-instance sweeps.  Generated graphs never contain isolated vertices.
Builders trace their faces with the ``graphs`` face walk on their own
rotation lists, and the enumerator keys each candidate from its builder, so
a graph is validated once, when it leaves the builder, and never as an
intermediate state or a discarded duplicate.

Eulerian digraphs are unions of random closed walks on a small vertex set,
balanced at every vertex by construction.
"""

from __future__ import annotations

import random

from .graphs import Digraph, HalfEdge, Multigraph, PlaneGraph, _face_walks, _rotation_successor


class _PlaneBuilder:
    """Mutable embedding under construction; ``freeze`` validates, and is
    called once per graph a generator returns."""

    def __init__(self, num_vertices: int = 1):
        self.num_vertices = num_vertices
        self.edges: list[tuple[int, int]] = []
        self.rotations: list[list[HalfEdge]] = [[] for _ in range(num_vertices)]

    def clone(self) -> "_PlaneBuilder":
        b = _PlaneBuilder(self.num_vertices)
        b.edges = list(self.edges)
        b.rotations = [list(r) for r in self.rotations]
        return b

    def freeze(self) -> PlaneGraph:
        return PlaneGraph(
            Multigraph(self.num_vertices, tuple(self.edges)),
            tuple(tuple(r) for r in self.rotations),
        )

    def walks(self) -> list[tuple[HalfEdge, ...]]:
        return _face_walks(len(self.edges), self.rotations)

    def add_leaf(self, v: int, gap: int) -> None:
        """New vertex joined to v; the new half-edge occupies rotation gap
        ``gap`` (0 <= gap < max(1, degree))."""
        w = self.num_vertices
        eid = len(self.edges)
        self.edges.append((v, w))
        self.num_vertices += 1
        self.rotations[v].insert(gap, (eid, 0))
        self.rotations.append([(eid, 1)])

    def add_loop_isolated(self, v: int) -> None:
        """Loop at an edgeless vertex."""
        if self.rotations[v]:
            raise ValueError(f"vertex {v} already has incident edges")
        eid = len(self.edges)
        self.edges.append((v, v))
        self.rotations[v] = [(eid, 0), (eid, 1)]

    def _corner(self, dart: HalfEdge) -> tuple[int, HalfEdge]:
        """(vertex, arrival half-edge) of the corner following a dart."""
        eid, s = dart
        u, v = self.edges[eid]
        vertex = v if s == 0 else u
        return vertex, (eid, 1 - s)

    def corners(self, walk: tuple[HalfEdge, ...], v: int) -> list[int]:
        """Indices i of the walk whose following corner lies at vertex v."""
        return [i for i, dart in enumerate(walk) if self._corner(dart)[0] == v]

    def add_chord(self, walk: tuple[HalfEdge, ...], i: int, j: int) -> None:
        """Edge between the corners after walk[i] and walk[j] of one face."""
        vi, anchor_i = self._corner(walk[i])
        vj, anchor_j = self._corner(walk[j])
        eid = len(self.edges)
        self.edges.append((vi, vj))
        rot = self.rotations[vi]
        rot.insert(rot.index(anchor_i) + 1, (eid, 0))
        rot = self.rotations[vj]
        if i == j:
            rot.insert(rot.index((eid, 0)) + 1, (eid, 1))
        else:
            rot.insert(rot.index(anchor_j) + 1, (eid, 1))


def disjoint_union(a: PlaneGraph, b: PlaneGraph) -> PlaneGraph:
    """Side-by-side union; vertex and edge ids of b are shifted up."""
    dv = a.num_vertices
    de = a.num_edges
    edges = a.graph.edges + tuple((u + dv, v + dv) for u, v in b.graph.edges)
    rotations = a.rotations + tuple(
        tuple((e + de, s) for e, s in rot) for rot in b.rotations
    )
    return PlaneGraph(Multigraph(a.num_vertices + b.num_vertices, edges), rotations)


def _grow_random(builder: _PlaneBuilder, rng: random.Random, edges_to_add: int, chord_weight: float) -> None:
    for _ in range(edges_to_add):
        if builder.edges and rng.random() < chord_weight:
            walks = builder.walks()
            walk = walks[rng.randrange(len(walks))]
            i = rng.randrange(len(walk))
            j = rng.randrange(len(walk))
            builder.add_chord(walk, min(i, j), max(i, j))
        else:
            v = rng.randrange(builder.num_vertices)
            gap = rng.randrange(max(1, len(builder.rotations[v])))
            if builder.rotations[v] or builder.edges:
                builder.add_leaf(v, gap)
            elif rng.random() < 0.5:
                builder.add_loop_isolated(v)
            else:
                builder.add_leaf(v, 0)


def _chord_between_vertices(builder: _PlaneBuilder, u: int, v: int) -> None:
    """Chord between some pair of corners of one face at the given vertices."""
    for walk in builder.walks():
        corners_u = builder.corners(walk, u)
        corners_v = builder.corners(walk, v)
        if corners_u and corners_v:
            i, j = corners_u[0], corners_v[0]
            builder.add_chord(walk, min(i, j), max(i, j))
            return
    raise ValueError(f"no common face with corners at {u} and {v}")


def _build_family(rng: random.Random, target: int, family: int) -> _PlaneBuilder:
    builder = _PlaneBuilder()
    if family == 0:  # star-ish random tree
        for _ in range(target):
            v = rng.randrange(builder.num_vertices)
            builder.add_leaf(v, rng.randrange(max(1, len(builder.rotations[v]))))
    elif family == 1:  # path
        for _ in range(target):
            builder.add_leaf(builder.num_vertices - 1, 0)
    elif family == 2:  # cycle (loop when target == 1)
        if target == 1:
            builder.add_loop_isolated(0)
        else:
            for _ in range(target - 1):
                builder.add_leaf(builder.num_vertices - 1, 0)
            _chord_between_vertices(builder, 0, builder.num_vertices - 1)
    elif family == 3:  # parallel bundle between two vertices
        builder.add_leaf(0, 0)
        for _ in range(target - 1):
            _chord_between_vertices(builder, 0, 1)
    elif family == 4:  # bouquet of loops at one vertex
        builder.add_loop_isolated(0)
        for _ in range(target - 1):
            _chord_between_vertices(builder, 0, 0)
    elif family == 5:  # tree sprinkled with loops
        builder.add_leaf(0, 0)
        for _ in range(target - 1):
            if rng.random() < 0.4:
                v = rng.randrange(builder.num_vertices)
                candidates = [
                    (walk, i) for walk in builder.walks() for i in builder.corners(walk, v)
                ]
                walk, i = candidates[rng.randrange(len(candidates))]
                builder.add_chord(walk, i, i)
            else:
                v = rng.randrange(builder.num_vertices)
                builder.add_leaf(v, rng.randrange(max(1, len(builder.rotations[v]))))
    else:  # free growth
        _grow_random(builder, rng, target, chord_weight=0.5)
    return builder


def generate_plane_graph(seed: int, max_edges: int) -> PlaneGraph:
    """Deterministic random plane graph with 1..max_edges edges and no
    isolated vertices."""
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    rng = random.Random(seed)
    target = rng.randint(1, max_edges)
    family = rng.randrange(8)
    if family == 7 and target >= 2:  # disjoint union
        left = rng.randint(1, target - 1)
        a = generate_plane_graph(rng.randrange(2**30), left)
        b = generate_plane_graph(rng.randrange(2**30), target - left)
        return disjoint_union(a, b)
    if family == 7:
        family = 6
    return _build_family(rng, target, family).freeze()


def generate_eulerian_digraph(seed: int, max_arcs: int) -> Digraph:
    """Union of random directed closed walks on a small vertex set; balanced
    (in-degree = out-degree) at every vertex by construction."""
    if max_arcs < 1:
        raise ValueError("max_arcs must be at least 1")
    rng = random.Random(seed)
    nv = rng.randint(1, 4)
    budget = rng.randint(1, max_arcs)
    arcs: list[tuple[int, int]] = []
    while budget > 0:
        length = rng.randint(1, budget)
        vs = [rng.randrange(nv) for _ in range(length)]
        for i in range(length):
            arcs.append((vs[i], vs[(i + 1) % length]))
        budget -= length
    return Digraph(nv, tuple(arcs))


def _canonical_map_code(plane: PlaneGraph | _PlaneBuilder) -> tuple[int, ...]:
    """Complete isomorphism invariant of a connected embedded multigraph.

    The embedding is the dart permutation pair (rotation successor, edge
    reversal).  Darts are renumbered by breadth-first discovery from a root
    dart and both permutations emitted under that numbering; the code is the
    minimum over the root darts at vertices of least degree.  That root set
    is carried onto itself by every isomorphism, so isomorphic embeddings
    (and only those) collide.  Reads only the rotations, so a builder can be
    keyed before it is frozen."""
    sigma = _rotation_successor(plane.rotations)
    least = min(len(rot) for rot in plane.rotations if rot)
    roots = [dart for rot in plane.rotations if len(rot) == least for dart in rot]
    best: tuple[int, ...] | None = None
    for root in roots:
        number = {root: 0}
        order = [root]
        idx = 0
        while idx < len(order):
            dart = order[idx]
            idx += 1
            for nxt in (sigma[dart], (dart[0], 1 - dart[1])):
                if nxt not in number:
                    number[nxt] = len(order)
                    order.append(nxt)
        code = tuple(number[sigma[d]] for d in order) + tuple(
            number[(d[0], 1 - d[1])] for d in order
        )
        if best is None or code < best:
            best = code
    assert best is not None
    return best


def exhaustive_plane_graphs(max_edges: int) -> list[PlaneGraph]:
    """One representative of every connected plane multigraph with
    1..max_edges edges, up to isomorphism of the embedding, then the
    pairwise disjoint unions within the edge budget.  Deterministic order.

    Exhaustiveness: any connected embedded multigraph can be shrunk to a
    point by repeatedly deleting a leaf edge (inverse of attaching one), a
    non-bridge edge (inverse of a chord: deletion merges its two distinct
    faces), or a final loop, so the grammar reaches everything."""
    levels: list[list[_PlaneBuilder]] = [[_PlaneBuilder()]]
    seen: set[tuple[int, ...]] = set()
    out: list[PlaneGraph] = []
    for level in range(max_edges):
        next_level: list[_PlaneBuilder] = []
        for builder in levels[level]:
            for child in _expansions(builder):
                key = _canonical_map_code(child)
                if key in seen:
                    continue
                seen.add(key)
                next_level.append(child)
                out.append(child.freeze())
        levels.append(next_level)
    # singles are pairwise non-isomorphic and come in nondecreasing edge
    # count, so each pair i <= j is a distinct union until the budget ends
    singles = list(out)
    for i, a in enumerate(singles):
        for b in singles[i:]:
            if a.num_edges + b.num_edges > max_edges:
                break
            out.append(disjoint_union(a, b))
    return out


def _expansions(builder: _PlaneBuilder):
    for v in range(builder.num_vertices):
        for gap in range(max(1, len(builder.rotations[v]))):
            child = builder.clone()
            child.add_leaf(v, gap)
            yield child
        if not builder.rotations[v]:
            child = builder.clone()
            child.add_loop_isolated(v)
            yield child
    if builder.edges:
        for walk in builder.walks():
            for i in range(len(walk)):
                for j in range(i, len(walk)):
                    child = builder.clone()
                    child.add_chord(walk, i, j)
                    yield child
