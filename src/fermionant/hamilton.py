"""Hamiltonian-cycle counting and the parity shortcut through Ferm_2.

``count_hamiltonian_cycles`` counts undirected Hamiltonian cycles once each
(not per orientation or starting point) with the Held-Karp subset dynamic
program over simple paths anchored at vertex 0, run word-parallel: the
vertices 1..low form a fixed low block, and one Python integer carries the
path counts of all 2^low subsets of that block side by side.  The state
maps (set of high vertices visited, end vertex) to that integer, whose digit
s (a fixed-width field at bit offset width * s) counts the paths from 0 to
the end that visit exactly the high set and the low vertices in s.

The high sets are settled one at a time in numeric order, so each comes
after all of its subsets.  A set's paths that end at a high vertex (or the
empty path at 0) arrive from smaller sets.  Closure rounds then add the low
vertices: a round steps only the paths that the last round made, each to a
low neighbour w, keeping the digits whose subset lacks w and shifting them
up by width * 2^(w-1) places, so digit s lands on s + {w}.  A path is made in
one round, the one numbered by the low vertices after its last high one, so
the rounds' sums count each path once.  Only then does each (set, end) take
its high steps, once: stepping to high vertex w moves the whole integer,
unchanged, to (set + w, w).  The full high set comes last; its paths that
end next to 0 close into each cycle once per direction.

A digit below the top one (whose subset lacks a low vertex) counts the
paths on one vertex set that end at one end, orderings of at most n - 3
interior vertices, so (n-3)! bounds it and the width is its bit length:
adding integers never carries one digit into the next.  Different closure
rounds make different paths, so their sums stay within that count.  The
top digit (the whole low block) may grow past the width, but it sits
highest, with nothing above it to carry into, and no keep mask covers it,
so no low step moves it.

``ham_parity_via_ferm2`` uses the congruence for simple graphs on more than
4 vertices: nonzero fermionant contributions come from vertex-disjoint
unions of undirected cycles; a configuration with c2 two-cycles and c'
longer cycles contributes (-1)^n (-2)^c2 (-4)^c', a multiple of 8 except
when a single long cycle covers everything.  Hence Ferm_2 of the adjacency
matrix is divisible by 4 and (Ferm_2 / 4) mod 2 equals the Hamiltonian
cycle count mod 2.
"""

from __future__ import annotations

from math import factorial

from .errors import CapacityError, ConsistencyError
from .graphs import Multigraph, adjacency_matrix

HAMILTONIAN_MAX_N = 18
# Size of the low block packed into one integer (capped at n - 1).  Timed at
# 5 to 9 on K14, K16, K18, K8,8, K9,9 (relabelled) and G(18, p), p = 0.2 and
# 0.5, seeds 1 and 2 (best of 5 calls), 6 and 7 were within 5% and 18% of the
# fastest on every graph, and a second run of the two put them within 2% and
# 6%, each of them slower on some graph, so 7 stays; 5 was up to 36% slower,
# 8 up to 41% and 9 up to 2.3 times.
_LOW_BLOCK = 7


def _simple_adjacency_masks(graph: Multigraph) -> list[int]:
    """Neighbour bitmasks of the simple view: parallel edges collapsed,
    loops dropped."""
    masks = [0] * graph.num_vertices
    for u, v in graph.edges:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def count_hamiltonian_cycles(graph: Multigraph) -> int:
    """Number of undirected Hamiltonian cycles; 0 for fewer than 3 vertices."""
    n = graph.num_vertices
    if n > HAMILTONIAN_MAX_N:
        raise CapacityError(f"hamiltonian counting limited to n <= {HAMILTONIAN_MAX_N}, got {n}")
    if n < 3:
        return 0
    adj = _simple_adjacency_masks(graph)
    low = min(_LOW_BLOCK, n - 1)
    # (n-3)! bounds every digit but the top one, so sums never carry
    width = factorial(n - 3).bit_length()
    span = width << low
    # keep[j]: all-ones in the digits whose subset lacks bit j (vertex j + 1),
    # i.e. runs of 2^j digits repeating with period 2^(j+1) digits
    keep = [((1 << (width << j)) - 1) * ((1 << span) - 1) // ((1 << (width << (j + 1))) - 1)
            for j in range(low)]
    # high vertex w is bit w - low - 1 of a high set
    high_steps = []
    low_steps = []
    for v in range(n):
        high_steps.append([(1 << (w - low - 1), w) for w in range(low + 1, n) if adj[v] >> w & 1])
        low_steps.append([(w, keep[w - 1], width << (w - 1))
                          for w in range(1, low + 1) if adj[v] >> w & 1])
    full = (1 << (n - 1 - low)) - 1
    top = width * ((1 << low) - 1)
    # arrivals[high][end]: the paths whose last vertex, end, is high (or the
    # empty path at 0), pushed by the high steps of smaller sets
    arrivals: dict[int, dict[int, int]] = {0: {0: 1}}
    for high in range(full + 1):  # every subset of a set comes before it
        ends = arrivals.pop(high, None)
        if ends is None:
            continue
        # closure: each round steps only the paths the last round made to
        # a low vertex, so a path is made once, in the round numbered by
        # the low vertices after its last high one
        made = ends
        for _ in range(low):
            fresh: dict[int, int] = {}
            get = fresh.get
            for v, packed in made.items():
                for w, mask, shift in low_steps[v]:
                    moved = packed & mask
                    if moved:
                        fresh[w] = get(w, 0) + (moved << shift)
            if not fresh:
                break
            for w, packed in fresh.items():
                ends[w] = ends.get(w, 0) + packed
            made = fresh
        if high == full:
            total = sum(packed >> top for v, packed in ends.items() if adj[v] & 1)
            # each cycle was traced in both directions
            return total // 2
        for v, packed in ends.items():
            for bit, w in high_steps[v]:
                if not high & bit:
                    later = arrivals.get(high | bit)
                    if later is None:
                        arrivals[high | bit] = {w: packed}
                    else:
                        later[w] = later.get(w, 0) + packed
    return 0


def ham_parity_via_ferm2(graph: Multigraph) -> int:
    """Hamiltonian-cycle parity of a simple graph with n >= 5, read off
    Ferm_2 of the adjacency matrix.  Raises ConsistencyError if the computed
    fermionant is not divisible by 4 (impossible for valid input).  The dp
    bound is checked before the n x n matrix is built.  The matrix code is
    imported on first use, so that counting cycles never loads it."""
    from .matrixfn import DP_MAX_N, fermionant

    n = graph.num_vertices
    if n <= 4:
        raise ValueError(f"parity relation requires more than 4 vertices, got {n}")
    for u, v in graph.edges:
        if u == v:
            raise ValueError(f"parity relation requires a simple graph; vertex {u} has a loop")
    seen = set()
    for u, v in graph.edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"parity relation requires a simple graph; edge {key} repeated")
        seen.add(key)
    if n > DP_MAX_N:
        raise CapacityError(f"dp fermionant limited to n <= {DP_MAX_N}, got {n}")
    f = fermionant(adjacency_matrix(graph), 2, "dp")
    if f % 4 != 0:
        raise ConsistencyError(f"Ferm_2 = {f} is not divisible by 4")
    return (f // 4) % 2
