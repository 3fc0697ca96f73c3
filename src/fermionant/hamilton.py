"""Hamiltonian-cycle counting and the parity shortcut through Ferm_2.

``count_hamiltonian_cycles`` counts undirected Hamiltonian cycles once each
(not per orientation or starting point) with the Held-Karp subset dynamic
program over simple paths anchored at vertex 0, run word-parallel: the
vertices 1..low form a fixed low block, and one Python integer carries the
path counts of all 2^low subsets of that block side by side.  The state
maps (set of high vertices visited, end vertex) to that integer, whose digit
s (a fixed-width field at bit offset width * s) counts the paths from 0 to
the end that visit exactly the high set and the low vertices in s.  One
round adds one vertex to every path, and only the current round is kept:

* extending to a high vertex w moves the whole integer, unchanged, to
  (high + w, w);
* extending to low vertex w keeps the digits whose subset lacks w and
  shifts them up by width * 2^(w-1) places, so digit s lands on s + {w}.

A digit below the top one counts orderings of at most n - 3 interior
vertices, so (n-3)! bounds it and the width is its bit length: adding two
packed integers never carries one digit into the next.  The top digit (the
whole low block) may grow past the width, but it sits highest, with nothing
above it to carry into, and no keep pattern covers it, so no low step moves
it.  After n - 1 rounds every path is Hamiltonian and lives in the top
digit; closing the paths whose end is adjacent to 0 gives each cycle once
per direction.

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
# 6, 7 and 8 on K14, K16, K18, K8,8, K9,9 and seeded G(18, p), 7 was at most
# 26% slower than the fastest of the three on any graph, 8 up to 37% and 6 up
# to 56%.
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
    # a key is (high set << tag) | end, high vertex w taking bit w of the set
    tag = n.bit_length()
    end_mask = (1 << tag) - 1
    high_steps = []
    low_steps = []
    for v in range(n):
        high_steps.append([(1 << (w + tag), 1 << (w + tag) | w)
                           for w in range(low + 1, n) if adj[v] >> w & 1])
        low_steps.append([(w, keep[w - 1], width << (w - 1))
                          for w in range(1, low + 1) if adj[v] >> w & 1])
    paths = {0: 1}
    for _ in range(n - 1):
        longer: dict[int, int] = {}
        get = longer.get
        while paths:  # popping frees each round as the next one grows
            key, packed = paths.popitem()
            v = key & end_mask
            base = key ^ v
            for bit, step in high_steps[v]:
                if not base & bit:
                    k = base | step
                    longer[k] = get(k, 0) + packed
            for w, mask, shift in low_steps[v]:
                moved = packed & mask
                if moved:
                    k = base | w
                    longer[k] = get(k, 0) + (moved << shift)
        paths = longer
    top = width * ((1 << low) - 1)
    total = sum(packed >> top for key, packed in paths.items() if adj[key & end_mask] & 1)
    # each cycle was traced in both directions
    return total // 2


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
