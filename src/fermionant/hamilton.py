"""Hamiltonian-cycle counting and the parity shortcut through Ferm_2.

``count_hamiltonian_cycles`` counts undirected Hamiltonian cycles once each
(not per orientation or starting point) with a bitmask dynamic program over
simple paths anchored at vertex 0.

``ham_parity_via_ferm2`` uses the congruence for simple graphs on more than
4 vertices: nonzero fermionant contributions come from vertex-disjoint
unions of undirected cycles; a configuration with c2 two-cycles and c'
longer cycles contributes (-1)^n (-2)^c2 (-4)^c', a multiple of 8 except
when a single long cycle covers everything.  Hence Ferm_2 of the adjacency
matrix is divisible by 4 and (Ferm_2 / 4) mod 2 equals the Hamiltonian
cycle count mod 2.
"""

from __future__ import annotations

from .errors import CapacityError, ConsistencyError
from .graphs import Multigraph, adjacency_matrix
from .matrixfn import DP_DEFAULT_MAX_N, fermionant

HAMILTONIAN_DEFAULT_MAX_N = 18


def _simple_adjacency_masks(graph: Multigraph) -> list[int]:
    """Neighbour bitmasks of the simple view: parallel edges collapsed,
    loops dropped."""
    masks = [0] * graph.num_vertices
    for u, v in graph.edges:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def count_hamiltonian_cycles(graph: Multigraph, *, max_n: int = HAMILTONIAN_DEFAULT_MAX_N) -> int:
    """Number of undirected Hamiltonian cycles; 0 for fewer than 3 vertices."""
    n = graph.num_vertices
    if n > max_n:
        raise CapacityError(f"hamiltonian counting limited to n <= {max_n}, got {n}")
    if n < 3:
        return 0
    adj = _simple_adjacency_masks(graph)
    full = (1 << n) - 1
    # paths[mask][v]: simple paths 0 -> v visiting exactly mask (0 in mask)
    paths: dict[int, dict[int, int]] = {1: {0: 1}}
    queue = [1]
    idx = 0
    total = 0
    while idx < len(queue):
        mask = queue[idx]
        idx += 1
        ends = paths[mask]
        if mask == full:
            for v, count in ends.items():
                if v != 0 and adj[v] & 1:
                    total += count
            continue
        for v, count in ends.items():
            free = adj[v] & ~mask
            while free:
                bit = free & (-free)
                free ^= bit
                w = bit.bit_length() - 1
                nm = mask | bit
                d = paths.get(nm)
                if d is None:
                    paths[nm] = {w: count}
                    queue.append(nm)
                else:
                    d[w] = d.get(w, 0) + count
    # each cycle was traced in both directions
    return total // 2


def ham_parity_via_ferm2(graph: Multigraph, *, max_n: int = DP_DEFAULT_MAX_N) -> int:
    """Hamiltonian-cycle parity of a simple graph with n >= 5, read off
    Ferm_2 of the adjacency matrix.  Raises ConsistencyError if the computed
    fermionant is not divisible by 4 (impossible for valid input)."""
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
    f = fermionant(adjacency_matrix(graph), 2, "dp", dp_max_n=max_n)
    if f % 4 != 0:
        raise ConsistencyError(f"Ferm_2 = {f} is not divisible by 4")
    return (f // 4) % 2
