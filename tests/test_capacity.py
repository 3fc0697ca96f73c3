"""Every capacity bound is a module constant, checked where its kernel
starts: an input one past it raises CapacityError before any work."""

from __future__ import annotations

import json

import pytest

from fermionant import (
    CapacityError,
    Digraph,
    Matrix,
    Multigraph,
    Partition,
    PlaneGraph,
    bicycle_dimension,
    circuit_partition_poly,
    count_hamiltonian_cycles,
    cycle_type_weight_sums,
    fermionant,
    fermionant_cycle_poly,
    fermionant_via_immanants,
    immanant,
    martin_rhs,
    permanent,
    read_graph,
    tutte,
    tutte_diagonal,
    tutte_subgraph_sum,
)
from fermionant.graphio import GRAPH_MAX_VERTICES
from fermionant.transforms import BICYCLE_MAX_EDGES

from conftest import cycle_graph


def path_plane(m: int) -> PlaneGraph:
    """The path with m edges, embedded in the plane."""
    rotations = [((0, 0),)] + [((i - 1, 1), (i, 0)) for i in range(1, m)] + [((m - 1, 1),)]
    return PlaneGraph(Multigraph(m + 1, tuple((i, i + 1) for i in range(m))), tuple(rotations))


def banana(m: int) -> Multigraph:
    return Multigraph(2, ((0, 1),) * m)


# One past each bound: brute (class sums) n <= 10, dp and permanent n <= 20,
# Hamiltonian counting n <= 18, deletion-contraction 14 edges, subgraph sum
# 16 edges, transition systems 10^7, graph documents 10^6 vertices, bicycle
# dimension 10^4 edges.
# Hamiltonian parity's early dp check is tested in test_hamilton.py, where
# the matrix build is made to fail.
BRUTE_PAST = Matrix.identity(11)

PAST_THE_BOUND = {
    "dp": lambda: fermionant(Matrix.identity(21), 2, "dp"),
    "brute": lambda: fermionant(BRUTE_PAST, 2, "brute"),
    "immanants": lambda: fermionant_via_immanants(BRUTE_PAST, 2),
    "immanant": lambda: immanant(BRUTE_PAST, Partition((11,))),
    "cycle-poly": lambda: fermionant_cycle_poly(BRUTE_PAST),
    "class-sums": lambda: cycle_type_weight_sums(BRUTE_PAST),
    "permanent": lambda: permanent(Matrix.identity(21)),
    "hamiltonian": lambda: count_hamiltonian_cycles(cycle_graph(19)),
    "tutte": lambda: tutte(banana(15)),
    "martin-rhs": lambda: martin_rhs(path_plane(15)),
    "subgraph-sum": lambda: tutte_subgraph_sum(banana(17)),
    "diagonal": lambda: tutte_diagonal(banana(17), 3),
    "bicycle": lambda: bicycle_dimension(banana(BICYCLE_MAX_EDGES + 1)),
    # a bouquet of d loops has d! transition systems: 10! < 10^7 < 11!
    "transition-systems": lambda: circuit_partition_poly(Digraph(1, ((0, 0),) * 11)),
    # checked before the edges, which here would be a FormatError
    "graph-vertices": lambda: read_graph(
        json.dumps({"kind": "multigraph", "num_vertices": GRAPH_MAX_VERTICES + 1, "edges": None})
    ),
}


@pytest.mark.parametrize("kernel", sorted(PAST_THE_BOUND))
def test_one_past_each_bound_raises(kernel):
    with pytest.raises(CapacityError):
        PAST_THE_BOUND[kernel]()
