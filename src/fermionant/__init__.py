"""Exact graph polynomials and matrix functions.

Fermionants, immanants, Tutte and circuit-partition polynomials, medial and
line-digraph constructions, bicycle-space dimension, Hamiltonian-cycle
counting, plus generators and a verification harness that checks the
identities tying them together on small instances.

Each public name is imported from its home module on first use (PEP 562), so
``import fermionant`` loads no kernel module; ``fermionant.fermionant`` is
``fermionant.matrixfn.fermionant``.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "errors": ("CapacityError", "ConsistencyError", "FormatError"),
    "partitions": (
        "Partition",
        "all_partitions",
        "class_size",
        "count_ssyt",
        "count_syt",
        "cycle_type",
        "partitions_with_depth_at_most",
        "transpose",
    ),
    "characters": ("character", "schur_weyl_expand"),
    "polynomials": ("BivarPolynomial", "UniPolynomial"),
    "matrixfn": (
        "Matrix",
        "cycle_type_weight_sums",
        "determinant",
        "fermionant",
        "fermionant_cycle_poly",
        "fermionant_via_immanants",
        "immanant",
        "permanent",
    ),
    "graphs": (
        "Digraph",
        "Multigraph",
        "PlaneGraph",
        "adjacency_matrix",
        "connected_components",
        "faces",
    ),
    "graphio": ("read_graph", "read_matrix", "write_graph", "write_matrix"),
    "graphpoly": (
        "circuit_partition_poly",
        "martin_rhs",
        "tutte",
        "tutte_diagonal",
        "tutte_subgraph_sum",
    ),
    "transforms": (
        "bicycle_dimension",
        "ferm2_medial_closed_form",
        "line_digraph",
        "medial",
        "medial_line_adjacency",
    ),
    "hamilton": ("count_hamiltonian_cycles", "ham_parity_via_ferm2"),
    "generators": (
        "disjoint_union",
        "exhaustive_plane_graphs",
        "generate_eulerian_digraph",
        "generate_plane_graph",
    ),
    "verify": ("Limits", "VerificationReport", "verify_suite"),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
