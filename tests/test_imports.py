"""The runtime stays stdlib-only: every module of the package imports only
``__future__``, the package itself, or the standard library.  The package's
public names resolve lazily, each to the object its home module defines."""

from __future__ import annotations

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

from conftest import run_fresh

SRC = Path(__file__).resolve().parent.parent / "src" / "fermionant"


def _imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import; relative imports
    stay inside the package and are reported as ``fermionant``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            root = "fermionant" if node.level else node.module.partition(".")[0]
            out.append((node.lineno, root))
    return out


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules, SRC
    allowed = set(sys.stdlib_module_names) | {"__future__", "fermionant"}
    outside = [
        f"{path.name}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    ]
    assert not outside, outside


# the package's public names, each resolved from its home module on first use
PUBLIC_NAMES = [
    "BivarPolynomial", "CapacityError", "ConsistencyError", "Digraph", "FormatError", "Limits",
    "Matrix", "Multigraph", "Partition", "PlaneGraph", "UniPolynomial", "VerificationReport",
    "adjacency_matrix", "all_partitions", "bicycle_dimension", "character",
    "circuit_partition_poly", "class_size", "connected_components", "count_hamiltonian_cycles",
    "count_ssyt", "count_syt", "cycle_type", "cycle_type_weight_sums", "determinant",
    "disjoint_union", "exhaustive_plane_graphs", "faces", "ferm2_medial_closed_form",
    "fermionant", "fermionant_cycle_poly", "fermionant_via_immanants",
    "generate_eulerian_digraph", "generate_plane_graph", "ham_parity_via_ferm2", "immanant",
    "line_digraph", "martin_rhs", "medial", "medial_line_adjacency",
    "partitions_with_depth_at_most", "permanent", "read_graph", "read_matrix",
    "schur_weyl_expand", "transpose", "tutte", "tutte_diagonal", "tutte_subgraph_sum",
    "verify_suite", "write_graph", "write_matrix",
]


def test_public_names_are_the_objects_their_home_modules_define():
    import fermionant

    assert sorted(fermionant.__all__) == PUBLIC_NAMES
    homes = fermionant._HOMES
    # the AST walk above cannot see import_module strings; this covers them
    assert {f"{module}.py" for module in homes} <= {path.name for path in SRC.glob("*.py")}
    for module, names in homes.items():
        home = importlib.import_module(f"fermionant.{module}")
        for name in names:
            value = getattr(fermionant, name)
            assert value is getattr(home, name), name
            assert value.__module__ == home.__name__, name
    with pytest.raises(AttributeError, match="no_such_name"):
        fermionant.no_such_name


def test_a_fresh_import_lists_and_star_imports_every_public_name():
    done = run_fresh(
        "import json, sys, fermionant; "
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'fermionant'); "
        "listed = dir(fermionant); ns = {}; exec('from fermionant import *', ns); "
        "print(json.dumps([loaded, listed, sorted(set(ns) - {'__builtins__'})]))"
    )
    loaded, listed, bound = json.loads(done.stdout)
    assert loaded == ["fermionant"]
    assert set(PUBLIC_NAMES) <= set(listed)
    assert bound == PUBLIC_NAMES


def test_graph_only_calls_leave_the_matrix_code_unloaded():
    """Reading a graph, Tutte, circuit polynomials, Hamiltonian counts and
    the medial never load the matrix code; the adjacency matrix imports it
    on first use."""
    done = run_fresh(
        "import json, sys\n"
        "from fermionant import (Multigraph, adjacency_matrix, circuit_partition_poly,\n"
        "    count_hamiltonian_cycles, generate_plane_graph, medial, read_graph, tutte, write_graph)\n"
        "k5 = Multigraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))\n"
        "k5 = read_graph(write_graph(k5))\n"
        "tutte(k5); circuit_partition_poly(medial(generate_plane_graph(1, 6)))\n"
        "cycles = count_hamiltonian_cycles(k5)\n"
        "matrix_code = ('fermionant.matrixfn', 'fermionant.characters', 'fermionant.partitions')\n"
        "loaded = [m for m in matrix_code if m in sys.modules]\n"
        "matrix = adjacency_matrix(k5)\n"
        "print(json.dumps([loaded, type(matrix) is sys.modules['fermionant.matrixfn'].Matrix, cycles]))"
    )
    loaded, is_matrix, cycles = json.loads(done.stdout)
    assert loaded == []
    assert is_matrix
    assert cycles == 12
