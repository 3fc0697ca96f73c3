"""Command-line interface.

Structured results go to stdout as JSON (one document per run); a short
human-readable summary goes to stderr.  Values that can outgrow a double
(fermionants, immanants, polynomial coefficients, Tutte evaluations, cycle
counts) are serialized as decimal strings; fermionants, immanants, Tutte
evaluations and cycle counts print exactly at any length.

Exit status: 0 on success, 1 on an internal-consistency failure (a bug,
not bad input), 2 on input or parse errors, 3 on capacity errors, 4 when
``verify`` finds an identity violation.

Each subcommand imports the modules it runs when it runs, so ``--help`` and a
``ferm`` call load no graph-polynomial or verification code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from .errors import CapacityError, ConsistencyError, FormatError


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _load_graph(path: str, *kinds: type) -> Any:
    from .graphio import read_graph

    graph = read_graph(_read_text(path))
    if isinstance(graph, kinds):
        return graph
    wanted = " or ".join(k.__name__ for k in kinds)
    raise FormatError(f"{path}: expected a {wanted} document, got {type(graph).__name__}")


def _load_multigraph(path: str) -> Any:
    """A Multigraph document, or the graph under a PlaneGraph's rotations."""
    from .graphs import Multigraph, PlaneGraph

    graph = _load_graph(path, Multigraph, PlaneGraph)
    return graph.graph if isinstance(graph, PlaneGraph) else graph


def _emit(payload: dict[str, Any], summary: str) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stderr.write(summary + "\n")


def _cmd_ferm(args: argparse.Namespace) -> int:
    from .graphio import _decimal_text, read_matrix
    from .matrixfn import fermionant

    matrix = read_matrix(_read_text(args.matrix))
    value = _decimal_text(fermionant(matrix, args.k, args.algorithm))
    _emit(
        {"n": matrix.n, "k": args.k, "algorithm": args.algorithm, "fermionant": value},
        f"Ferm_{args.k} of {matrix.n}x{matrix.n} matrix ({args.algorithm}) = {value}",
    )
    return 0


def _cmd_imm(args: argparse.Namespace) -> int:
    from .graphio import _decimal_text, read_matrix
    from .matrixfn import immanant
    from .partitions import Partition

    matrix = read_matrix(_read_text(args.matrix))
    shape = Partition.from_text(args.shape)
    value = _decimal_text(immanant(matrix, shape))
    _emit(
        {"n": matrix.n, "shape": list(shape.parts), "immanant": value},
        f"Imm_[{shape}] of {matrix.n}x{matrix.n} matrix = {value}",
    )
    return 0


def _cmd_tutte(args: argparse.Namespace) -> int:
    from .graphio import _decimal_text
    from .graphpoly import tutte, tutte_subgraph_sum

    graph = _load_multigraph(args.graph)
    poly = tutte_subgraph_sum(graph) if args.oracle else tutte(graph)
    payload: dict[str, Any] = {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "oracle": bool(args.oracle),
        "polynomial": poly.to_json(),
    }
    summary = f"T(G; x, y) = {poly}"
    if args.at is not None:
        try:
            x_text, y_text = args.at.split(",")
            x, y = int(x_text), int(y_text)
        except ValueError:
            raise FormatError(f"--at expects two integers 'X,Y', got {args.at!r}") from None
        value = _decimal_text(poly(x, y))
        payload["at"] = [x, y]
        payload["value"] = value
        summary += f"; T({x},{y}) = {value}"
    _emit(payload, summary)
    return 0


def _cmd_circuit_poly(args: argparse.Namespace) -> int:
    from .graphpoly import circuit_partition_poly
    from .graphs import Digraph

    graph = _load_graph(args.graph, Digraph)
    poly = circuit_partition_poly(graph)
    _emit(
        {"num_vertices": graph.num_vertices, "num_arcs": graph.num_arcs,
         "coefficients": poly.to_json()},
        f"j(G; z) = {poly}",
    )
    return 0


def _transform_to_file(
    args: argparse.Namespace, kind: type, transform: Callable[[Any], Any], label: str
) -> int:
    """Apply a graph-to-digraph transform and write the result to --out."""
    from .graphio import write_graph

    result = transform(_load_graph(args.graph, kind))
    _write_text(args.out, write_graph(result))
    _emit(
        {"num_vertices": result.num_vertices, "num_arcs": result.num_arcs, "out": args.out},
        f"{label}: {result.num_vertices} vertices, {result.num_arcs} arcs -> {args.out}",
    )
    return 0


def _cmd_medial(args: argparse.Namespace) -> int:
    from .graphs import PlaneGraph
    from .transforms import medial

    return _transform_to_file(args, PlaneGraph, medial, "medial graph")


def _cmd_line_digraph(args: argparse.Namespace) -> int:
    from .graphs import Digraph
    from .transforms import line_digraph

    return _transform_to_file(args, Digraph, line_digraph, "line digraph")


def _cmd_bicycle_dim(args: argparse.Namespace) -> int:
    from .transforms import bicycle_dimension

    graph = _load_multigraph(args.graph)
    dim = bicycle_dimension(graph)
    _emit({"dimension": dim}, f"bicycle space dimension = {dim}")
    return 0


def _cmd_ham_count(args: argparse.Namespace) -> int:
    from .graphio import _decimal_text
    from .hamilton import count_hamiltonian_cycles

    graph = _load_multigraph(args.graph)
    count = _decimal_text(count_hamiltonian_cycles(graph))
    _emit({"count": count}, f"hamiltonian cycles: {count}")
    return 0


def _cmd_ham_parity(args: argparse.Namespace) -> int:
    from .hamilton import ham_parity_via_ferm2

    graph = _load_multigraph(args.graph)
    parity = ham_parity_via_ferm2(graph)
    _emit({"parity": parity}, f"hamiltonian-cycle parity via Ferm_2: {parity}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import fields

    from .verify import Limits, verify_suite

    # a size option not given is absent from args and keeps its Limits default
    given = {f.name: getattr(args, f.name) for f in fields(Limits) if hasattr(args, f.name)}
    report = verify_suite(args.seed, Limits(**given))
    payload = report.to_json()
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    for line in report.summary_lines():
        sys.stderr.write(line + "\n")
    return 0 if report.all_passed else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermionant",
        description="Exact fermionants, immanants, graph polynomials and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ferm", help="fermionant of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algorithm", choices=("brute", "dp", "immanants"), default="dp")
    p.set_defaults(fn=_cmd_ferm)

    p = sub.add_parser("imm", help="immanant of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--shape", required=True, help='partition, e.g. "3,2,1"')
    p.set_defaults(fn=_cmd_imm)

    p = sub.add_parser("tutte", help="Tutte polynomial of a multigraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--at", help="evaluate at integers X,Y")
    p.add_argument("--oracle", action="store_true", help="force the subgraph-sum route")
    p.set_defaults(fn=_cmd_tutte)

    p = sub.add_parser("circuit-poly", help="circuit-partition polynomial of an Eulerian digraph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_circuit_poly)

    p = sub.add_parser("medial", help="directed medial graph of a plane graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_medial)

    p = sub.add_parser("line-digraph", help="line digraph of a digraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_line_digraph)

    p = sub.add_parser("bicycle-dim", help="dimension of the bicycle space")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_bicycle_dim)

    p = sub.add_parser("ham-count", help="number of Hamiltonian cycles")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_ham_count)

    p = sub.add_parser("ham-parity", help="Hamiltonian-cycle parity via Ferm_2")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_ham_parity)

    p = sub.add_parser("verify", help="run the identity-verification suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS, dest="max_n")
    p.add_argument("--max-edges", type=int, default=argparse.SUPPRESS, dest="max_edges")
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true", help="pretty-print the JSON report")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 3
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 1
    except ValueError as exc:  # FormatError included
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
