"""Span tracing of the fermionant package from outside.

``Tracer.install`` replaces every public function of every package module,
and every name another module imported it under, with a wrapper that records
one span: (name, start, end, parent) plus a work count computed from the
call's arguments for the layers whose work is a function of input size.
Spans live in flat arrays while the run lasts and are written out at the
end.  ``layer_metrics`` turns them into call counts, self times (a span's
length minus the time its child spans cover) and work totals per layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# Private functions that are layer boundaries in their own right: the dp route
# runs inside ``fermionant`` and would otherwise be lumped with brute.
PRIVATE_BOUNDARIES = {"matrixfn": ("_fermionant_dp",)}


def _first(args: tuple, kwargs: dict, key: str) -> Any:
    return args[0] if args else kwargs[key]


def _perms(args: tuple, kwargs: dict) -> int:
    return math.factorial(_first(args, kwargs, "a").n)


def _cover_steps(args: tuple, kwargs: dict) -> int:
    # the cover loop visits 2^(|S|-1) subsets for every nonempty S
    return (3 ** _first(args, kwargs, "a").n - 1) // 2


def _subsets(args: tuple, kwargs: dict) -> int:
    return 2 ** _first(args, kwargs, "graph").num_edges


def _systems(args: tuple, kwargs: dict) -> int:
    graph = _first(args, kwargs, "graph")
    indeg = [0] * graph.num_vertices
    for _, head in graph.arcs:
        indeg[head] += 1
    return math.prod(math.factorial(d) for d in indeg)


# span name -> work count of one call, derived from input sizes alone
WORK = {
    "matrixfn.cycle_type_weight_sums": _perms,
    "matrixfn.fermionant_cycle_poly": _perms,
    "matrixfn._fermionant_dp": _cover_steps,
    "graphpoly.tutte_subgraph_sum": _subsets,
    "graphpoly.tutte_diagonal": _subsets,
    "graphpoly.circuit_partition_poly": _systems,
}

# per-layer metric prefix -> (span names or a module prefix ending in ".", work metric)
LAYERS: dict[str, tuple[tuple[str, ...], str | None]] = {
    "matrixfn.sweep": (("matrixfn.cycle_type_weight_sums", "matrixfn.fermionant_cycle_poly"), "perms"),
    "matrixfn.dp": (("matrixfn._fermionant_dp",), "cover_steps"),
    "matrixfn.determinant": (("matrixfn.determinant",), None),
    "matrixfn.permanent": (("matrixfn.permanent",), None),
    "characters.character": (("characters.character",), None),
    "characters.schur_weyl": (("characters.schur_weyl_expand",), None),
    "partitions": (("partitions.",), None),
    "graphpoly.tutte_dc": (("graphpoly.tutte",), None),
    "graphpoly.subgraph_sum": (("graphpoly.tutte_subgraph_sum", "graphpoly.tutte_diagonal"), "subsets"),
    "graphpoly.transitions": (("graphpoly.circuit_partition_poly",), "systems"),
    "graphpoly.martin_rhs": (("graphpoly.martin_rhs",), None),
    "transforms.medial": (("transforms.medial",), None),
    "transforms.line_digraph": (("transforms.line_digraph",), None),
    "transforms.bicycle": (("transforms.bicycle_dimension", "transforms_util.gf2_rank"), None),
    "graphs.adjacency_matrix": (("graphs.adjacency_matrix",), None),
    "graphs.faces": (("graphs.faces",), None),
    "hamilton.count": (("hamilton.count_hamiltonian_cycles",), None),
    "generators": (("generators.",), None),
    "graphio.write": (("graphio.write_graph", "graphio.write_matrix"), None),
}


class Tracer:
    """Span store plus the wrappers that feed it; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.work = array("q")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run fn() inside a span; used for the benchmark's own boundaries."""
        return self._record(self._intern(name), None, fn, (), {})

    def _record(self, nid: int, work_fn, fn, args, kwargs) -> Any:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        if work_fn is not None:
            self.work[idx] = work_fn(args, kwargs)
        return result

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._intern(name)
        work_fn = WORK.get(name)
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(nid, work_fn, fn, args, kwargs)

        return traced

    def install(self, package: str = "fermionant") -> int:
        """Wrap every public function of every module of the package, then
        rebind each name any module imported one under.  Returns the number
        of functions wrapped."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, Callable] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            private = PRIVATE_BOUNDARIES.get(short, ())
            for attr, value in vars(mod).items():
                if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                wrapped[id(value)] = self.wrap(value, f"{short}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    setattr(mod, attr, replacement)
        return len(wrapped)

    def _self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def layer_metrics(self) -> dict[str, float | int]:
        """calls, self_s and the work total of every layer in LAYERS."""
        own = self._self_times()
        by_name: dict[int, list[float]] = {}
        for idx, nid in enumerate(self.name_id):
            acc = by_name.setdefault(nid, [0, 0.0, 0])
            acc[0] += 1
            acc[1] += own[idx]
            acc[2] += self.work[idx]
        out: dict[str, float | int] = {}
        for layer, (members, work_metric) in LAYERS.items():
            calls, self_s, work = 0, 0.0, 0
            for nid, (c, s, w) in by_name.items():
                name = self.names[nid]
                if any(name == m or (m.endswith(".") and name.startswith(m)) for m in members):
                    calls += c
                    self_s += s
                    work += w
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            if work_metric is not None:
                out[f"{layer}.{work_metric}"] = work
        return out

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent, work] rows."""
        rows = [
            [self.names[n], s, e, p, w]
            for n, s, e, p, w in zip(self.name_id, self.start, self.end, self.parent, self.work)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "work"], "spans": rows}, fh)
