from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fermionant import (
    Multigraph,
    PlaneGraph,
    exhaustive_plane_graphs,
    generate_plane_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of the compact ``fermionant verify --seed 42`` payload: any refactor
# must leave these bytes unchanged
GOLDEN_VERIFY_SEED_42_SHA256 = "6471b7d93c89c7fd27a02ead5507dcf8c770085f806edc94a464d6c134f5f55a"


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter that imports the package from src;
    a nonzero exit raises."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)


def single_edge_plane() -> PlaneGraph:
    return PlaneGraph(Multigraph(2, ((0, 1),)), (((0, 0),), ((0, 1),)))


def loop_plane() -> PlaneGraph:
    return PlaneGraph(Multigraph(1, ((0, 0),)), (((0, 0), (0, 1)),))


def triangle_plane() -> PlaneGraph:
    g = Multigraph(3, ((0, 1), (1, 2), (2, 0)))
    rot = (((0, 0), (2, 1)), ((1, 0), (0, 1)), ((2, 0), (1, 1)))
    return PlaneGraph(g, rot)


def digon_plane() -> PlaneGraph:
    g = Multigraph(2, ((0, 1), (0, 1)))
    return PlaneGraph(g, (((0, 0), (1, 0)), ((0, 1), (1, 1))))


def k4() -> Multigraph:
    return Multigraph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def petersen() -> Multigraph:
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ]
    return Multigraph(10, tuple(edges))


@pytest.fixture(scope="session")
def exhaustive4() -> list[PlaneGraph]:
    return exhaustive_plane_graphs(4)


@pytest.fixture(scope="session")
def exhaustive5() -> list[PlaneGraph]:
    return exhaustive_plane_graphs(5)


@pytest.fixture(scope="session")
def multigraph_fixtures(exhaustive4) -> list[Multigraph]:
    """Multigraphs with up to 8 edges covering loops, bridges, parallel
    edges and disconnected graphs."""
    graphs = [g.graph for g in exhaustive4]
    graphs.append(k4())
    graphs.append(cycle_graph(8))
    graphs.append(path_graph(8))
    graphs.append(Multigraph(2, ((0, 1),) * 5))            # fat banana
    graphs.append(Multigraph(1, ((0, 0),) * 4))            # loop bouquet
    graphs.append(Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))))
    graphs.append(Multigraph(5, ((0, 1), (1, 2), (2, 0), (0, 0), (3, 4))))
    for seed in range(25):
        graphs.append(generate_plane_graph(seed * 31 + 7, 8).graph)
    return graphs
