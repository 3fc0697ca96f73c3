"""Smoke tests for the scripts under scripts/, which reach into private
names of the package and so break silently when those are renamed."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_dp_timings_levels_prints_one_json_line_per_h():
    # the levels mode patches matrixfn._list_cap, the rule that sets each
    # cover level's kind
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "dp_timings.py"), "levels", "3", "4"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["h"] for row in rows] == [3, 4]
    for row in rows:
        assert isinstance(row["list_s"], float) and isinstance(row["convolve_s"], float)


def test_dp_timings_dense_prints_both_phases_and_each_k():
    # the dense mode reads matrixfn._cycle_sums to time the k-free phase
    # apart from the cover, in a fresh process per n
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "dp_timings.py"), "dense", "8"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["n"] for row in rows] == [8]
    for key in ("cycle_sums_s", "cover_s", "k=3_s", "k=-1_s", "k=1_s", "peak_rss_mb"):
        assert isinstance(rows[0][key], float), key


def test_dp_timings_medial_prints_one_json_line_per_edge_count():
    # the medial mode reads matrixfn._cycle_sums on line digraphs of medial
    # graphs, two nonzeros a row
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "dp_timings.py"), "medial", "4"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["edges"], row["n"], row["graphs"]) for row in rows] == [(4, 8, 20)]
    for name in ("cycle_sums", "cover"):
        assert 0 <= rows[0][f"{name}_median_s"] <= rows[0][f"{name}_max_s"]


def test_dp_timings_hamilton_prints_one_json_line_per_graph():
    # the hamilton mode times count_hamiltonian_cycles on complete,
    # complete bipartite and seeded random graphs at a given cap
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "dp_timings.py"), "hamilton", "8"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["graph"] for row in rows] == [
        "K4", "K6", "K8", "K3,3", "K4,4",
        "G(8,0.2) seed 1", "G(8,0.2) seed 2", "G(8,0.5) seed 1", "G(8,0.5) seed 2",
    ]
    # (n-1)!/2 cycles in K_n, a!(a-1)!/2 in K_{a,a}, whatever the labelling
    assert [row["cycles"] for row in rows[:5]] == [3, 60, 2520, 6, 72]
    for row in rows:
        assert isinstance(row["seconds"], float) and isinstance(row["traced_peak_mb"], float)


def test_dp_timings_tutte_prints_one_json_line_per_graph_kind():
    # the tutte mode times both Tutte routes and stops if they disagree
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "dp_timings.py"), "tutte", "2"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["graphs"], row["count"]) for row in rows] == [
        ("multigraph 6 vertices", 2), ("simple 7 vertices", 2), ("fat triangle 5,5,4", 1),
    ]
    for row in rows:
        for name in ("tutte", "subgraph_sum"):
            assert 0 <= row[f"{name}_median_s"] <= row[f"{name}_max_s"]


def test_dp_timings_times_the_package_pythonpath_names(tmp_path):
    # the script appends its own src to sys.path, so a PYTHONPATH naming
    # another tree's src is the package timed, and its path goes to stderr
    src = tmp_path / "src"
    shutil.copytree(SCRIPTS.parent / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "dp_timings.py"), "tutte", "1"],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    (line,) = done.stderr.splitlines()
    assert line.startswith("timing ")
    assert Path(line[len("timing "):]).resolve() == (src / "fermionant").resolve()
    assert [json.loads(row)["count"] for row in done.stdout.splitlines()] == [1, 1, 1]
