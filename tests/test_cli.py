from __future__ import annotations

import json

import pytest

from fermionant import Digraph, medial, read_graph, write_graph, write_matrix, Matrix
from fermionant.cli import main
import fermionant.verify as verify_module

from conftest import triangle_plane


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(write_matrix(Matrix(((1, 1), (1, 1)))), encoding="utf-8")
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(write_graph(triangle_plane()), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ferm_subcommand(capsys, matrix_file):
    code, out, err = run(capsys, ["ferm", "--matrix", matrix_file, "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 2, "k": 2, "algorithm": "dp", "fermionant": "2"}
    assert "Ferm_2" in err
    for algo in ("brute", "immanants"):
        code, out, _ = run(capsys, ["ferm", "--matrix", matrix_file, "--k", "2", "--algorithm", algo])
        assert json.loads(out)["fermionant"] == "2"


def test_imm_subcommand(capsys, matrix_file):
    code, out, _ = run(capsys, ["imm", "--matrix", matrix_file, "--shape", "2"])
    assert code == 0
    assert json.loads(out)["immanant"] == "2"
    code, out, _ = run(capsys, ["imm", "--matrix", matrix_file, "--shape", "1,1"])
    assert json.loads(out)["immanant"] == "0"


def test_imm_shape_mismatch_is_input_error(capsys, matrix_file):
    code, _, err = run(capsys, ["imm", "--matrix", matrix_file, "--shape", "3"])
    assert code == 2
    assert "error" in err


def test_tutte_subcommand(capsys, tmp_path, triangle_file):
    code, out, _ = run(capsys, ["tutte", "--graph", triangle_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == {"0,1": "1", "1,0": "1", "2,0": "1"}
    code, out, _ = run(capsys, ["tutte", "--graph", triangle_file, "--at=-1,-1", "--oracle"])
    doc = json.loads(out)
    assert doc["oracle"] is True
    assert doc["value"] == "-1"
    code, _, err = run(capsys, ["tutte", "--graph", triangle_file, "--at", "nope"])
    assert code == 2


def test_circuit_poly_subcommand(capsys, tmp_path):
    good = tmp_path / "d.json"
    good.write_text(write_graph(Digraph(1, ((0, 0), (0, 0)))), encoding="utf-8")
    code, out, _ = run(capsys, ["circuit-poly", "--graph", str(good)])
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "1", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(write_graph(Digraph(2, ((0, 1),))), encoding="utf-8")
    code, _, err = run(capsys, ["circuit-poly", "--graph", str(bad)])
    assert code == 2
    assert "vertex" in err


def test_medial_and_line_digraph_subcommands(capsys, tmp_path, triangle_file):
    out_path = tmp_path / "medial.json"
    code, out, _ = run(capsys, ["medial", "--graph", triangle_file, "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["num_vertices"] == 3 and doc["num_arcs"] == 6
    written = read_graph(out_path.read_text(encoding="utf-8"))
    assert isinstance(written, Digraph)
    assert sorted(written.arcs) == sorted(medial(triangle_plane()).arcs)

    ld_path = tmp_path / "ld.json"
    code, out, _ = run(capsys, ["line-digraph", "--graph", str(out_path), "--out", str(ld_path)])
    assert code == 0
    assert json.loads(out)["num_vertices"] == 6


def test_graph_kind_mismatch_is_input_error(capsys, tmp_path, triangle_file):
    code, _, err = run(capsys, ["circuit-poly", "--graph", triangle_file])
    assert code == 2
    assert "Digraph" in err


def test_bicycle_and_ham_subcommands(capsys, tmp_path):
    k4_edges = [[u, v] for u in range(4) for v in range(u + 1, 4)]
    path = tmp_path / "k4.json"
    path.write_text(
        json.dumps({"kind": "multigraph", "num_vertices": 4, "edges": k4_edges}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["bicycle-dim", "--graph", str(path)])
    assert code == 0 and json.loads(out)["dimension"] == 2
    code, out, _ = run(capsys, ["ham-count", "--graph", str(path)])
    assert code == 0 and json.loads(out)["count"] == "3"
    # n <= 4 rejected for the parity route
    code, _, _ = run(capsys, ["ham-parity", "--graph", str(path)])
    assert code == 2

    c5 = {"kind": "multigraph", "num_vertices": 5,
          "edges": [[i, (i + 1) % 5] for i in range(5)]}
    c5_path = tmp_path / "c5.json"
    c5_path.write_text(json.dumps(c5), encoding="utf-8")
    code, out, _ = run(capsys, ["ham-parity", "--graph", str(c5_path)])
    assert code == 0 and json.loads(out)["parity"] == 1


def test_parse_and_capacity_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "multigraph"', encoding="utf-8")
    code, _, err = run(capsys, ["tutte", "--graph", str(bad)])
    assert code == 2
    assert "line 1" in err

    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"kind": "multigraph", "num_vertices": 2, "edges": [[0, 1]] * 15}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, ["tutte", "--graph", str(big)])
    assert code == 3
    assert "capacity" in err

    code, _, err = run(capsys, ["ferm", "--matrix", str(tmp_path / "none.json"), "--k", "1"])
    assert code == 2


def test_verify_subcommand_deterministic(capsys):
    code, out1, err1 = run(capsys, ["verify", "--seed", "5", "--max-n", "3",
                                    "--max-edges", "3", "--trials", "3"])
    assert code == 0
    code, out2, _ = run(capsys, ["verify", "--seed", "5", "--max-n", "3",
                                 "--max-edges", "3", "--trials", "3"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
    assert len(doc["identities"]) == 8
    assert "passed" in err1
    # pretty variant carries the same payload
    code, out3, _ = run(capsys, ["verify", "--seed", "5", "--max-n", "3",
                                 "--max-edges", "3", "--trials", "3", "--json"])
    assert json.loads(out3) == doc


def test_verify_capacity_exits_3_before_any_family(capsys, monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    for limit in (["--max-n", "10"], ["--max-edges", "15"]):
        code, out, err = run(capsys, ["verify", "--seed", "1", *limit])
        assert code == 3
        assert out == ""
        assert "capacity" in err
        assert families == []


def test_verify_violation_exits_4(capsys, monkeypatch):
    real = verify_module.medial

    def corrupt(plane):
        m = real(plane)
        arcs = list(m.arcs)
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                if arcs[i][1] != arcs[j][1]:
                    a, b = arcs[i], arcs[j]
                    arcs[i], arcs[j] = (a[0], b[1]), (b[0], a[1])
                    return Digraph(m.num_vertices, tuple(arcs))
        return m

    monkeypatch.setattr(verify_module, "medial", corrupt)
    code, out, err = run(capsys, ["verify", "--seed", "5", "--max-n", "3",
                                  "--max-edges", "3", "--trials", "3"])
    assert code == 4
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert "COUNTEREXAMPLE" in err
