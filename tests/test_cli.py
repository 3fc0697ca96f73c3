from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict

import pytest

from fermionant import Digraph, Limits, medial, read_graph, write_graph, write_matrix, Matrix
from fermionant.cli import main
from fermionant.transforms import BICYCLE_MAX_EDGES
import fermionant.verify as verify_module

from conftest import GOLDEN_VERIFY_SEED_42_SHA256, run_fresh, triangle_plane


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


def test_ferm_leaves_graph_polynomial_and_verify_modules_unloaded(matrix_file):
    done = run_fresh(
        "import json, sys; from fermionant.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'fermionant'))); "
        "sys.exit(code)",
        "ferm", "--matrix", matrix_file, "--k", "2",
    )
    payload, loaded = done.stdout.splitlines()
    assert json.loads(payload)["fermionant"] == "2"
    unloaded = {"verify", "graphpoly", "generators", "hamilton", "transforms"}
    assert not {f"fermionant.{name}" for name in unloaded} & set(json.loads(loaded)), loaded


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


def test_values_past_the_int_string_limit_print_exactly(capsys, tmp_path, triangle_file):
    # x = 10^2199 + 3: det diag(x, x) = x^2 = 10^4398 + 6 * 10^2199 + 9, and the
    # triangle's T(x, -12) = x^2 + x - 12 = 10^4398 + 7 * 10^2199, 4399 digits
    x = "1" + "0" * 2198 + "3"
    path = tmp_path / "big.json"
    path.write_text('{"n": 2, "entries": [["%s", 0], [0, "%s"]]}' % (x, x), encoding="utf-8")
    det = "1" + "0" * 2198 + "6" + "0" * 2198 + "9"
    code, out, err = run(capsys, ["ferm", "--matrix", str(path), "--k", "1"])
    assert code == 0
    assert json.loads(out)["fermionant"] == det
    assert err.endswith(f" = {det}\n")
    code, out, err = run(capsys, ["imm", "--matrix", str(path), "--shape", "1,1"])
    assert code == 0 and json.loads(out)["immanant"] == det and det in err
    value = "1" + "0" * 2198 + "7" + "0" * 2199
    code, out, err = run(capsys, ["tutte", "--graph", triangle_file, f"--at={x},-12"])
    assert code == 0 and json.loads(out)["value"] == value and value in err


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
    # one circuit, however long: forced arcs cost no search depth
    cycle = tmp_path / "cycle.json"
    cycle.write_text(
        write_graph(Digraph(2000, tuple((i, (i + 1) % 2000) for i in range(2000)))),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["circuit-poly", "--graph", str(cycle)])
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "1"]


def test_circuit_poly_unbalanced_beyond_the_cap_is_input_error(capsys, tmp_path):
    path = tmp_path / "lopsided.json"
    path.write_text(write_graph(Digraph(3, ((0, 0),) * 11 + ((1, 2),))), encoding="utf-8")
    code, out, err = run(capsys, ["circuit-poly", "--graph", str(path)])
    assert (code, out) == (2, "")
    assert "vertex 1 is not Eulerian" in err


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


def test_out_write_error_exits_2(capsys, tmp_path, triangle_file):
    digraph = tmp_path / "d.json"
    digraph.write_text(write_graph(Digraph(1, ((0, 0),))), encoding="utf-8")
    bad_out = str(tmp_path / "missing" / "out.json")
    for command, graph in (("medial", triangle_file), ("line-digraph", str(digraph))):
        code, out, err = run(capsys, [command, "--graph", graph, "--out", bad_out])
        assert (code, out) == (2, ""), command
        assert "cannot write" in err, command


def test_deeply_nested_document_is_input_error(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000, encoding="utf-8")
    for argv in (["ferm", "--matrix", str(path), "--k", "2"], ["tutte", "--graph", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "nested too deeply" in err, argv


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

    # 10^10 vertices used to be read, then exhaust memory in the Tutte kernel
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"kind": "multigraph", "num_vertices": 10**10, "edges": []}),
                    encoding="utf-8")
    code, out, err = run(capsys, ["tutte", "--graph", str(huge)])
    assert code == 3 and out == ""
    assert err.startswith("capacity error: field 'num_vertices'")

    # a path one edge past the bicycle bound is rejected before any row is built
    m = BICYCLE_MAX_EDGES + 1
    path = tmp_path / "path.json"
    edges = [[i, i + 1] for i in range(m)]
    path.write_text(
        json.dumps({"kind": "multigraph", "num_vertices": m + 1, "edges": edges}), encoding="utf-8"
    )
    code, out, err = run(capsys, ["bicycle-dim", "--graph", str(path)])
    assert code == 3 and out == ""
    assert err.startswith(f"capacity error: bicycle dimension limited to {m - 1} edges")

    code, _, err = run(capsys, ["ferm", "--matrix", str(tmp_path / "none.json"), "--k", "1"])
    assert code == 2


def test_undecodable_input_names_the_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["ferm", "--matrix", str(bad), "--k", "2"])
    assert code == 2 and out == ""
    assert f"cannot read {bad}" in err


def test_ham_count_capacity_exit_code(capsys, tmp_path):
    rng = random.Random(18)

    def cycle_file(n):
        perm = rng.sample(range(n), n)
        edges = [[perm[i], perm[(i + 1) % n]] for i in range(n)]
        path = tmp_path / f"c{n}.json"
        path.write_text(json.dumps({"kind": "multigraph", "num_vertices": n, "edges": edges}),
                        encoding="utf-8")
        return str(path)

    code, out, err = run(capsys, ["ham-count", "--graph", cycle_file(19)])
    assert code == 3
    assert "capacity" in err
    assert out == ""
    code, out, _ = run(capsys, ["ham-count", "--graph", cycle_file(18)])
    assert code == 0
    assert json.loads(out) == {"count": "1"}


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


def test_verify_without_size_options_runs_the_limits_defaults(capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "42"])
    assert code == 0
    assert json.loads(out)["limits"] == asdict(Limits())
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_SEED_42_SHA256


def test_verify_capacity_exits_3_before_any_family(capsys, monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    for limit in (["--max-n", "11"], ["--max-edges", "15"]):
        code, out, err = run(capsys, ["verify", "--seed", "1", *limit])
        assert code == 3
        assert out == ""
        assert "capacity" in err
        assert families == []


def test_verify_max_edges_below_1_exits_2_before_any_family(capsys, monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    code, out, err = run(capsys, ["verify", "--seed", "1", "--max-edges", "0"])
    assert code == 2
    assert out == ""
    assert "max_edges must be at least 1" in err
    assert families == []


def test_verify_trials_0_exits_2_before_any_family(capsys, monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    code, out, err = run(capsys, ["verify", "--seed", "1", "--trials", "0"])
    assert code == 2
    assert out == ""
    assert "trials must be at least 1" in err
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
