from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fermionant import (
    CapacityError,
    Digraph,
    Limits,
    generate_plane_graph,
    medial,
    verify_suite,
    write_graph,
)
from fermionant.cli import main
from fermionant.verify import Counterexample, IdentityResult, VerificationReport
import fermionant.verify as verify_module


SMALL = Limits(max_n=4, max_edges=4, trials=6, max_arcs=6)


@pytest.fixture()
def pooled(monkeypatch):
    """Run the families on a pool of two workers, whatever the host has."""
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)


def _call_log(tmp_path: Path, name: str):
    """A file that processes append lines to, and a reader of its lines.
    Spies record through it, since a family may run in a worker process."""
    path = tmp_path / f"{name}.log"
    path.touch()

    def record(line: str) -> None:
        with path.open("a", encoding="utf-8") as log:
            log.write(line + "\n")

    return record, lambda: path.read_text(encoding="utf-8").splitlines()


def test_suite_passes_and_is_deterministic():
    a = verify_suite(7, SMALL)
    b = verify_suite(7, SMALL)
    assert a.all_passed
    assert [r.name for r in a.identities] == [
        "ferm1-equals-det",
        "fermionant-route-agreement",
        "schur-weyl-multiplicities",
        "martin-circuit-partition",
        "line-digraph-fermionant",
        "medial-tutte-headline",
        "ferm2-hamiltonian-parity",
        "bicycle-tutte-point",
    ]
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    for r in a.identities:
        assert r.passes == r.instances
        assert r.instances > 0


def test_report_json_shape():
    report = verify_suite(3, SMALL)
    doc = report.to_json()
    assert doc["seed"] == 3
    assert doc["all_passed"] is True
    assert len(doc["identities"]) == 8
    for rec in doc["identities"]:
        assert set(rec) == {"name", "instances", "passes", "counterexample"}
        assert rec["counterexample"] is None
    # wall time appears in the summary only
    assert "wall" not in json.dumps(doc)
    assert any("passed" in line for line in report.summary_lines())


def corrupt_medial(plane):
    """Eulerian-preserving corruption: reroute two arc heads."""
    m = medial(plane)
    arcs = list(m.arcs)
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if arcs[i][1] != arcs[j][1]:
                a, b = arcs[i], arcs[j]
                arcs[i], arcs[j] = (a[0], b[1]), (b[0], a[1])
                return Digraph(m.num_vertices, tuple(arcs))
    return m


def test_corrupted_medial_is_caught():
    report = verify_suite(7, SMALL, medial_fn=corrupt_medial)
    assert not report.all_passed
    martin = next(r for r in report.identities if r.name == "martin-circuit-partition")
    assert martin.counterexample is not None
    assert martin.passes < martin.instances
    ce = martin.counterexample
    assert ce.lhs != ce.rhs
    assert "graph" in ce.instance


def _count_documents(monkeypatch, tmp_path):
    """Wrap verify's write_matrix and write_graph; returns a reader of the
    names of the calls, made in whichever process ran the family."""
    record, calls = _call_log(tmp_path, "documents")
    for name in ("write_matrix", "write_graph"):

        def counted(obj, real=getattr(verify_module, name), name=name):
            record(name)
            return real(obj)

        monkeypatch.setattr(verify_module, name, counted)
    return calls


def test_passing_suite_builds_no_instance_document(monkeypatch, tmp_path, pooled):
    calls = _count_documents(monkeypatch, tmp_path)
    report = verify_suite(1, SMALL)
    assert report.all_passed
    assert calls() == []
    # the spy does see documents built in the workers
    report = verify_suite(1, SMALL, medial_fn=corrupt_medial)
    assert calls() == ["write_graph"] * sum(r.counterexample is not None for r in report.identities)
    assert calls()


# The counterexample instances of the suite at seed 7 with corrupt_medial, as
# built when every instance's document was serialized up front.
_CORRUPT_PLANE = (
    '{"kind":"plane","num_vertices":2,"edges":[[0,1],[1,0]],'
    '"rotations":[[[0,0],[1,1]],[[0,1],[1,0]]]}'
)
_CORRUPT_INSTANCES = {
    "martin-circuit-partition": {"graph": _CORRUPT_PLANE},
    "medial-tutte-headline": {"graph": _CORRUPT_PLANE, "k": 2},
    "bicycle-tutte-point": {"graph": _CORRUPT_PLANE, "closed_form": True},
}


def test_one_instance_document_per_family_with_a_counterexample(monkeypatch, tmp_path, pooled):
    calls = _count_documents(monkeypatch, tmp_path)
    report = verify_suite(7, SMALL, medial_fn=corrupt_medial)
    found = {r.name: r.counterexample.instance for r in report.identities if r.counterexample}
    assert found == _CORRUPT_INSTANCES
    # the payload's bytes depend on key order, which == on dicts ignores
    assert json.dumps(list(found.values())) == json.dumps(list(_CORRUPT_INSTANCES.values()))
    assert calls() == ["write_graph"] * len(found)


# I4's third random instance at seed 7 under SMALL: no other family, and no
# other I4 instance, meets this plane graph.
_I4_ONLY = generate_plane_graph(verify_module._child_seed(7, 4, 2), SMALL.max_edges)


def test_raising_check_is_charged_to_its_instance_and_the_family_goes_on(tmp_path, pooled):
    clean = {r.name: r for r in verify_suite(7, SMALL).identities}
    target = write_graph(_I4_ONLY).strip()
    record, raised = _call_log(tmp_path, "raised")

    def flaky_medial(plane):
        if write_graph(plane).strip() == target:
            record(target)
            raise RuntimeError("medial failed")
        return medial(plane)

    report = verify_suite(7, SMALL, medial_fn=flaky_medial)
    assert raised() == [target]
    martin = next(r for r in report.identities if r.name == "martin-circuit-partition")
    assert martin.instances == clean[martin.name].instances
    assert martin.passes == martin.instances - 1
    ce = martin.counterexample
    assert ce.instance == {"graph": target}
    assert ce.lhs == "raised RuntimeError: medial failed"
    for r in report.identities:
        if r is not martin:
            assert r.to_json() == clean[r.name].to_json()


def test_medial_fn_hook_uses_module_default(monkeypatch, tmp_path, pooled):
    record, calls = _call_log(tmp_path, "medial")
    real = verify_module.medial

    def spy(plane):
        record(write_graph(plane).strip())
        return real(plane)

    monkeypatch.setattr(verify_module, "medial", spy)
    verify_suite(1, Limits(max_n=2, max_edges=2, trials=1, max_arcs=2))
    assert calls()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_pooled_families_run_in_worker_processes(monkeypatch, tmp_path, pooled):
    record, pids = _call_log(tmp_path, "pids")
    real = verify_module.medial

    def spy(plane):
        record(str(os.getpid()))
        return real(plane)

    monkeypatch.setattr(verify_module, "medial", spy)
    assert verify_suite(4, SMALL).all_passed
    assert pids() and str(os.getpid()) not in pids()


@pytest.mark.parametrize(
    "seed, medial_fn, counterexamples",
    [(0, None, 0), (5, None, 0), (7, None, 0), (11, None, 0), (7, corrupt_medial, 3)],
)
def test_pooled_payload_equals_in_process_payload(monkeypatch, seed, medial_fn, counterexamples):
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    alone = verify_suite(seed, SMALL, medial_fn=medial_fn).to_json()
    assert sum(r["counterexample"] is not None for r in alone["identities"]) == counterexamples
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    pooled = verify_suite(seed, SMALL, medial_fn=medial_fn).to_json()
    assert json.dumps(pooled) == json.dumps(alone)


def _broken_generator(exc_type):
    def generate(seed, max_arcs):
        raise exc_type(f"no digraph for seed {seed}")

    return generate


@pytest.mark.parametrize("exc_type, code", [(ValueError, 2), (CapacityError, 3), (KeyError, None)])
def test_family_raising_outside_its_checks_raises_the_same_on_both_paths(
    monkeypatch, capsys, exc_type, code
):
    # I5 draws its digraphs in the family body, outside any check
    monkeypatch.setattr(verify_module, "generate_eulerian_digraph", _broken_generator(exc_type))
    seen = []
    for cpus in (1, 2):
        monkeypatch.setattr(verify_module, "_usable_cpus", lambda cpus=cpus: cpus)
        with pytest.raises(exc_type) as info:
            verify_suite(3, SMALL)
        seen.append((type(info.value), str(info.value)))
        if code is not None:
            assert main(["verify", "--seed", "3", "--max-n", "4", "--trials", "2"]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no digraph for seed" in captured.err
    assert seen[0] == seen[1]
    assert seen[0][0] is exc_type


def test_no_worker_outlives_the_suite(monkeypatch, pooled):
    verify_suite(2, SMALL)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(verify_module, "generate_eulerian_digraph", _broken_generator(ValueError))
    with pytest.raises(ValueError):
        verify_suite(2, SMALL)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_worker_that_dies_raises_instead_of_hanging(pooled):
    # in-process, this hook would end the test run itself
    def exiting_medial(plane):
        os._exit(3)

    with pytest.raises(ChildProcessError, match="worker died"):
        verify_suite(2, SMALL, medial_fn=exiting_medial)
    assert multiprocessing.active_children() == []


def test_importing_the_cli_leaves_multiprocessing_unimported():
    src = Path(verify_module.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, fermionant.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_summary_lines_format_and_elapsed_total():
    ce = Counterexample({"graph": "{}"}, "1", "2")
    report = VerificationReport(
        3,
        SMALL,
        [
            IdentityResult("ferm1-equals-det", 40, 40, None, 0.254),
            IdentityResult("medial-tutte-headline", 9, 8, ce, 1.5),
        ],
        1.004,
    )
    # perfbench/run.py parses the family lines; the total is elapsed time,
    # here less than the 1.754 s the two families took together
    assert report.summary_lines() == [
        "ferm1-equals-det: 40/40 passed (0.25s) ok",
        "medial-tutte-headline: 8/9 passed (1.50s) COUNTEREXAMPLE",
        "total 1.00s: violations found",
    ]


def test_limits_above_route_caps_raise_before_any_family(monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    for limits in (Limits(max_n=11), Limits(max_edges=15), Limits(max_arcs=21)):
        with pytest.raises(CapacityError):
            verify_suite(1, limits)
    assert families == []


def test_limits_below_1_raise_before_any_family(monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    for limits in (Limits(max_edges=0), Limits(max_arcs=0)):
        with pytest.raises(ValueError, match="must be at least 1"):
            verify_suite(1, limits)
    assert families == []


def test_limits_leaving_a_family_empty_raise_before_any_family(monkeypatch):
    families = []
    monkeypatch.setattr(verify_module, "_run_family", lambda name, checks: families.append(name))
    for limits, message in (
        (Limits(max_n=1), "max_n must be at least 2, got 1"),
        (Limits(trials=0), "trials must be at least 1, got 0"),
        (Limits(trials=-3), "trials must be at least 1, got -3"),
        (Limits(trials=True), "trials must be an integer, got True"),
        (Limits(trials=2.5), "trials must be an integer, got 2.5"),
        (Limits(max_n=4.0), "max_n must be an integer, got 4.0"),
        (Limits(max_arcs="6"), "max_arcs must be an integer, got '6'"),
    ):
        with pytest.raises(ValueError, match=message):
            verify_suite(1, limits)
    assert families == []


def test_smallest_accepted_limits_give_every_family_an_instance():
    report = verify_suite(1, Limits(max_n=2, max_edges=1, trials=1, max_arcs=1))
    assert report.all_passed
    assert len(report.identities) == 8
    for r in report.identities:
        assert r.instances >= 1, r.name
