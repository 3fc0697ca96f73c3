from __future__ import annotations

import json

import pytest

from fermionant import CapacityError, Digraph, Limits, medial, verify_suite, write_graph
import fermionant.verify as verify_module


SMALL = Limits(max_n=4, max_edges=4, trials=6, max_arcs=6)


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


def _count_documents(monkeypatch):
    """Wrap verify's write_matrix and write_graph; returns the list of calls."""
    calls = []
    for name in ("write_matrix", "write_graph"):

        def counted(obj, real=getattr(verify_module, name), name=name):
            calls.append(name)
            return real(obj)

        monkeypatch.setattr(verify_module, name, counted)
    return calls


def test_passing_suite_builds_no_instance_document(monkeypatch):
    calls = _count_documents(monkeypatch)
    report = verify_suite(1, SMALL)
    assert report.all_passed
    assert calls == []


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


def test_one_instance_document_per_family_with_a_counterexample(monkeypatch):
    calls = _count_documents(monkeypatch)
    report = verify_suite(7, SMALL, medial_fn=corrupt_medial)
    found = {r.name: r.counterexample.instance for r in report.identities if r.counterexample}
    assert found == _CORRUPT_INSTANCES
    # the payload's bytes depend on key order, which == on dicts ignores
    assert json.dumps(list(found.values())) == json.dumps(list(_CORRUPT_INSTANCES.values()))
    assert calls == ["write_graph"] * len(found)


def test_raising_check_is_charged_to_its_instance_and_the_family_goes_on():
    clean = {r.name: r for r in verify_suite(7, SMALL).identities}
    calls = []

    def flaky_medial(plane):
        calls.append(plane)
        if len(calls) == 3:
            raise RuntimeError("medial failed")
        return medial(plane)

    report = verify_suite(7, SMALL, medial_fn=flaky_medial)
    martin = next(r for r in report.identities if r.name == "martin-circuit-partition")
    assert martin.instances == clean[martin.name].instances
    assert martin.passes == martin.instances - 1
    ce = martin.counterexample
    assert ce.instance == {"graph": write_graph(calls[2]).strip()}
    assert ce.lhs == "raised RuntimeError: medial failed"
    for r in report.identities:
        if r is not martin:
            assert r.to_json() == clean[r.name].to_json()


def test_medial_fn_hook_uses_module_default(monkeypatch):
    calls = []
    real = verify_module.medial

    def spy(plane):
        calls.append(1)
        return real(plane)

    monkeypatch.setattr(verify_module, "medial", spy)
    verify_suite(1, Limits(max_n=2, max_edges=2, trials=1, max_arcs=2))
    assert calls


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
