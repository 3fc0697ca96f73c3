from __future__ import annotations

import json

import pytest

from fermionant import CapacityError, Digraph, Limits, medial, verify_suite
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
    for limits in (Limits(max_n=10), Limits(max_edges=15), Limits(max_arcs=21)):
        with pytest.raises(CapacityError):
            verify_suite(1, limits)
    assert families == []
