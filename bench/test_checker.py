"""The checker must reject wrong outputs, not only accept right ones.

    python3 -m pytest bench/test_checker.py

Most tests take a real output of the program on the units-mod-9 graph
(Z_2 x Z_9 connected by {0} x U(9) and the involution (1, 0), which has FR
at t = 2*pi/3), change one field, and expect the checker to object.  The
last two check the checker's integrality test and the seeded generator.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from frcayley import cli  # noqa: E402

ORDERS = (2, 9)
UNITS_9 = [(0, u) for u in (1, 2, 4, 5, 7, 8)] + [(1, 0)]


def run(tmp_path: Path, *argv: str):
    out = tmp_path / "out.json"
    code = cli.main([*argv, "-o", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture
def spec_file(tmp_path: Path) -> Path:
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"group": list(ORDERS), "set": UNITS_9}), encoding="utf-8")
    return path


@pytest.fixture
def graph() -> checker.Graph:
    return checker.Graph(ORDERS, UNITS_9)


def test_accepts_the_program_output(tmp_path, spec_file, graph):
    code, doc = run(tmp_path, "check", str(spec_file), "--a", "1,0")
    assert doc["kind"] == "FR" and doc["modulus"] == 3
    assert checker.check_check(graph, doc, code, (1, 0)) == []
    code, doc = run(tmp_path, "search", str(spec_file))
    predicted = {"modulus": 3, "rho0": 1, "rho1": 2}
    assert checker.check_search(graph, doc, code, (1, 0), predicted) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("kind", "PST"),  # flipped kind
        ("valid_k", [1, 2, 99]),  # extra valid_k entry
        ("rho1", 0),  # shifted rho1 (the program emits 2)
        ("time", 123.0),  # wrong time
        ("a", [True, False]),  # booleans where integers belong
        ("alpha", {"re": 0.5, "im": 0.0}),
    ],
)
def test_rejects_a_tampered_certificate(tmp_path, spec_file, graph, field, value):
    code, doc = run(tmp_path, "check", str(spec_file), "--a", "1,0")
    assert json.dumps(doc[field]) != json.dumps(value)
    doc[field] = value
    assert checker.check_check(graph, doc, code, (1, 0))


def test_rejects_wrong_verdicts(tmp_path, spec_file, graph):
    code, doc = run(tmp_path, "check", str(spec_file), "--a", "1,0")
    assert checker.check_check(graph, {"a": [1, 0], "kind": "ABSENT"}, 1, (1, 0))
    assert checker.check_check(graph, doc, 1, (1, 0))  # exit code says no FR
    code, doc = run(tmp_path, "search", str(spec_file))
    for change in (
        lambda d: d.update(fr_found=False),
        lambda d: d.update(certificates=[]),
        lambda d: d["certificates"][0].update(kind="PERIODIC"),
    ):
        tampered = copy.deepcopy(doc)
        change(tampered)
        assert checker.check_search(graph, tampered, code)


def test_rejects_a_certificate_for_a_non_integral_graph(tmp_path, spec_file):
    _, cert = run(tmp_path, "check", str(spec_file), "--a", "1,0")
    cycle = checker.Graph((2, 9), [(0, 1), (0, 8), (1, 0)])
    assert cycle.lam_int is None and not checker.unit_closed((2, 9), cycle.connection)
    assert checker.check_check(cycle, cert, 0, (1, 0))
    assert checker.check_check(cycle, {"a": [1, 0], "kind": "ABSENT"}, 1, (1, 0)) == []


def test_rejects_a_wrong_construct_document(tmp_path):
    inst = workloads.family_a(3, 2, [])
    family = tmp_path / "family.json"
    family.write_text(json.dumps(inst.family), encoding="utf-8")
    code, doc = run(tmp_path, "construct", str(family), "--verify")
    report = doc["verification"]
    graph = checker.Graph(inst.orders, inst.connection)

    def problems(d, r=report):
        return checker.check_construct(
            graph, d, code, r, 0, inst.a, inst.predicted, "RAMANUJAN_A"
        )

    assert problems(doc) == []
    for change in (
        lambda d: d["prediction"].update(kind="PST"),
        lambda d: d["prediction"].update(valid_k=d["prediction"]["valid_k"] + [99]),
        lambda d: d["verification"].update(max_deviation=1.0),
        lambda d: d.update(engine_agrees=False),
        lambda d: d["graph"]["set"].pop(),
    ):
        tampered = copy.deepcopy(doc)
        change(tampered)
        assert problems(tampered)
    assert problems(doc, dict(report, **{"pass": False}))


def test_bridges_mena_agrees_with_fft_integrality():
    for orders in ((2, 9), (4, 6), (15,), (2, 2, 3)):
        for inst_set in (
            workloads.unit_orbits(orders)[0],
            [g for orbit in workloads.unit_orbits(orders)[:2] for g in orbit],
        ):
            lam = checker.eigenvalues(orders, inst_set)
            assert (checker.integer_eigenvalues(lam) is not None) == checker.unit_closed(
                orders, inst_set
            )
        g = workloads.elements_at(orders, 1)
        pair = sorted({g, workloads.neg(g, orders)})
        lam = checker.eigenvalues(orders, pair)
        assert (checker.integer_eigenvalues(lam) is not None) == checker.unit_closed(orders, pair)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.make_instances(workload, 7)
        again = workloads.make_instances(workload, 7)
        other = workloads.make_instances(workload, 8)
        assert [(i.orders, i.connection) for i in first] == [
            (i.orders, i.connection) for i in again
        ]
        assert sum(i.largest for i in first) == 1 and first[-1].largest
        assert [i.connection for i in first] != [i.connection for i in other]
