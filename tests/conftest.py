"""Shared fixtures: canonical graphs, family instances, and the corpus list
used by the cross-cutting exactness assertions.  Also prints one PASS/FAIL
line per acceptance criterion at the end of the run."""

from __future__ import annotations

import random
import re

import pytest

import frcayley as fr
from helpers import boolean_from_support, quiet_graph, random_symmetric_set, random_unit_closed_set

UNITS_9 = (1, 2, 4, 5, 7, 8)

# Z2 x Z9, S = {0} x U(9)  union  {(1, 0)}: degree 7, one involution.
UNITS_SET = tuple((0, u) for u in UNITS_9) + ((1, 0),)

# Z2 x Z3 triangular prism.
PRISM_SET = ((0, 1), (0, 2), (1, 0))

# Z2 x Z9, S = {0, 1} x U(9)  union  {(1, 0)}: degree 13.
DOUBLED_SET = (
    tuple((0, u) for u in UNITS_9) + tuple((1, u) for u in UNITS_9) + ((1, 0),)
)

# The 13-element set on F_2^5 built from the quadratic bent function
# x1 x2 + x3 x4: one pure involution plus both shifts of the support.
BENT4_SUPPORT = (
    (0, 0, 1, 1),
    (0, 1, 1, 1),
    (1, 0, 1, 1),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
    (1, 1, 1, 0),
)
BENT4_SET = tuple(
    sorted(
        [(0, *s) for s in BENT4_SUPPORT]
        + [(1, *s) for s in BENT4_SUPPORT]
        + [(1, 0, 0, 0, 0)]
    )
)


@pytest.fixture(scope="session")
def units_graph() -> fr.CayleyGraph:
    return fr.make_graph([2, 9], UNITS_SET)


@pytest.fixture(scope="session")
def prism_graph() -> fr.CayleyGraph:
    return fr.make_graph([2, 3], PRISM_SET)


@pytest.fixture(scope="session")
def doubled_units_graph() -> fr.CayleyGraph:
    return fr.make_graph([2, 9], DOUBLED_SET)


@pytest.fixture(scope="session")
def bent4_graph() -> fr.CayleyGraph:
    return fr.make_graph([2] * 5, BENT4_SET)


@pytest.fixture(scope="session")
def hypercube_q3() -> fr.CayleyGraph:
    return fr.make_graph([2, 2, 2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def k2() -> fr.CayleyGraph:
    return fr.make_graph([2], [(1,)])


@pytest.fixture(scope="session")
def k4() -> fr.CayleyGraph:
    return fr.make_graph([2, 2], [(0, 1), (1, 0), (1, 1)])


def cycle_graph(m: int) -> fr.CayleyGraph:
    return fr.make_graph([m], [(1,), (m - 1,)])


@pytest.fixture(scope="session")
def cycle5() -> fr.CayleyGraph:
    return cycle_graph(5)


@pytest.fixture(scope="session")
def family_a_units() -> fr.BuiltFamily:
    return fr.build_ramanujan_family(3, 2, [])


@pytest.fixture(scope="session")
def family_c_doubled() -> fr.BuiltFamily:
    return fr.build_plateaued_family([9], [(u,) for u in UNITS_9])


@pytest.fixture(scope="session")
def family_e_bent4() -> fr.BuiltFamily:
    return fr.build_bent_family(fr.mm_bent(4))


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, fr.CayleyGraph]]:
    """Named graphs exercised by the suite-wide exactness assertions."""
    rng = random.Random(0xFADE)
    graphs: list[tuple[str, fr.CayleyGraph]] = [
        ("units-z2z9", quiet_graph([2, 9], UNITS_SET)),
        ("prism-z2z3", quiet_graph([2, 3], PRISM_SET)),
        ("doubled-units-z2z9", quiet_graph([2, 9], DOUBLED_SET)),
        ("bent4-f2^5", quiet_graph([2] * 5, BENT4_SET)),
        ("hypercube-q3", quiet_graph([2, 2, 2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
        ("k2", quiet_graph([2], [(1,)])),
        ("k4", quiet_graph([2, 2], [(0, 1), (1, 0), (1, 1)])),
        ("cycle4", quiet_graph([4], [(1,), (3,)])),
        ("cycle5", quiet_graph([5], [(1,), (4,)])),
        ("cycle6", quiet_graph([6], [(1,), (5,)])),
        ("cycle8", quiet_graph([8], [(1,), (7,)])),
        ("empty-z2z3", quiet_graph([2, 3], [])),
    ]
    for p, r, h in [(3, 2, ()), (5, 1, (3,)), (3, 1, (5,)), (7, 1, (3,))]:
        built = fr.build_ramanujan_family(p, r, h)
        graphs.append((f"famA-{p}-{r}-{list(h)}", built.graph))
    for pp in [[(2, 2), (3, 2)], [(2, 1), (3, 2)], [(2, 1), (5, 2)]]:
        built = fr.build_multi_prime_family(pp)
        graphs.append((f"famB-{pp}", built.graph))
    graphs.append(
        ("famC-9-units", fr.build_plateaued_family([9], [(u,) for u in UNITS_9]).graph)
    )
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore", fr.DisconnectedGraphWarning)
        f4 = fr.mm_bent(4)
        graphs.append(("famE-bent4", fr.build_bent_family(f4).graph))
        semi = boolean_from_support(4, [(1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)])
        graphs.append(("famE-semibent4", fr.build_bent_family(semi).graph))
        quad_supp = [(1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]
        graphs.append(("famD-4bit", fr.build_cublike_family(quad_supp, quad_supp).graph))
    for orders in ([2, 9], [4, 2], [3, 3], [2, 2, 3], [12], [6]):
        G = fr.make_group(orders)
        for idx in range(2):
            s_rand = random_symmetric_set(G, rng)
            graphs.append(
                (f"random-{orders}-{idx}", quiet_graph(orders, s_rand))
            )
        s_unit = random_unit_closed_set(G, rng)
        graphs.append((f"unitclosed-{orders}", quiet_graph(orders, s_unit)))
    return graphs


_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if outcome == "passed":
                rows.setdefault(name, "PASS")
            else:
                rows[name] = "FAIL"
    if not rows:
        return

    def sort_key(name: str):
        m = _CRITERION_RE.search(name)
        return (int(m.group(1)) if m else 99, name)

    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(rows, key=sort_key):
        terminalreporter.write_line(f"[acceptance] {name}: {rows[name]}")
