#!/usr/bin/env python3
"""Time the scale probes beyond the benchmark ladder and print them as JSON.

Three probes, each one run in this process, timed in CPU seconds:

- connectivity: make_graph on Z2 x Z4 x Z1250 (n = 10^4) with the
  unit-closed set {(a, b, u) : u a unit mod 1250} (|S| = 4000);
- search: search_all on Z2 x Z4 x Z12500 (n = 10^5, seven involutions)
  with the unit-closed set {(a, b, u) : u a unit mod 12500} (|S| = 40000),
  timed apart from building the graph;
- decide: decide_fr for the one involution (1, 0, 0) on a fresh copy of
  that graph, timed the same way.

Usage:
    python3 scripts/probe_scale.py
"""

from __future__ import annotations

import json
import sys
import time

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

import frcayley as fr


def unit_closed_rows(m: int) -> list[tuple[int, int, int]]:
    """Every (a, b, u) in Z2 x Z4 x Zm with u a unit mod m."""
    return [(a, b, u) for a in range(2) for b in range(4) for u in fr.units_mod(m)]


def probe_connectivity() -> dict:
    rows = unit_closed_rows(1250)
    start = time.process_time()
    graph = fr.make_graph([2, 4, 1250], rows)
    return {
        "n": graph.n,
        "degree": graph.degree,
        "connected": graph.connected,
        "make_graph_cpu_s": time.process_time() - start,
    }


def probe_search() -> dict:
    start = time.process_time()
    graph = fr.make_graph([2, 4, 12500], unit_closed_rows(12500))
    built = time.process_time()
    found = fr.search_all(graph)
    return {
        "n": graph.n,
        "degree": graph.degree,
        "involutions": len(graph.group.involutions()),
        "certificates": len(found),
        "make_graph_cpu_s": built - start,
        "search_all_cpu_s": time.process_time() - built,
    }


def probe_decide() -> dict:
    start = time.process_time()
    graph = fr.make_graph([2, 4, 12500], unit_closed_rows(12500))
    built = time.process_time()
    witness = fr.decide_fr(graph, (1, 0, 0))
    return {
        "n": graph.n,
        "degree": graph.degree,
        "kind": None if witness is None else witness.kind.value,
        "make_graph_cpu_s": built - start,
        "decide_fr_cpu_s": time.process_time() - built,
    }


def main() -> int:
    report = {
        "connectivity": probe_connectivity(),
        "search": probe_search(),
        "decide": probe_decide(),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
