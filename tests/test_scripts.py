"""Smoke test of the scale probe script."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "probe_scale.py"


def test_connectivity_probe_runs_within_a_second():
    spec = importlib.util.spec_from_file_location("probe_scale", SCRIPT)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    start = time.perf_counter()
    report = probe.probe_connectivity()
    assert time.perf_counter() - start < 1.0
    assert report["n"] == 10**4 and report["degree"] == 4000
    assert report["connected"] is True
    assert 0 <= report["make_graph_cpu_s"] < 1.0
