"""Smoke tests of the scripts: the scale probes, the example reproduction
and the family sweep."""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first, as dataclasses look their module up while decorating
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def probe():
    return load("probe_scale")


@pytest.mark.parametrize("name", ["reproduce_examples", "family_sweep"])
def test_script_runs_every_example_and_verifies(name, capsys):
    assert load(name).main([]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_family_sweep_refuses_a_nonfinite_tolerance(tol):
    # verify_fr refuses it, so no row can pass at an infinite tolerance
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        load("family_sweep").main(["--variant", "A", "--tol", tol])


def test_parse_probe_reads_and_searches(probe):
    # a smoke test: the keys of the report and the exit code, no timing; no
    # involution of this graph has FR (the decide probe's is PERIODIC)
    report = probe.probe_parse()
    assert set(report) == {
        "n",
        "degree",
        "parse_cpu_s",
        "search_exit_code",
        "search_cpu_s",
        "search_output_bytes",
    }
    assert report["n"] == 10**5 and report["degree"] == 40000
    assert report["search_exit_code"] == 1


def test_connectivity_probe_runs_within_a_second(probe):
    start = time.perf_counter()
    report = probe.probe_connectivity()
    assert time.perf_counter() - start < 1.0
    assert report["n"] == 10**4 and report["degree"] == 4000
    assert report["connected"] is True
    assert 0 <= report["make_graph_cpu_s"] < 1.0
    # the rank test on two sorted lifts, which list a hyperplane first,
    # reaches full rank within a few rows of the stride order
    for key, n in (("family_d", 256), ("family_e", 512)):
        lift = report[key]
        assert set(lift) == {"n", "degree", "rows_read", "reductions", "rank_test_cpu_s"}
        assert lift["n"] == n and lift["degree"] > 100
        assert 0 < lift["rows_read"] <= 20 and 0 <= lift["reductions"] <= 40
        assert 0 <= lift["rank_test_cpu_s"] < 0.01


def test_search_probe_folds_every_involution_at_once(probe):
    # One fold of the spectrum onto G/2G decides all seven involutions.
    report = probe.probe_search()
    assert report["n"] == 10**5 and report["involutions"] == report["certificates"] == 7
    assert 0 <= report["search_all_cpu_s"] < 0.6


def test_decide_probe(probe):
    report = probe.probe_decide()
    assert report["n"] == 10**5 and report["kind"] == "PERIODIC"
    assert 0 <= report["decide_fr_cpu_s"] < 0.6


def test_cube_probe_decides_every_involution_from_counts(probe):
    # 16383 involutions of (Z2)^14 from one fold, g0 at all but a few
    # candidate masks, not a fold pass each
    report = probe.probe_cube(14)
    assert report["n"] == 2**14 and report["degree"] == 300
    assert report["involutions"] == report["certificates"] == 16383
    assert 0 <= report["search_all_cpu_s"] < 2.0
    # one involution, with class mask 1, which takes g0 from the fold, and
    # the all-ones one, a candidate mask, which takes a gcd pass over it
    assert report["decide_kind"] == "PERIODIC"
    assert 0 <= report["decide_fr_cpu_s"] < 0.1
    assert report["decide_candidate_kind"] is not None
    assert 0 <= report["decide_candidate_fr_cpu_s"] < 0.1
    # and the whole `fr search -o`, which renders each distinct body once
    assert report["search_exit_code"] == 1
    assert report["search_output_certificates"] == 16383
    assert report["search_output_bytes"] > 16383 * 300
    assert 0 <= report["search_cpu_s"] < 1.5
    # then in a fresh process, which writes the same bytes block by block,
    # never holding the 7 MiB document: a few MiB above the interpreter's
    assert report["child_search_exit_code"] == 1
    assert report["child_search_identical"] is True
    assert 0 < report["child_base_maxrss_mib"] <= report["child_search_maxrss_mib"]
    assert report["child_search_maxrss_mib"] < report["child_base_maxrss_mib"] + 6
    assert 0 < report["child_search_cpu_s"] < 3.0


def test_spectrum_probe_is_bounded(probe):
    # Non-integral `fr spectrum` on Z2 x Z20000 keeps no count vectors.
    report = probe.probe_spectrum()
    assert report["n"] == 40000 and report["integral"] is False
    assert report["exit_codes"] == [0, 0]
    assert 0 <= report["spectrum_cpu_s"] < 10.0
    assert report["tracemalloc_peak_mib"] < 64


def test_oracle_probe_verifies_at_the_dense_cap(probe):
    # construct --verify, then verify, on a family-D graph of order 256
    report = probe.probe_oracle()
    assert report["n"] == 256
    assert report["exit_codes"] == [0, 0]
    assert report["construct_pass"] is True and report["verify_pass"] is True
    assert 0 <= report["construct_verify_cpu_s"] < 1.0
    assert 0 <= report["verify_cpu_s"] < 1.0
    # two layers of the construct path, timed apart
    assert 0 < report["build_from_spec_cpu_s"] < 1.0
    assert 0 <= report["engine_agrees_cpu_s"] < 1.0
    assert report["engine_agrees"] is True
    # a few 256 x 256 arrays at a time: the tables, then D and H(t)
    assert 0 < report["verify_fr_tracemalloc_peak_mib"] < 4
