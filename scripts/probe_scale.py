#!/usr/bin/env python3
"""Time the scale probes beyond the benchmark ladder and print them as JSON.

Seven probes, each one run in this process (the cube probe also starts
fresh ones), timed in CPU seconds:

- parse: graph_from_json on the loaded JSON of Z2 x Z4 x Z12500 (n = 10^5)
  with the unit-closed set {(a, b, u) : u a unit mod 12500} (|S| = 40000),
  then the whole `fr search -o` on the same file, run in process;
- connectivity: make_graph on Z2 x Z4 x Z1250 (n = 10^4) with the
  unit-closed set {(a, b, u) : u a unit mod 1250} (|S| = 4000); then the
  rank test of is_generated_by, its rows read, reductions and CPU seconds
  per call, on two sorted lifts {0} x S0, {1} x S1, a: the family-D graph
  of the oracle probe (n = 256) and the family-E graph of the
  inner-product bent function on F_2^8 ((Z2)^9, |S| = 241);
- search: search_all on Z2 x Z4 x Z12500 (n = 10^5, seven involutions)
  with the unit-closed set {(a, b, u) : u a unit mod 12500} (|S| = 40000),
  timed apart from building the graph;
- decide: decide_fr for the one involution (1, 0, 0) on a fresh copy of
  that graph, timed the same way;
- cube: search_all on (Z2)^14, (Z2)^16 and (Z2)^18 with a seeded random
  set of 300 nonzero elements, timed apart from building the graph: 16383,
  65535 and 262143 involutions; then decide_fr for the one involution
  (0, ..., 0, 1), whose class mask 1 takes the common modulus g0, and for
  (1, ..., 1), a candidate mask that takes a gcd pass over the fold (on a
  cube each parity class is one element, so f = 0, and D is nonzero at
  every unit class); then the whole `fr search -o` on the same graph, run
  in process, with the size of the document it writes and its number of
  certificates; then the same `fr search -o` in a fresh child process,
  with its CPU seconds and max RSS, beside the max RSS of a child that
  only imports the program (the interpreter's base), and whether it wrote
  the same bytes;
- spectrum: `fr spectrum` on the non-integral Z2 x Z20000 graph with
  S = {(0, 1), (0, -1), (1, 0)} (n = 40000), run in process twice: once
  timed, once under tracemalloc for its peak;
- oracle: `fr construct --verify` on the family-D spec over (Z2)^8
  (n = 256, the dense oracle's cap) whose slices are both the support of
  the inner-product bent function on F_2^6 lifted to F_2^7, then `fr verify`
  on the graph and certificate it emits, each run in process five times
  (the least CPU time is reported); the least CPU time of five
  build_from_spec calls on that spec, and of five engine_agrees calls on
  the family it returns; then the tracemalloc peak of one verify_fr on the
  same graph and prediction.

Run as a script, it sets each BLAS thread count the environment leaves
unset to one before numpy loads.

Usage:
    python3 scripts/probe_scale.py
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# Run as a script, one BLAS thread unless the caller set a count, as
# bench/run.py runs: the CPU clock counts every thread of the process, so an
# OpenBLAS pool spinning after each matrix product would be timed with the
# program.  An importer keeps its own environment.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import frcayley as fr
from frcayley.cli import main as fr_main
from frcayley.families import build_from_spec, engine_agrees


def unit_closed_rows(m: int) -> list[tuple[int, int, int]]:
    """Every (a, b, u) in Z2 x Z4 x Zm with u a unit mod m."""
    return [(a, b, u) for a in range(2) for b in range(4) for u in fr.units_mod(m)]


def probe_parse() -> dict:
    doc = {"group": [2, 4, 12500], "set": [list(r) for r in unit_closed_rows(12500)]}
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "graph.json"
        out = Path(tmp) / "search.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        loaded = json.loads(spec.read_text(encoding="utf-8"))
        start = time.process_time()
        graph = fr.graph_from_json(loaded)
        parse_cpu = time.process_time() - start
        start = time.process_time()
        code = fr_main(["search", str(spec), "-o", str(out)])
        search_cpu = time.process_time() - start
        written = out.read_bytes()
    return {
        "n": graph.n,
        "degree": graph.degree,
        "parse_cpu_s": parse_cpu,
        "search_exit_code": code,
        "search_cpu_s": search_cpu,
        "search_output_bytes": len(written),
    }


def rank_test(graph: fr.CayleyGraph) -> dict:
    """The rank test of is_generated_by on the graph's set: its rows read,
    its reductions, and its CPU seconds per call, the mean of 100 calls."""
    group, rows = graph.group, graph.connection.elements
    read, reductions = group.rank_test_counts(rows)
    start = time.process_time()
    for _ in range(100):
        group.is_generated_by(rows)
    return {
        "n": graph.n,
        "degree": graph.degree,
        "rows_read": read,
        "reductions": reductions,
        "rank_test_cpu_s": (time.process_time() - start) / 100,
    }


def probe_connectivity() -> dict:
    rows = unit_closed_rows(1250)
    start = time.process_time()
    graph = fr.make_graph([2, 4, 1250], rows)
    cpu = time.process_time() - start
    lifted = bent_lift()
    return {
        "n": graph.n,
        "degree": graph.degree,
        "connected": graph.connected,
        "make_graph_cpu_s": cpu,
        "family_d": rank_test(fr.build_cublike_family(lifted, lifted).graph),
        "family_e": rank_test(fr.build_bent_family(fr.mm_bent(8)).graph),
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


# Run by a fresh interpreter: runs `python argv` as its own child, then
# prints that child's exit code, CPU seconds and max RSS in KiB.
_MEASURE = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, *sys.argv[1:]])
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""


def run_child(argv: list[str]) -> tuple[int, float, float]:
    """(exit code, CPU seconds, max RSS in MiB) of `python argv` in a fresh
    process that imports the program from this checkout.  Linux carries
    the peak RSS of the process that starts a child into the child's
    ru_maxrss across exec, so a small interpreter starts it and reads its
    RUSAGE_CHILDREN, rather than this process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, *argv], env=env, stdout=subprocess.PIPE, check=True
    )
    code, cpu, rss = proc.stdout.split()[-3:]
    return int(code), float(cpu), int(rss) / 1024


def count_certificates(path: Path) -> int:
    """The records of a search document, read a line at a time: each one
    opens with its "a" key, which no other object of the document has."""
    with open(path, encoding="utf-8") as fh:
        return sum(line == '      "a": [\n' for line in fh)


def probe_cube(t: int, size: int = 300, seed: int = 0) -> dict:
    group = fr.make_group([2] * t)
    rows = [group.unrank(r) for r in random.Random(seed).sample(range(1, group.n), size)]
    start = time.process_time()
    graph = fr.make_graph(group.orders, rows)
    built = time.process_time()
    found = fr.search_all(graph)
    searched = time.process_time()
    witness = fr.decide_fr(graph, (0,) * (t - 1) + (1,))
    decided = time.process_time()
    candidate = fr.decide_fr(graph, (1,) * t)
    decided_candidate = time.process_time()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "graph.json"
        out = Path(tmp) / "search.json"
        spec.write_text(json.dumps(fr.graph_to_json(graph)), encoding="utf-8")
        start_cli = time.process_time()
        code = fr_main(["search", str(spec), "-o", str(out)])
        cli_cpu = time.process_time() - start_cli
        written = out.stat().st_size
        certificates = count_certificates(out)
        child_out = Path(tmp) / "child.json"
        child = run_child(["-m", "frcayley", "search", str(spec), "-o", str(child_out)])
        identical = filecmp.cmp(out, child_out, shallow=False)
        base = run_child(["-c", "import frcayley.cli"])
    return {
        "n": graph.n,
        "degree": graph.degree,
        "involutions": graph.n - 1,
        "certificates": len(found),
        "fr_certificates": sum(w.kind is fr.WitnessKind.FR for _, w in found),
        "make_graph_cpu_s": built - start,
        "search_all_cpu_s": searched - built,
        "decide_kind": None if witness is None else witness.kind.value,
        "decide_fr_cpu_s": decided - searched,
        "decide_candidate_kind": None if candidate is None else candidate.kind.value,
        "decide_candidate_fr_cpu_s": decided_candidate - decided,
        "search_exit_code": code,
        "search_cpu_s": cli_cpu,
        "search_output_bytes": written,
        "search_output_certificates": certificates,
        "child_search_exit_code": child[0],
        "child_search_cpu_s": child[1],
        "child_search_maxrss_mib": child[2],
        "child_search_identical": identical,
        "child_base_cpu_s": base[1],
        "child_base_maxrss_mib": base[2],
    }


def probe_spectrum() -> dict:
    doc = {"group": [2, 20000], "set": [[0, 1], [0, 19999], [1, 0]]}
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "graph.json"
        out = Path(tmp) / "spectrum.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["spectrum", str(spec), "-o", str(out)]
        start = time.process_time()
        code = fr_main(argv)
        cpu = time.process_time() - start
        tracemalloc.start()
        try:
            traced_code = fr_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = json.loads(out.read_text(encoding="utf-8"))
    return {
        "n": len(result["eigenvalues"]),
        "integral": result["integral"],
        "exit_codes": [code, traced_code],
        "spectrum_cpu_s": cpu,
        "tracemalloc_peak_mib": peak / 2**20,
    }


def _least_cpu(argv: list[str]) -> tuple[int, float]:
    """Run `fr argv` in process five times: the largest exit code and the
    least CPU seconds."""
    codes, cpu = _least_of_5(fr_main, argv)
    return max(codes), cpu


def _least_of_5(fn, *args) -> tuple[list, float]:
    """Call fn(*args) five times: the results and the least CPU seconds of
    one call."""
    results, cpu = [], []
    for _ in range(5):
        start = time.process_time()
        results.append(fn(*args))
        cpu.append(time.process_time() - start)
    return results, min(cpu)


def bent_lift() -> list[list[int]]:
    """The support of the inner-product bent function on F_2^6, lifted to
    F_2^7 as {0, 1} x supp, sorted: both slices of the family-D graph of
    order 256."""
    supp = fr.support(fr.mm_bent(6))
    return sorted([[0, *s] for s in supp] + [[1, *s] for s in supp])


def probe_oracle() -> dict:
    lifted = bent_lift()
    doc = {"variant": "CUBLIKE_D", "S0": lifted, "S1": lifted}
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "family.json"
        built = Path(tmp) / "built.json"
        graph = Path(tmp) / "graph.json"
        cert = Path(tmp) / "cert.json"
        report = Path(tmp) / "report.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        construct_code, construct_cpu = _least_cpu(
            ["construct", str(spec), "--verify", "-o", str(built)]
        )
        result = json.loads(built.read_text(encoding="utf-8"))
        graph.write_text(json.dumps(result["graph"]), encoding="utf-8")
        cert.write_text(json.dumps(result["prediction"]), encoding="utf-8")
        verify_code, verify_cpu = _least_cpu(
            ["verify", str(graph), str(cert), "-o", str(report)]
        )
        verified = json.loads(report.read_text(encoding="utf-8"))
    # two layers of the construct path, on the graph the builder returns
    built, build_cpu = _least_of_5(build_from_spec, doc)
    agrees, agrees_cpu = _least_of_5(engine_agrees, built[-1])
    family = fr.build_cublike_family(lifted, lifted)
    tracemalloc.start()
    try:
        fr.verify_fr(family.graph, family.prediction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "n": math.prod(result["graph"]["group"]),
        "exit_codes": [construct_code, verify_code],
        "construct_pass": result["verification"]["pass"],
        "verify_pass": verified["pass"],
        "construct_verify_cpu_s": construct_cpu,
        "verify_cpu_s": verify_cpu,
        "build_from_spec_cpu_s": build_cpu,
        "engine_agrees_cpu_s": agrees_cpu,
        "engine_agrees": all(agrees),
        "verify_fr_tracemalloc_peak_mib": peak / 2**20,
    }


def main() -> int:
    report = {
        "parse": probe_parse(),
        "connectivity": probe_connectivity(),
        "search": probe_search(),
        "decide": probe_decide(),
        "cube_14": probe_cube(14),
        "cube_16": probe_cube(16),
        "cube_18": probe_cube(18),
        "spectrum": probe_spectrum(),
        "oracle": probe_oracle(),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
