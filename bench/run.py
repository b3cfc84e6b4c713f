"""Benchmark of the exact fractional-revival pipeline, end to end.

    python3 bench/run.py --workload ring-search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # each in turn

Run from the repository root (or anywhere: paths are taken from this file).
The workload runs in this one process as a closed loop with a single
client: every instance is a real CLI invocation, ``frcayley.cli.main``
called in-process on generated JSON files, and the next starts only after
the previous one returns.  The loop makes whole passes over the workload's
seeded instance list until ``--seconds`` of wall-clock instance time have
elapsed.

Every end-to-end time is CPU time of this process (see ``cpu_seconds``).  The
program is single-threaded, so on a free core that equals its wall time;
on a shared host it leaves out the time the scheduler gave to others.  The
wall-clock figures go to stderr beside them.

Set-up (generating and writing the inputs, then one untimed warm-up pass)
is done three times; ``setup_s`` is the CPU time up to the end of the
imports plus their median.
Every output of the warm-up pass is checked by ``checker`` after the timed
passes, and every timed pass must reproduce those bytes exactly.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the timed passes run under ``tracer`` and it carries the
per-layer metrics instead.  Both write a copy to ``bench/results/``.
"""

from __future__ import annotations

import os

# One thread: BLAS pools would compete with the single client for the few
# cores the benchmark gets, and time the scheduler instead of the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3

PER_LAYER = {
    "cli.main_s": "s",
    "cli.load_json_s": "s",
    "cli.emit_s": "s",
    "ioutil.dump_json_s": "s",
    "cayley.parse_s": "s",
    "cayley.make_graph_s": "s",
    "groups.subgroup_generated_s": "s",
    "groups.character_exponent_calls": "count",
    "cayley.spectrum_s": "s",
    "cayley.spectrum_calls": "count",
    "cayley.spectrum_coeffs": "count",
    "cyclotomic.reduce_s": "s",
    "cyclotomic.reduce_calls": "count",
    "engine.search_all_s": "s",
    "engine.decide_s": "s",
    "engine.split_s": "s",
    "engine.split_calls": "count",
    "engine.moduli_s": "s",
    "boolfn.hadamard_s": "s",
    "families.build_s": "s",
    "families.engine_agrees_s": "s",
    "boolfn.classify_s": "s",
    "boolfn.plateaued_s": "s",
    "oracle.verify_s": "s",
    "trace.instances_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def load_cli():
    """Import the program from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from frcayley import cli  # noqa: PLC0415
    except ImportError as exc:
        raise SystemExit(f"error: cannot import frcayley from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: frcayley was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    """One instance run: its timed CPU and wall seconds and (exit code,
    output bytes) per CLI call, or the error that made it fail."""

    seconds: float
    wall: float
    outputs: Optional[list[tuple[int, bytes]]]
    error: Optional[str] = None


def _output_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("-o") + 1])


def cpu_seconds() -> float:
    """CPU time of this process and of any child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_instance(cli, inst) -> Outcome:
    seconds = wall = 0.0
    outputs = []
    for step, argv in enumerate(inst.argv):
        if step == 1:
            # Untimed glue: split the construct document into the graph and
            # certificate files that `fr verify` takes.
            doc = json.loads(outputs[0][1])
            Path(argv[1]).write_text(json.dumps(doc["graph"]), encoding="utf-8")
            Path(argv[2]).write_text(json.dumps(doc["prediction"]), encoding="utf-8")
        started, wall_started = cpu_seconds(), time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an instance failure is counted, not fatal
            return Outcome(seconds, wall, None, f"{type(exc).__name__}: {exc}")
        seconds += cpu_seconds() - started
        wall += time.perf_counter() - wall_started
        if code not in (0, 1):
            return Outcome(seconds, wall, None, f"exit code {code} from {argv[0]}")
        outputs.append((code, _output_path(argv).read_bytes()))
    return Outcome(seconds, wall, outputs)


def run_pass(cli, instances, tracer=None, pass_no: int = 0) -> list[Outcome]:
    out = []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = f"{pass_no}:{i}"
        out.append(run_instance(cli, inst))
    if tracer is not None:
        tracer.end_pass()
    return out


def check_outputs(instances, outcomes: list[Outcome]) -> list[str]:
    """Every successful warm-up output against the independent checker."""
    problems = []
    for inst, outcome in zip(instances, outcomes):
        if outcome.outputs is None:
            continue
        try:
            found = check_instance(inst, outcome.outputs)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            found = [f"malformed output: {exc!r}"]
        problems += [f"{inst.name}: {p}" for p in found]
    return problems


def check_instance(inst, outputs: list[tuple[int, bytes]]) -> list[str]:
    problems = []
    docs = []
    for code, raw in outputs:
        text = raw.decode("utf-8")
        doc = json.loads(text)
        if text != json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n":
            problems.append("output is not canonical JSON")
        docs.append((code, doc))
    graph = checker.Graph(inst.orders, inst.connection)
    code, doc = docs[0]
    if inst.command == "search":
        return problems + checker.check_search(graph, doc, code, inst.a, inst.predicted)
    if inst.command == "check":
        return problems + checker.check_check(graph, doc, code, inst.a)
    report_code, report = docs[1]
    return problems + checker.check_construct(
        graph, doc, code, report, report_code, inst.a, inst.predicted, inst.family["variant"]
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process, one after another; the
    last stdout line maps each workload to its result."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, check=False
        )
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = load_cli()
    import_s = cpu_seconds()  # since the process started

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems: list[str] = []
    try:
        setups, warm_pass_s = [], []
        reference = None
        for _ in range(SETUP_REPEATS):
            started = cpu_seconds()
            shutil.rmtree(work, ignore_errors=True)
            instances = workloads.make_instances(args.workload, args.seed)
            workloads.write_inputs(instances, work)
            warm = run_pass(cli, instances)
            setups.append(cpu_seconds() - started)
            warm_pass_s.append(sum(o.seconds for o in warm))
            if reference is None:
                reference = warm
            elif [o.outputs for o in warm] != [o.outputs for o in reference]:
                problems.append("outputs differ between set-up passes")
            del warm

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        passes: list[list[float]] = []  # instance CPU seconds, per timed pass
        walls: list[list[float]] = []  # the same instances' wall seconds
        rates: list[float] = []  # instances completed per CPU second, per pass
        failed = 0
        busy = 0.0
        while not passes or busy < args.seconds:
            outcomes = run_pass(cli, instances, tracer, len(passes))
            if [o.outputs for o in outcomes] != [o.outputs for o in reference]:
                problems.append(f"pass {len(passes) + 1} output differs from the warm-up pass")
            # Keep only timings, so that memory does not grow with the pass count.
            passes.append([o.seconds for o in outcomes])
            walls.append([o.wall for o in outcomes])
            rates.append(sum(o.outputs is not None for o in outcomes) / sum(passes[-1]))
            failed += sum(o.outputs is None for o in outcomes)
            busy += sum(walls[-1])
            del outcomes
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += check_outputs(instances, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    for inst, outcome in zip(instances, reference):
        if outcome.error:
            print(f"failed: {inst.name}: {outcome.error}", file=sys.stderr)
    largest = next(i for i, inst in enumerate(instances) if inst.largest)
    instances_per_s = statistics.median(rates)
    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "instances_per_s": (instances_per_s, "1/s"),
            "largest_instance_s": (statistics.median(p[largest] for p in passes), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        values = tracer.summary([n for n, u in PER_LAYER.items() if not n.startswith("trace.")])
        traced_pass_s = statistics.median(sum(p) for p in passes)
        values["trace.instances_per_s"] = instances_per_s
        values["trace.overhead_pct"] = 100 * (traced_pass_s / statistics.median(warm_pass_s) - 1)
        metrics = {n: (values[n], PER_LAYER[n]) for n in PER_LAYER}
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(instances)} "
        f"instances, {attempted} attempted, {failed} failed, {busy:.2f} s timed",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(
        f"  wall clock: {(attempted - failed) / busy:.6g} instances/s, largest instance "
        f"{statistics.median(p[largest] for p in walls):.6g} s",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
