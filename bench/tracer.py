"""In-memory span tracer installed from outside the program.

Each traced function is replaced under the name its caller looks it up by
(``cli`` imports ``search_all`` by name, so ``cli.search_all`` itself is
replaced, while ``engine.search_all``'s own calls to ``decide_fr`` go
through ``engine.decide_fr``).  A span is (name, start, end, parent,
instance); the self time of a span is its duration minus that of its
direct children.  Hot inner functions get a call counter instead of spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path


def _targets():
    """(owner, attribute, span name) for every traced boundary."""
    from frcayley import boolfn, cayley, cli, cyclotomic, engine, families, groups  # noqa: PLC0415

    return [
        (cli, "main", "cli.main"),
        (cli, "_load_json", "cli.load_json"),
        (cli, "_emit", "cli.emit"),
        (cli, "dump_json", "ioutil.dump_json"),
        (cli, "graph_from_json", "cayley.parse"),
        (cli, "spectrum", "cayley.spectrum"),
        (cli, "search_all", "engine.search_all"),
        (cli, "decide_fr", "engine.decide"),
        (cli, "build_from_spec", "families.build"),
        (cli, "engine_agrees", "families.engine_agrees"),
        (cli, "verify_fr", "oracle.verify"),
        (engine, "spectrum", "cayley.spectrum"),
        (engine, "split_by_involution", "engine.split"),
        (engine, "compute_moduli", "engine.moduli"),
        (engine, "decide_fr", "engine.decide"),
        (families, "make_graph", "cayley.make_graph"),
        (families, "decide_fr", "engine.decide"),
        (families, "classify_boolean", "boolfn.classify"),
        (families, "plateaued_level", "boolfn.plateaued"),
        (cayley, "hadamard_transform", "boolfn.hadamard"),
        (boolfn, "hadamard_transform", "boolfn.hadamard"),
        (groups.FiniteAbelianGroup, "subgroup_generated", "groups.subgroup_generated"),
        (cyclotomic.RootOfUnitySum, "reduced", "cyclotomic.reduce"),
    ]


def _counted():
    """(owner, attribute, counter name) for functions too hot for spans."""
    from frcayley import groups  # noqa: PLC0415

    return [(groups.FiniteAbelianGroup, "character_exponent", "groups.character_exponent_calls")]


class Tracer:
    """Spans and counters of one run, grouped by pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance = ""
        self.pass_bounds: list[tuple[int, int, Counter]] = []
        self._pass_start = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in _targets():
            self._replace(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner, attr, name in _counted():
            self._replace(owner, attr, self._count_wrapper(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts_coeffs = name == "cayley.spectrum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if counts_coeffs:
                # Coefficients stored in the returned Spectrum; counted after
                # the span closes, so this time falls to the caller.
                self.counts["cayley.spectrum_coeffs"] += sum(
                    len(v.counts) for v in result.values.values()
                )
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def end_pass(self) -> None:
        """Close the current pass: its spans and counters form one sample."""
        self.pass_bounds.append((self._pass_start, len(self.spans), Counter(self.counts)))
        self._pass_start = len(self.spans)
        self.counts.clear()  # in place: the counting wrappers hold this object

    def per_pass(self) -> list[dict[str, float]]:
        """Per pass: '<name>_s' self time and '<name>_calls' span count, plus
        the counters."""
        out = []
        for lo, hi, counts in self.pass_bounds:
            child = defaultdict(float)
            for name, start, end, parent, _ in self.spans[lo:hi]:
                if parent >= 0:
                    child[parent] += end - start
            sample: dict[str, float] = defaultdict(int)
            for i in range(lo, hi):
                name, start, end, _, _ = self.spans[i]
                sample[f"{name}_s"] += (end - start) - child[i]
                sample[f"{name}_calls"] += 1
            sample.update(counts)
            out.append(dict(sample))
        return out

    def summary(self, names: list[str]) -> dict[str, float]:
        """Median over passes of each named per-pass value (0 when absent);
        the lower median, so that counts stay whole numbers."""
        samples = self.per_pass()
        return {n: statistics.median_low(s.get(n, 0) for s in samples) for n in names}

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, inst]) + "\n")
