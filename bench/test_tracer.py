"""The tracer sees every layer under the name its caller uses, and counts
the same work in every pass.

    python3 -m pytest bench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from frcayley import cli, engine  # noqa: E402
from tracer import Tracer  # noqa: E402

UNITS_9 = {"group": [2, 9], "set": [[0, u] for u in (1, 2, 4, 5, 7, 8)] + [[1, 0]]}


def test_spans_counts_and_self_time(tmp_path):
    spec = tmp_path / "graph.json"
    spec.write_text(json.dumps(UNITS_9), encoding="utf-8")
    originals = (cli.search_all, engine.decide_fr)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.search_all is not originals[0] and engine.decide_fr is not originals[1]
        for _ in range(2):
            cli.main(["search", str(spec), "-o", str(tmp_path / "out.json")])
            tracer.end_pass()
    finally:
        tracer.uninstall()
    assert (cli.search_all, engine.decide_fr) == originals

    first, second = tracer.per_pass()
    assert first.keys() == second.keys()
    for name in first:
        if name.endswith(("_calls", "_coeffs")):
            assert first[name] == second[name] > 0, name
    # 18 eigenvalues, each a sum over the 7 set elements; one split of 18.
    assert first["groups.character_exponent_calls"] == 18 * 7 + 18
    assert first["cayley.spectrum_coeffs"] == 18 * 18
    assert first["engine.search_all_calls"] == first["engine.split_calls"] == 1

    main = [s for s in tracer.spans if s[0] == "cli.main"]
    assert len(main) == 2 and all(s[3] == -1 for s in main)
    duration = sum(end - start for _, start, end, _, _ in main)
    total_self = sum(v for k, v in first.items() if k.endswith("_s")) + sum(
        v for k, v in second.items() if k.endswith("_s")
    )
    assert abs(total_self - duration) < 1e-9  # self times partition the root spans
