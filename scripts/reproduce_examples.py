#!/usr/bin/env python3
"""Run the canonical example graphs through the full pipeline.

For each example the script computes the exact spectrum, classifies every
involution, and verifies any certificate against the dense walk oracle,
printing a short report per graph.  Exit status is nonzero if any
verification fails.

Usage:
    python3 scripts/reproduce_examples.py
    python3 scripts/reproduce_examples.py --only units-mod-9 --tol 1e-10
    python3 scripts/reproduce_examples.py --json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

import frcayley as fr


@dataclass(frozen=True)
class ExampleConfig:
    """One named graph plus the tolerance its certificates must meet."""

    name: str
    orders: Sequence[int]
    connection: Sequence[Sequence[int]]
    expect_fr: bool


UNITS_9 = (1, 2, 4, 5, 7, 8)

EXAMPLES: tuple[ExampleConfig, ...] = (
    ExampleConfig(
        "units-mod-9",
        (2, 9),
        tuple((0, u) for u in UNITS_9) + ((1, 0),),
        expect_fr=True,
    ),
    ExampleConfig("prism", (2, 3), ((0, 1), (0, 2), (1, 0)), expect_fr=True),
    ExampleConfig(
        "doubled-units",
        (2, 9),
        tuple((0, u) for u in UNITS_9)
        + tuple((1, u) for u in UNITS_9)
        + ((1, 0),),
        expect_fr=True,
    ),
    ExampleConfig(
        "bent-4",
        (2, 2, 2, 2, 2),
        tuple(
            sorted(
                [(b, *s) for b in (0, 1) for s in (
                    (0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                    (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0),
                )]
                + [(1, 0, 0, 0, 0)]
            )
        ),
        expect_fr=True,
    ),
    ExampleConfig("cube", (2, 2, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), expect_fr=False),
    ExampleConfig("four-cycle", (4,), ((1,), (3,)), expect_fr=False),
)


def run_example(cfg: ExampleConfig, tolerance: float) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
        graph = fr.make_graph(list(cfg.orders), cfg.connection)
    spec = fr.spectrum(graph)
    row = {
        "name": cfg.name,
        "order": graph.n,
        "degree": graph.degree,
        "integral": spec.is_integral,
        "certificates": [],
        "ok": True,
    }
    for a, witness in fr.search_all(graph):
        entry = witness.to_json()
        if witness.kind != fr.WitnessKind.PERIODIC:
            report = fr.verify_fr(graph, witness, tol=tolerance)
            entry["verified"] = report.passed
            entry["max_deviation"] = report.max_deviation
            if not report.passed:
                row["ok"] = False
        row["certificates"].append(entry)
    found_fr = any(c["kind"] == "FR" for c in row["certificates"])
    if found_fr != cfg.expect_fr:
        row["ok"] = False
    row["fr_found"] = found_fr
    return row


def print_report(row: dict) -> None:
    status = "ok" if row["ok"] else "FAIL"
    print(
        f"{row['name']:>14}  n={row['order']:<3} d={row['degree']:<3} "
        f"integral={str(row['integral']):<5} fr={str(row['fr_found']):<5} [{status}]"
    )
    for cert in row["certificates"]:
        t = cert["time"]
        frac = f"2*pi*{cert['k']}/{cert['modulus']}"
        tail = ""
        if "verified" in cert:
            tail = f"  verified={cert['verified']} dev={cert['max_deviation']:.2e}"
        print(
            f"{'':>14}  a={tuple(cert['a'])} kind={cert['kind']:<8} "
            f"t={t:.6f} ({frac}){tail}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None, help="run a single named example")
    parser.add_argument("--tol", type=float, default=1e-9, help="oracle tolerance")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    args = parser.parse_args(argv)

    selected = [c for c in EXAMPLES if args.only in (None, c.name)]
    if not selected:
        names = ", ".join(c.name for c in EXAMPLES)
        parser.error(f"unknown example {args.only!r}; choose from: {names}")

    rows = [run_example(cfg, args.tol) for cfg in selected]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            print_report(row)
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
