#!/usr/bin/env python3
"""Sweep the graph-family builders over a parameter grid and verify each.

Every constructed instance is cross-checked twice: the exact engine must
agree with the builder's predicted certificate, and the dense walk oracle
must confirm the revival numerically at the requested tolerance.

Usage:
    python3 scripts/family_sweep.py                 # all variants
    python3 scripts/family_sweep.py --variant A B   # a subset
    python3 scripts/family_sweep.py --tol 1e-10
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src"))

import frcayley as fr


@dataclass(frozen=True)
class SweepRow:
    label: str
    order: int
    degree: int
    modulus: int
    time: float
    engine_ok: bool
    oracle_ok: bool
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.engine_ok and self.oracle_ok


def iter_builds(variants: Sequence[str]) -> Iterable[fr.BuiltFamily]:
    if "A" in variants:
        for p, r, h in [
            (3, 2, ()), (5, 1, (3,)), (3, 1, (5,)), (7, 1, (3,)),
            (3, 2, (2,)), (5, 2, ()), (11, 1, (3,)),
        ]:
            yield fr.build_ramanujan_family(p, r, h)
    if "B" in variants:
        for pp in [
            [(2, 2), (3, 2)], [(2, 1), (3, 2)], [(2, 1), (5, 2)],
            [(2, 2), (5, 2)], [(2, 3), (3, 2)],
        ]:
            yield fr.build_multi_prime_family(pp)
    if "C" in variants:
        yield fr.build_plateaued_family([9], [(u,) for u in fr.units_mod(9)])
        yield fr.build_plateaued_family([27], [(u,) for u in fr.units_mod(27)])
        yield fr.build_plateaued_family(
            [3, 3], [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2)]
        )
    if "D" in variants:
        quad = [(1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]
        yield fr.build_cublike_family(quad, quad)
        supp6 = [s for s in fr.mm_bent(6).group.elements() if fr.mm_bent(6)(s)]
        yield fr.build_cublike_family(supp6, supp6)
    if "E" in variants:
        yield fr.build_bent_family(fr.mm_bent(4))
        yield fr.build_bent_family(fr.mm_bent(6))


def sweep(variants: Sequence[str], tolerance: float) -> list[SweepRow]:
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
        for built in iter_builds(variants):
            report = fr.verify_fr(built.graph, built.prediction, tol=tolerance)
            rows.append(
                SweepRow(
                    label=built.label,
                    order=built.graph.n,
                    degree=built.graph.degree,
                    modulus=built.prediction.modulus,
                    time=built.prediction.time,
                    engine_ok=fr.engine_agrees(built),
                    oracle_ok=report.passed,
                    max_deviation=report.max_deviation,
                )
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--variant", nargs="+", default=list("ABCDE"),
        choices=list("ABCDE"), help="family variants to sweep",
    )
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)

    rows = sweep(args.variant, args.tol)
    width = max(len(r.label) for r in rows) if rows else 8
    print(
        f"{'instance':<{width}}  {'n':>4} {'d':>4} {'N':>4} {'t':>10}  "
        f"{'engine':>6} {'oracle':>6} {'max dev':>9}"
    )
    for r in rows:
        print(
            f"{r.label:<{width}}  {r.order:>4} {r.degree:>4} {r.modulus:>4} "
            f"{r.time:>10.6f}  {str(r.engine_ok):>6} {str(r.oracle_ok):>6} "
            f"{r.max_deviation:>9.2e}"
        )
    bad = [r for r in rows if not r.ok]
    print(f"\n{len(rows)} instances, {len(rows) - len(bad)} fully verified.")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
