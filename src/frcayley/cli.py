"""Command line front end.

Subcommands:
  spectrum   exact eigenvalues of a Cayley graph spec
  search     classify every involution, print all certificates
  check      classify one involution given with --a
  construct  build a certified family instance from a family JSON
  verify     check a certificate against the dense walk matrix
  boolfn     classify a Boolean function given as a hex truth table
  plateaued  prime-power plateau structure of a group function

Exit codes: 0 positive result, 1 negative result, 2 malformed input,
3 invalid mathematical input, 4 family hypothesis violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from typing import Iterable, Optional, Sequence

from .boolfn import (
    BooleanClass,
    BooleanFunction,
    GroupFunction,
    classify_boolean,
    eigenvalues_from_walsh,
    plateaued_level,
    support,
    walsh_transform,
)
from .cayley import graph_from_json, graph_to_json, spectrum
# search_all is not called here; bench/tracer.py wraps it under this name.
from .engine import FRWitness, WitnessKind, decide_fr, search_all, search_classes  # noqa: F401
from .errors import FrCayleyError, HypothesisViolationError, SpecFormatError
from .families import build_from_spec, engine_agrees
from .groups import make_group
from .ioutil import (
    _json_int_list,
    _json_object,
    append_int_rows,
    dump_json,
    involution_records,
)
from .oracle import require_tolerance, verify_fr

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_FORMAT = 2
EXIT_INVALID = 3
EXIT_HYPOTHESIS = 4


def parse_element(text: str) -> tuple[int, ...]:
    """Parse comma-separated coordinates like "1,0"."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SpecFormatError(f"cannot parse element {text!r}: {exc}") from exc


def _load_json(path: str):
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal past the interpreter's digit limit
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc


# The buffer of an --output file: a search document of (Z2)^10, about
# 430 KB, then goes out in one write call, not in one per 8 KiB.
_OUTPUT_BUFFER = 1 << 20


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, to --output or to stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8", buffering=_OUTPUT_BUFFER) as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    graph = graph_from_json(_load_json(args.spec))
    spec = spectrum(graph)
    if spec.is_integral:
        eigen = spec.by_rank.tolist()
    else:
        eigen = [spec.approx(z).real for z in graph.group.elements()]
    head = dump_json(
        {
            "group": list(graph.group.orders),
            "degree": graph.degree,
            "integral": spec.is_integral,
            "eigenvalues": eigen,
        }
    )
    _emit(args, [append_int_rows(head, "set", graph.connection.elements)])
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    graph = graph_from_json(_load_json(args.spec))
    fields, low, exact = search_classes(graph)
    # A certificate depends on its involution `a` only through the witness
    # fields of its class: each class body (every key but "a") is built once.
    bodies = []
    for f in fields:
        body = None
        if f is not None:
            body = FRWitness((), *f).to_json()
            del body["a"]
        bodies.append(body)
    found = any(body is not None and body["kind"] == WitnessKind.FR.value for body in bodies)
    head = dump_json({"group": list(graph.group.orders), "fr_found": found})
    head = append_int_rows(head, "set", graph.connection.elements)
    # The involutions are the product of the coordinate choices less its
    # first element, zero.  "certificates" sorts before the other keys, and
    # "a" before the body's.  Every class is decided before the first chunk.
    choices = graph.group.involution_choices()
    _emit(args, involution_records(head, "certificates", "a", choices, bodies, low, exact))
    return EXIT_OK if found else EXIT_NEGATIVE


def _cmd_check(args: argparse.Namespace) -> int:
    graph = graph_from_json(_load_json(args.spec))
    a = graph.group.require_element(parse_element(args.a))
    witness = decide_fr(graph, a)
    if witness is None:
        _emit(args, [dump_json({"a": list(a), "kind": "ABSENT"})])
        return EXIT_NEGATIVE
    _emit(args, [dump_json(witness.to_json())])
    return EXIT_OK if witness.kind is WitnessKind.FR else EXIT_NEGATIVE


def _cmd_construct(args: argparse.Namespace) -> int:
    built = build_from_spec(_load_json(args.family))
    document = {
        "graph": graph_to_json(built.graph),
        "prediction": built.prediction_document(),
    }
    code = EXIT_OK
    if args.verify:
        report = verify_fr(built.graph, built.prediction, tol=args.tol)
        agrees = engine_agrees(built)
        document["verification"] = report.to_json()
        document["engine_agrees"] = agrees
        if not (report.passed and agrees):
            code = EXIT_NEGATIVE
    _emit(args, [dump_json(document)])
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = graph_from_json(_load_json(args.spec))
    witness = FRWitness.from_json(_load_json(args.cert))
    report = verify_fr(graph, witness, tol=args.tol)
    _emit(args, [dump_json(report.to_json())])
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_boolfn(args: argparse.Namespace) -> int:
    try:
        f = BooleanFunction.from_hex(args.truth_table)
    except ValueError as exc:
        raise SpecFormatError(f"bad truth table: {exc}") from exc
    cls = classify_boolean(f)
    document = {
        "n": f.n,
        "hex": f.to_hex(),
        "weight": f.weight,
        "class": cls.value,
    }
    if args.report:
        walsh = walsh_transform(f)
        document["walsh_values"] = [int(v) for v in walsh.values]
        document["distinct_walsh"] = sorted(walsh.distinct())
        document["support"] = [list(x) for x in support(f)]
        document["support_size"] = f.weight
        document["eigenvalues"] = [int(v) for v in eigenvalues_from_walsh(f)]
    _emit(args, [dump_json(document)])
    return EXIT_OK if cls is not BooleanClass.NEITHER else EXIT_NEGATIVE


def _cmd_plateaued(args: argparse.Namespace) -> int:
    data = _json_object(_load_json(args.groupfn), "group function document", ("group", "values"))
    group = make_group(_json_int_list(data["group"], "group"))
    f = GroupFunction(group, tuple(_json_int_list(data["values"], "values")))
    level = plateaued_level(f, args.p)
    document = {
        "group": list(group.orders),
        "p": args.p,
        "plateaued": level is not None,
        "level": None if level is None else {"k": level[0], "r": level[1]},
    }
    _emit(args, [dump_json(document)])
    return EXIT_OK if level is not None else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `fr` parser, built once per process; each parse_args call
    starts from a fresh namespace, so no option carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="fr",
        description="Decide, certify, and verify fractional revival on "
        "Cayley graphs over finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact eigenvalues of a graph spec")
    p.set_defaults(handler=_cmd_spectrum)
    p.add_argument("spec", help="graph JSON file")
    p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("search", help="classify every involution")
    p.set_defaults(handler=_cmd_search)
    p.add_argument("spec", help="graph JSON file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("check", help="classify one involution")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("spec", help="graph JSON file")
    p.add_argument("--a", required=True, help='target element, e.g. "1,0"')
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("construct", help="build a certified family instance")
    p.set_defaults(handler=_cmd_construct)
    p.add_argument("family", help="family JSON file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--verify", action="store_true", help="also run the dense verifier")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("verify", help="check a certificate numerically")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("spec", help="graph JSON file")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("boolfn", help="classify a Boolean function")
    p.set_defaults(handler=_cmd_boolfn)
    p.add_argument("--truth-table", required=True, help="hex truth table")
    p.add_argument("--report", action="store_true", help="include the Walsh report")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("plateaued", help="prime-power plateau structure")
    p.set_defaults(handler=_cmd_plateaued)
    p.add_argument("groupfn", help='JSON file {"group": [...], "values": [...]}')
    p.add_argument("--p", type=int, required=True, help="prime to test")
    p.add_argument("-o", "--output", default=None)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # The message only: Python's default format names the file and line
    # that warned, so stderr would depend on where the package is installed.
    print(f"warning: {message}", file=sys.stderr)


# construct and verify take --tol, and no other option of theirs starts
# with --t, so argparse takes each of these spellings for it
_TOL_SPELLINGS = ("--t", "--to", "--tol")


def _join_tolerance(argv: Sequence[str]) -> list[str]:
    """argv with each "--tol VALUE" of construct or verify whose VALUE is a
    number starting with "-" given as "--tol=VALUE" (and so for "--t" and
    "--to").  argparse takes only plain decimals such as -1 for negative
    numbers, and would read -inf or -1e-3 as an option; joined, the value
    reaches the tolerance check."""
    if not argv or argv[0] not in ("construct", "verify"):
        return list(argv)
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _TOL_SPELLINGS and arg.startswith("-") and _is_float(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(_join_tolerance(sys.argv[1:] if argv is None else argv))
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if "tol" in args:
                require_tolerance(args.tol)
            return args.handler(args)
        except (SpecFormatError, FileNotFoundError, IsADirectoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FORMAT
        except HypothesisViolationError as exc:
            print(f"hypothesis violation: {exc}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        except (FrCayleyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
