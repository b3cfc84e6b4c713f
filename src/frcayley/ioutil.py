"""Deterministic JSON serialization, and the strict readers every input
document (graph, family, group function, certificate) is parsed through.

A reader returns the value it was given when it has the expected JSON type
and raises SpecFormatError naming the field otherwise."""

from __future__ import annotations

from json.encoder import encode_basestring
from typing import Iterator, Mapping, Optional, Sequence

from .errors import SpecFormatError


def dump_json(data) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is json.dumps(data, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n", byte for byte, for documents of dicts with
    string keys, lists, tuples, strings, ints, floats, bools and None.
    Floats are rendered by Python's shortest-roundtrip repr, so identical
    inputs always produce byte-identical output.  It is one recursive
    join; json.dumps falls back to its pure-Python encoder whenever it
    indents."""
    return _render(data, "\n") + "\n"


_INF = float("inf")
_INTS = {int}


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# Scalar renderers by exact type; subclasses take the isinstance checks of
# _render, made in the order json.dumps makes them.
_SCALAR = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _render(value, newline: str) -> str:
    # `newline` is a line break followed by the indent of `value`
    scalar = _SCALAR.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == _INTS:
            items = map(int.__repr__, value)
        else:
            items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring(key) + ": " + _render(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for cls in (str, int, float):
        if isinstance(value, cls):
            return _SCALAR[cls](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The records of involution_records sit two indents deep, their fields
# three and the coordinates of their key four: the line break and indent of
# a record, the separator of two records, the line break and indent of a
# field, and the separator, line break and indent before a coordinate.
_RECORD = "\n    "
_RECORD_SEP = "," + _RECORD
_FIELD = "\n      "
_COORD = ",\n        "


def involution_records(
    text: str,
    field: str,
    key: str,
    choices: Sequence[Sequence[int]],
    bodies: Sequence[Optional[dict]],
    low: Sequence[int],
    exact: Mapping[int, int],
) -> Iterator[str]:
    """Chunks whose concatenation is the canonical text of {field:
    [{key: list(c), **bodies[class(c)]} for each c in
    itertools.product(*choices) but the first, whose body is not None],
    **rest}, given text = dump_json(rest) for a non-empty rest whose keys
    all sort after field.  key must sort before every key of each body,
    and no body may be empty; both are checked here, before any chunk, as
    is the length of low when some body is not None.

    Each factor gives one choice or two, and c has the mask whose bits are
    the factors with two choices, the first most significant, set where c
    takes the second; masks then run in product order.  class(c) is
    exact[mask] where given, and otherwise low[i], with 2^i the lowest set
    bit of the mask (so len(low) is the number of two-choice factors).

    The two-choice factors split into head bits and a tail of b = t // 2
    low bits; a one-choice factor goes with the two-choice factor before
    it, or into the head when there is none.  The 2^b tail texts, each
    with the body of its lowest bit, are rendered once, and each head
    value's block of records is one str.join whose separator carries the
    head's text.  A block that holds an exact mask is assembled record by
    record.  So the Python work is O(2^(t/2) * (1 + len(exact))), and no
    chunk holds more than one block."""
    closings = []
    for body in bodies:
        if body is not None:
            if not (body and key < min(body)):
                raise ValueError(f"key {key!r} must sort before every key of a non-empty body")
            body = "," + _render(body, _RECORD)[1:]
        closings.append(body)
    opening = _opening(field, "\n")
    if closings.count(None) == len(closings):
        return iter((opening + "[]," + text[1:],))
    twos = [i for i, c in enumerate(choices) if len(c) == 2]
    if len(twos) != len(low):
        raise ValueError(f"{len(twos)} factors give two choices, but low has {len(low)} classes")
    rest = "," + text[1:]
    record = _opening(key, _RECORD)
    return _record_blocks(opening, rest, record, choices, twos, closings, low, exact)


def _record_blocks(opening, rest, record, choices, twos, closings, low, exact) -> Iterator[str]:
    t = len(low)
    b = t // 2
    split = twos[t - b] if b else len(choices)
    # each head's text: the record's opening and its key's list up to the
    # tail; each tail's text: the rest of that list
    heads = [record + "["]
    for i, coords in enumerate(choices[:split]):
        ends = [(_COORD if i else _COORD[1:]) + int.__repr__(c) for c in coords]
        heads = [h + e for h in heads for e in ends]
    tails = [""]
    for coords in choices[split:]:
        ends = [_COORD + int.__repr__(c) for c in coords]
        tails = [x + e for x in tails for e in ends]
    tails = [x + _FIELD + "]" for x in tails]
    # tail 0 takes the class of the head's lowest bit, tail T > 0 that of its own
    firsts = [None if (c := closings[i]) is None else tails[0] + c for i in low[b:]]
    others = [None] * (1 << b)
    for T in range(1, 1 << b):
        closing = closings[low[(T & -T).bit_length() - 1]]
        if closing is not None:
            others[T] = tails[T] + closing
    shared = [s for s in others if s is not None]
    by_head: dict[int, list[int]] = {}
    for mask in exact:
        by_head.setdefault(mask >> b, []).append(mask)

    yield opening
    listed = False
    for head, prefix in enumerate(heads):
        first = firsts[(head & -head).bit_length() - 1] if head else None
        if head in by_head:
            row = [first, *others[1:]]
            for mask in by_head[head]:
                T = mask & ((1 << b) - 1)
                closing = closings[exact[mask]]
                row[T] = None if closing is None else tails[T] + closing
            parts = [s for s in row if s is not None]
        elif first is None:
            parts = shared
        else:
            parts = [first, *shared]
        if parts:
            sep = _RECORD_SEP + prefix
            yield sep if listed else "[" + sep[1:]
            yield sep.join(parts)
            listed = True
    yield ("\n  ]" if listed else "[]") + rest


def append_int_rows(text: str, key: str, rows: Sequence[tuple[int, ...]]) -> str:
    """The canonical text of {**rest, key: [list(r) for r in rows]}, given
    text = dump_json(rest) for a non-empty rest whose keys all sort before
    key, and non-empty tuples of ints of one length (a connection set's
    elements).  Each row is written by one %-format, whose %d renders an
    int as int.__repr__ does, with no per-row type check."""
    # the list sits one indent deep, its rows two, their coordinates three
    if rows:
        row = ",\n      ".join(["%d"] * len(rows[0]))
        body = "\n    ],\n    [\n      ".join(map(row.__mod__, rows))
        listed = "[\n    [\n      " + body + "\n    ]\n  ]"
    else:
        listed = "[]"
    return "".join([text[:-3], ",\n  ", encode_basestring(key), ": ", listed, "\n}\n"])


def _opening(key: str, newline: str) -> str:
    # An object's text up to its first value, for an object at the indent
    # `newline`; the text of the rest of it goes on from its own "{".
    return "{" + newline + "  " + encode_basestring(key) + ": "


def _json_int(value: object, field: str) -> int:
    # bool is an int subclass, and a float would be silently truncated.
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecFormatError(f"field {field!r} must hold integers, got {value!r}")
    return value


def _json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(f"field {field!r} must be a list, got {value!r}")
    return value


def _json_int_list(value: object, field: str) -> list[int]:
    return [_json_int(v, field) for v in _json_list(value, field)]


def _json_int_rows(value: object, field: str) -> list[list[int]]:
    """A list of integer lists, such as a connection set."""
    return [_json_int_list(row, field) for row in _json_list(value, field)]


def _json_str(value: object, field: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(f"field {field!r} must be a string, got {value!r}")
    return value


def _json_number(value: object, field: str) -> float:
    """An int or float, as a float; bool and out-of-range ints are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecFormatError(f"field {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SpecFormatError(f"field {field!r} is out of float range") from exc


def _json_object(value: object, what: str, required: tuple[str, ...]) -> dict:
    """A JSON object holding every key in `required`."""
    if not isinstance(value, dict):
        raise SpecFormatError(f"{what} must be a JSON object")
    missing = [key for key in required if key not in value]
    if missing:
        raise SpecFormatError(f"{what} is missing key(s) {missing}")
    return value
