"""Deterministic JSON serialization, and the strict readers every input
document (graph, family, group function, certificate) is parsed through.

A reader returns the value it was given when it has the expected JSON type
and raises SpecFormatError naming the field otherwise."""

from __future__ import annotations

from json.encoder import encode_basestring
from typing import Sequence

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


# the line break and indent of a splice_records record's fields
_FIELD = "\n      "


def splice_records(
    text: str, field: str, key: str, values: Sequence[str], bodies: Sequence, index: Sequence[int]
) -> str:
    """The canonical text of {field: [{key: value_i, **bodies[index[i]]}
    for each i whose body is not None], **rest}, given text =
    dump_json(rest) for a non-empty rest whose keys all sort after field.
    values[i] is the text of value_i as a field of a record, three indents
    deep (int_list_texts writes such texts).  key must sort before every
    key of each body, and no body may be empty.

    Each body is rendered once, and each record is three strings joined, so
    records that share a few bodies cost little more than their values."""
    # the list sits one indent deep, its records two, their fields three
    closings = []
    for body in bodies:
        if body is not None:
            if not (body and key < min(body)):
                raise ValueError(f"key {key!r} must sort before every key of a non-empty body")
            body = "," + _render(body, "\n    ")[1:]
        closings.append(body)
    opening = _opening(key, "\n    ")
    items = [
        opening + value + closing
        for value, c in zip(values, index)
        if (closing := closings[c]) is not None
    ]
    # one join, so the records' text is copied once more, not three times
    listed = ["[\n    ", ",\n    ".join(items), "\n  ]"] if items else ["[]"]
    return "".join([_opening(field, "\n"), *listed, ",", text[1:]])


def int_list_texts(choices: Sequence[Sequence[int]]) -> list[str]:
    """The text of list(c) as a field of a splice_records record, for each
    c in itertools.product(*choices), in that order.  The texts are built
    one factor at a time, each shared prefix written once, so they cost
    about two concatenations apiece."""
    inner = _FIELD + "  "
    texts = ["[" + inner]
    for i, coords in enumerate(choices):
        tail = _FIELD + "]" if i == len(choices) - 1 else "," + inner
        ends = [int.__repr__(c) + tail for c in coords]
        texts = [prefix + end for prefix in texts for end in ends]
    return texts if choices else ["[]"]


def append_int_rows(text: str, key: str, rows: Sequence[Sequence[int]]) -> str:
    """The canonical text of {**rest, key: [list(r) for r in rows]}, given
    text = dump_json(rest) for a non-empty rest whose keys all sort before
    key, and non-empty rows of ints (a connection set's elements).  Each
    coordinate is written by int.__repr__, with no per-row type check."""
    # the list sits one indent deep, its rows two, their coordinates three
    if rows:
        sep = ",\n      "
        body = "\n    ],\n    [\n      ".join(sep.join(map(int.__repr__, r)) for r in rows)
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
