"""The benchmark's span tracer (bench/tracer.py) wraps program functions by
the name their caller looks them up by.  Every such name must still be
defined where the tracer looks, or `bench/run.py --trace 1` fails with a
KeyError as it installs the tracer."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in _tracer._targets() + _tracer._counted()],
    ids=lambda value: value if isinstance(value, str) else getattr(value, "__name__", "?"),
)
def test_traced_name_is_defined_where_the_tracer_replaces_it(owner, attr):
    # Tracer._replace reads owner.__dict__[attr], not getattr
    assert attr in owner.__dict__
