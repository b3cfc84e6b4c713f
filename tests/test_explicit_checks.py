"""Checks in boolfn, families and oracle raise explicitly; none is an
assert, so python -O keeps them all.  No module of the package holds an
assert statement at all, and no private helper that the package itself
never calls."""

from __future__ import annotations

import ast
import collections
import dataclasses
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import frcayley as fr
from frcayley import (
    BooleanFunction,
    CayleyGraph,
    ConnectionSet,
    GroupFunction,
    boolfn,
    build_bent_family,
    build_cublike_family,
    decide_fr,
    eigenvalue_array,
    engine_agrees,
    families,
    make_group,
    mm_bent,
    plateaued_level,
    support_size_check,
)

CO_PLANE = [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]]

# Each check with the exception it raises and a fragment of its message.
CHECKS = {
    "bent_support_size": (ValueError, "bent support size"),
    "class_function_integral": (ArithmeticError, "irrational Fourier coefficient"),
    "cublike_witness": (ArithmeticError, "no witness"),
    "canonical_k": (ArithmeticError, "canonical k = 1"),
    "real_eigenvalues": (ArithmeticError, "not real"),
}


def provoke(case: str) -> None:
    """Reach one check with its condition broken."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
        if case == "bent_support_size":
            support_size_check(BooleanFunction(4, (0,) * 16))
        elif case == "class_function_integral":
            mp.setattr(boolfn, "fourier_integers", lambda f: None)
            units = [(u,) for u in (1, 2, 4, 5, 7, 8)]
            plateaued_level(GroupFunction.indicator(make_group([9]), units), 3)
        elif case == "cublike_witness":
            mp.setattr(families, "decide_fr", lambda graph, a: None)
            build_cublike_family(CO_PLANE, CO_PLANE)
        elif case == "canonical_k":
            built = build_bent_family(mm_bent(4))
            shifted = dataclasses.replace(decide_fr(built.graph, built.a), k=2)
            mp.setattr(families, "decide_fr", lambda graph, a: shifted)
            engine_agrees(built)
        else:
            # An asymmetric set, built past validate_connection_set.
            eigenvalue_array(CayleyGraph(make_group([3]), ConnectionSet(((1,),))))


class TestExplicitChecks:
    @pytest.mark.parametrize("case", CHECKS)
    def test_violation_raises(self, case):
        error, fragment = CHECKS[case]
        with pytest.raises(error, match=fragment):
            provoke(case)

    def test_checks_survive_python_optimize(self):
        paths = [str(Path(__file__).parent), str(Path(fr.__file__).parents[1])]
        script = textwrap.dedent(
            f"""
            import sys
            sys.path[:0] = {paths!r}
            from test_explicit_checks import CHECKS, provoke
            for case, (error, _) in CHECKS.items():
                try:
                    provoke(case)
                except error as exc:
                    print(exc)
                else:
                    print("not raised")
            """
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
        )
        lines = out.stdout.splitlines()
        assert len(lines) == len(CHECKS)
        for line, (_, fragment) in zip(lines, CHECKS.values()):
            assert fragment in line


SOURCES = sorted(Path(fr.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "engine.py", "ioutil.py", "oracle.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}; raise explicitly instead"


def referenced_names(node: ast.AST) -> collections.Counter:
    """How often each name is read as a variable or an attribute under node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


PACKAGE_REFERENCES = sum(
    (referenced_names(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES),
    collections.Counter(),
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    # A private (single-underscore) function, method or class that nothing in
    # the package reads, apart from its own body, is a helper the system does
    # not use: only the tests would keep it alive.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and PACKAGE_REFERENCES[node.name] <= referenced_names(node)[node.name]
    ]
    assert unused == [], f"{path.name} defines {unused}, which no code in the package reads"
