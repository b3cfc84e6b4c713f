"""Command-line interface: exit codes, JSON documents, determinism."""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import decide_fr, graph_to_json, make_graph
from frcayley import cli
from frcayley.cli import build_parser, main
from frcayley.families import build_from_spec, engine_agrees
from frcayley.ioutil import IntRows, dump_json, involution_records
from conftest import BENT4_SUPPORT, PRISM_SET, UNITS_9, UNITS_SET
from helpers import GRAPH_SPEC_FAULTS, random_unit_closed_set


# Nested dicts and lists, empty containers, bools inside int lists, None,
# NaN and infinities, large ints, and strings that need escapes or are not
# ASCII.
JSON_DOCUMENTS = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**80), max_value=2**80),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def graph_doc(orders, elements):
    return {"group": list(orders), "set": [list(s) for s in elements]}


@pytest.fixture()
def units_spec(tmp_path):
    return write_json(tmp_path, "units.json", graph_doc([2, 9], UNITS_SET))


@pytest.fixture()
def prism_spec(tmp_path):
    return write_json(tmp_path, "prism.json", graph_doc([2, 3], PRISM_SET))


def replaced(doc, path, value):
    """A deep copy of a JSON document with the node at `path` replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_prism(self, capsys, prism_spec):
        code, out, _ = run(capsys, ["spectrum", prism_spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 3
        assert doc["integral"] is True
        assert doc["eigenvalues"] == [3, 0, 0, 1, -2, -2]

    def test_irrational_eigenvalues_reported_as_floats(self, capsys, tmp_path):
        spec = write_json(tmp_path, "c5.json", graph_doc([5], [(1,), (4,)]))
        code, out, _ = run(capsys, ["spectrum", spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["integral"] is False
        assert doc["eigenvalues"][0] == 2
        assert math.isclose(doc["eigenvalues"][1], 2 * math.cos(2 * math.pi / 5), abs_tol=1e-9)

    def test_large_non_integral_spectrum_is_bounded(self, capsys, tmp_path):
        # Z2 x Z20000, S = {(0, +-1), (1, 0)}: each float comes from the three
        # pairings of its element, with no count vector of length 20000.
        spec = write_json(tmp_path, "big.json", graph_doc([2, 20000], [(0, 1), (0, 19999), (1, 0)]))
        target = tmp_path / "out.json"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, _, _ = run(capsys, ["spectrum", spec, "-o", str(target)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert elapsed < 10.0
        assert peak < 64 * 2**20
        eigen = json.loads(target.read_text())["eigenvalues"]
        assert len(eigen) == 40000 and eigen[0] == 3.0
        # (1, 5000): -1 + i + (-i)
        assert math.isclose(eigen[20000 + 5000], -1.0, abs_tol=1e-9)

    def test_disconnected_still_reports(self, capsys, tmp_path):
        spec = write_json(tmp_path, "dis.json", graph_doc([2, 3], [(0, 1), (0, 2)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
            code, out, _ = run(capsys, ["spectrum", spec])
        assert code == 0
        assert json.loads(out)["degree"] == 2

    def test_output_file(self, capsys, prism_spec, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, ["spectrum", prism_spec, "-o", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["degree"] == 3

    def test_missing_file_is_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["spectrum", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in err

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, ["spectrum", str(path)])
        assert code == 2

    def test_invalid_set_is_exit_three(self, capsys, tmp_path):
        spec = write_json(tmp_path, "asym.json", graph_doc([9], [(1,)]))
        code, _, err = run(capsys, ["spectrum", spec])
        assert code == 3


class TestSearchCommand:
    def test_units_finds_revival(self, capsys, units_spec):
        code, out, _ = run(capsys, ["search", units_spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["fr_found"] is True
        assert len(doc["certificates"]) == 1
        assert doc["certificates"][0]["kind"] == "FR"

    def test_odd_group_finds_nothing(self, capsys, tmp_path):
        spec = write_json(tmp_path, "c9.json", graph_doc([9], [(1,), (8,)]))
        code, out, _ = run(capsys, ["search", spec])
        assert code == 1
        doc = json.loads(out)
        assert doc["fr_found"] is False
        assert doc["certificates"] == []

    def test_cube_classifies_without_fr(self, capsys, tmp_path):
        spec = write_json(
            tmp_path, "q3.json",
            graph_doc([2, 2, 2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        )
        code, out, _ = run(capsys, ["search", spec])
        assert code == 1
        doc = json.loads(out)
        kinds = {tuple(c["a"]): c["kind"] for c in doc["certificates"]}
        assert kinds[(1, 1, 1)] == "PST"
        assert doc["fr_found"] is False


class TestCheckCommand:
    def test_revival_found(self, capsys, units_spec):
        code, out, _ = run(capsys, ["check", units_spec, "--a", "1,0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "FR"
        assert doc["modulus"] == 3
        assert doc["valid_k"] == [1, 2]

    def test_absent_for_non_involution(self, capsys, units_spec):
        code, out, _ = run(capsys, ["check", units_spec, "--a", "0,3"])
        assert code == 1
        assert json.loads(out) == {"a": [0, 3], "kind": "ABSENT"}

    def test_pst_is_negative_exit(self, capsys, tmp_path):
        spec = write_json(tmp_path, "c4.json", graph_doc([4], [(1,), (3,)]))
        code, out, _ = run(capsys, ["check", spec, "--a", "2"])
        assert code == 1
        assert json.loads(out)["kind"] == "PST"

    def test_unparseable_element_is_exit_two(self, capsys, units_spec):
        code, _, err = run(capsys, ["check", units_spec, "--a", "1,zebra"])
        assert code == 2

    def test_wrong_length_element_is_exit_three(self, capsys, units_spec):
        code, _, err = run(capsys, ["check", units_spec, "--a", "1,0,0"])
        assert code == 3


class TestConstructCommand:
    def test_family_a(self, capsys, tmp_path):
        spec = write_json(
            tmp_path, "famA.json", {"variant": "RAMANUJAN_A", "p": 3, "r": 2, "H": []}
        )
        code, out, _ = run(capsys, ["construct", spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["group"] == [2, 9]
        assert doc["prediction"]["kind"] == "FR"
        assert "verification" not in doc

    def test_family_e_with_verification(self, capsys, tmp_path):
        spec = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        code, out, _ = run(capsys, ["construct", spec, "--verify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["pass"] is True
        assert doc["engine_agrees"] is True
        assert doc["prediction"]["modulus"] == 8

    def test_rejected_parameters_are_exit_four(self, capsys, tmp_path):
        spec = write_json(
            tmp_path, "bad.json", {"variant": "RAMANUJAN_A", "p": 3, "r": 1, "H": []}
        )
        code, _, err = run(capsys, ["construct", spec])
        assert code == 4
        assert "hypothesis" in err

    def test_nonpositive_tolerance_is_exit_three(self, capsys, tmp_path):
        spec = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        code, out, err = run(capsys, ["construct", spec, "--verify", "--tol", "-1"])
        assert code == 3
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "-inf"])
    def test_nonfinite_tolerance_is_exit_three(self, capsys, tmp_path, tol):
        # inf would pass any deviation and be written as the non-JSON
        # token Infinity; 1e400 parses to inf; -inf, which argparse would
        # read as an option, reaches the same check
        spec = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        target = tmp_path / "built.json"
        code, out, err = run(
            capsys, ["construct", spec, "--verify", "--tol", tol, "-o", str(target)]
        )
        assert (code, out) == (3, "")
        assert err == f"error: tolerance must be positive and finite, got {float(tol)}\n"
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["--t", "--to", "--tol"])
    @pytest.mark.parametrize("tol", ["-inf", "-1e-3"])
    def test_negative_tolerance_after_any_spelling_is_exit_three(
        self, capsys, tmp_path, flag, tol
    ):
        # argparse takes --t and --to for --tol; each reaches the check
        spec = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        code, out, err = run(capsys, ["construct", spec, "--verify", flag, tol])
        assert (code, out) == (3, "")
        assert err == f"error: tolerance must be positive and finite, got {float(tol)}\n"

    def test_unknown_variant_is_exit_two(self, capsys, tmp_path):
        spec = write_json(tmp_path, "odd.json", {"variant": "NOPE"})
        code, _, _ = run(capsys, ["construct", spec])
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        spec = write_json(
            tmp_path, "famB.json",
            {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [3, 2]]},
        )
        target = tmp_path / "built.json"
        code, out, _ = run(capsys, ["construct", spec, "-o", str(target)])
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["graph"]["group"] == [4, 9]

    def test_disconnected_warning_is_one_line_without_a_path(self, tmp_path):
        # Every element of S0 = S1 has equal first two coordinates, so the
        # graph is disconnected.  A fresh process, so that Python's own
        # warning filters apply; the stderr bytes must not depend on where
        # the package is installed.
        support = [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]]
        doc = {"variant": "CUBLIKE_D", "S0": support, "S1": support}
        spec = write_json(tmp_path, "famD.json", doc)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(fr.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "frcayley", "construct", spec, "-o", str(tmp_path / "b.json")],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            b"warning: connection set does not generate the group; the graph is disconnected\n"
        )


FAMILY_DOCUMENTS = st.one_of(
    st.builds(
        lambda p, r, h: {"variant": "RAMANUJAN_A", "p": p, "r": r, "H": h},
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=1, max_value=2),
        st.sampled_from([[], [3], [5], [2, 3]]),
    ).filter(  # N = 1 without both; the oracle's order cap
        lambda doc: (doc["r"] == 2 or doc["H"]) and 2 * doc["p"] ** doc["r"] * math.prod(doc["H"]) <= 256
    ),
    st.sampled_from(
        [
            {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [3, 2]]},
            {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 3], [5, 2]]},
            {"variant": "PLATEAUED_C", "H": [9], "S1": [[u] for u in UNITS_9]},
            {"variant": "PLATEAUED_C", "H": [27], "S1": [[u] for u in fr.units_mod(27)]},
            {"variant": "CUBLIKE_D", "S0": [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]],
             "S1": [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]]},
            {"variant": "BENT_E", "f": "7888"},
            {"variant": "BENT_E", "f": fr.mm_bent(6).to_hex()},
        ]
    ),
)


class TestConstructDocumentBytes:
    @given(FAMILY_DOCUMENTS, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_is_dump_json_of_the_graph_to_json_document(self, doc, verify):
        # the graph's set is written a row at a time; the bytes are those
        # of the document with graph_to_json's lists
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
            built = build_from_spec(doc)
            expected = {"graph": graph_to_json(built.graph), "prediction": built.prediction_document()}
            if verify:
                expected["verification"] = fr.verify_fr(built.graph, built.prediction).to_json()
                expected["engine_agrees"] = engine_agrees(built)
            with tempfile.TemporaryDirectory() as tmp:
                family = write_json(Path(tmp), "family.json", doc)
                out = Path(tmp) / "out.json"
                code = main(["construct", family, "-o", str(out), *(["--verify"] if verify else [])])
                assert out.read_text(encoding="utf-8") == dump_json(expected)
        assert code == (0 if not verify or (expected["verification"]["pass"] and expected["engine_agrees"]) else 1)


class TestVerifyCommand:
    def _write_pair(self, tmp_path, graph, witness):
        spec = write_json(tmp_path, "g.json", graph_to_json(graph))
        cert = write_json(tmp_path, "w.json", witness.to_json())
        return spec, cert

    def test_sound_certificate_passes(self, capsys, tmp_path, units_graph):
        spec, cert = self._write_pair(
            tmp_path, units_graph, decide_fr(units_graph, (1, 0))
        )
        code, out, _ = run(capsys, ["verify", spec, cert])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_deviation"] < 1e-12

    def test_perturbed_certificate_fails(self, capsys, tmp_path, units_graph):
        w = decide_fr(units_graph, (1, 0))
        doc = w.to_json()
        doc["k"] = 2  # invertible mod 3 and valid_k is retained, so the document parses
        doc["time"] = 4 * math.pi / 3  # kept consistent with k, so only H(t) can fail
        spec = write_json(tmp_path, "g.json", graph_to_json(units_graph))
        cert = write_json(tmp_path, "w.json", doc)
        code, out, _ = run(capsys, ["verify", spec, cert])
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["max_deviation"] > 0.1

    def test_boolean_target_is_malformed(self, capsys, tmp_path, units_graph):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        doc["a"] = [True, False]
        spec = write_json(tmp_path, "g.json", graph_to_json(units_graph))
        cert = write_json(tmp_path, "w.json", doc)
        code, out, err = run(capsys, ["verify", spec, cert])
        assert code == 2
        assert out == ""
        assert "'a'" in err

    def test_wrong_target_fails(self, capsys, tmp_path, units_graph):
        w = decide_fr(units_graph, (1, 0))
        doc = w.to_json()
        doc["a"] = [0, 3]
        spec = write_json(tmp_path, "g.json", graph_to_json(units_graph))
        cert = write_json(tmp_path, "w.json", doc)
        code, out, _ = run(capsys, ["verify", spec, cert])
        assert code == 1

    def test_malformed_certificate_is_exit_two(self, capsys, tmp_path, units_graph):
        w = decide_fr(units_graph, (1, 0))
        doc = w.to_json()
        del doc["modulus"]
        spec = write_json(tmp_path, "g.json", graph_to_json(units_graph))
        cert = write_json(tmp_path, "w.json", doc)
        code, _, _ = run(capsys, ["verify", spec, cert])
        assert code == 2

    def test_tolerance_flag(self, capsys, tmp_path, units_graph):
        spec, cert = self._write_pair(
            tmp_path, units_graph, decide_fr(units_graph, (1, 0))
        )
        code, out, _ = run(capsys, ["verify", spec, cert, "--tol", "1e-15"])
        doc = json.loads(out)
        assert doc["tolerance"] == 1e-15
        assert code == (0 if doc["pass"] else 1)


    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "-inf"])
    def test_nonfinite_tolerance_is_exit_three(self, capsys, tmp_path, units_graph, tol):
        spec, cert = self._write_pair(
            tmp_path, units_graph, decide_fr(units_graph, (1, 0))
        )
        target = tmp_path / "report.json"
        code, out, err = run(capsys, ["verify", spec, cert, "--tol", tol, "-o", str(target)])
        assert (code, out) == (3, "")
        assert err == f"error: tolerance must be positive and finite, got {float(tol)}\n"
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["--t", "--to", "--tol"])
    @pytest.mark.parametrize("tol", ["-inf", "-1e-3"])
    def test_negative_tolerance_after_any_spelling_is_exit_three(
        self, capsys, tmp_path, units_graph, flag, tol
    ):
        spec, cert = self._write_pair(
            tmp_path, units_graph, decide_fr(units_graph, (1, 0))
        )
        code, out, err = run(capsys, ["verify", spec, cert, flag, tol])
        assert (code, out) == (3, "")
        assert err == f"error: tolerance must be positive and finite, got {float(tol)}\n"

    def test_tolerance_followed_by_an_option_is_a_usage_error(
        self, capsys, tmp_path, units_graph
    ):
        # only a number is joined to --tol: "-o" stays an option, so --tol
        # has no value, as before
        spec, cert = self._write_pair(
            tmp_path, units_graph, decide_fr(units_graph, (1, 0))
        )
        with pytest.raises(SystemExit) as exc:
            main(["verify", spec, cert, "--tol", "-o", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_zero_tolerance_is_exit_three(self, capsys, tmp_path, units_graph):
        spec, cert = self._write_pair(
            tmp_path, units_graph, decide_fr(units_graph, (1, 0))
        )
        code, out, err = run(capsys, ["verify", spec, cert, "--tol", "0"])
        assert code == 3
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("kind",), "PST"),
            (("valid_k",), [1, 2, 3, 4, 5, 99]),
            (("time",), 123.0),
            (("alpha", "re"), 9.0),
            (("beta", "im"), float("nan")),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else None,
    )
    def test_contradicting_field_is_exit_two(self, capsys, tmp_path, units_graph, path, value):
        doc = replaced(decide_fr(units_graph, (1, 0)).to_json(), path, value)
        spec = write_json(tmp_path, "g.json", graph_to_json(units_graph))
        cert = write_json(tmp_path, "w.json", doc)
        code, out, err = run(capsys, ["verify", spec, cert])
        assert code == 2
        assert out == ""
        assert repr(path[0]) in err


class TestBoolfnCommand:
    def test_bent_function(self, capsys):
        code, out, _ = run(capsys, ["boolfn", "--truth-table", "7888"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 4, "hex": "7888", "weight": 6, "class": "BENT"}

    def test_report_sections(self, capsys):
        code, out, _ = run(capsys, ["boolfn", "--truth-table", "7888", "--report"])
        assert code == 0
        doc = json.loads(out)
        assert sorted(map(tuple, doc["support"])) == sorted(BENT4_SUPPORT)
        assert doc["support_size"] == 6
        assert set(doc["distinct_walsh"]) == {4, -4}
        assert doc["eigenvalues"][0] == 6
        assert set(doc["eigenvalues"][1:]) == {2, -2}

    def test_neither_is_negative_exit(self, capsys):
        code, out, _ = run(capsys, ["boolfn", "--truth-table", "ff"])
        assert code == 1
        assert json.loads(out)["class"] == "NEITHER"

    def test_bad_hex_is_exit_two(self, capsys):
        code, _, err = run(capsys, ["boolfn", "--truth-table", "zzz"])
        assert code == 2

    def test_bad_length_is_exit_two(self, capsys):
        code, _, _ = run(capsys, ["boolfn", "--truth-table", "788"])
        assert code == 2


class TestPlateauedCommand:
    def _units_doc(self):
        values = [0] * 9
        for u in UNITS_9:
            values[u] = 1
        return {"group": [9], "values": values}

    def test_plateaued_function(self, capsys, tmp_path):
        path = write_json(tmp_path, "fn.json", self._units_doc())
        code, out, _ = run(capsys, ["plateaued", path, "--p", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["plateaued"] is True
        assert doc["level"] == {"k": 0, "r": 1}

    def test_wrong_prime_is_negative_exit(self, capsys, tmp_path):
        path = write_json(tmp_path, "fn.json", self._units_doc())
        code, out, _ = run(capsys, ["plateaued", path, "--p", "2"])
        assert code == 1
        assert json.loads(out)["level"] is None

    def test_non_class_function_is_exit_three(self, capsys, tmp_path):
        doc = {"group": [9], "values": [0, 1] + [0] * 7}
        path = write_json(tmp_path, "fn.json", doc)
        code, _, _ = run(capsys, ["plateaued", path, "--p", "3"])
        assert code == 3

    def test_non_class_function_names_two_values_on_one_orbit(self, capsys, tmp_path):
        # f is 2 at 1, 2, 4, 5 and 7 but 3 at 8 = 8 * 1, all of one orbit
        doc = {"group": [9], "values": [0, 2, 2, 0, 2, 2, 0, 2, 3]}
        path = write_json(tmp_path, "fn.json", doc)
        code, out, err = run(capsys, ["plateaued", path, "--p", "3"])
        assert (code, out) == (3, "")
        assert err == (
            "error: the function is not constant on unit-multiplication orbits: "
            "it is 2 at (1,) but 3 at (8,) = 8 * (1,)\n"
        )

    def test_missing_values_key_is_exit_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "fn.json", {"group": [9]})
        code, _, _ = run(capsys, ["plateaued", path, "--p", "3"])
        assert code == 2

    def test_p_below_two_is_exit_three(self, capsys, tmp_path):
        path = write_json(tmp_path, "fn.json", self._units_doc())
        code, _, _ = run(capsys, ["plateaued", path, "--p", "1"])
        assert code == 3


class TestLargePlateauedGroup:
    """Builder C and `plateaued` on large groups.  On H = Z_4096 with S1 the
    2048 units, the closure and class-function checks walk unit orbits, and
    the transform is one Ramanujan row per orbit (c_4096 takes 2048, 0 and
    -2048)."""

    UNITS = [[u] for u in range(1, 4096, 2)]

    def test_builder_c_within_two_seconds(self, capsys, tmp_path):
        doc = {"variant": "PLATEAUED_C", "H": [4096], "S1": self.UNITS}
        path = write_json(tmp_path, "family.json", doc)
        start = time.perf_counter()
        code, out, _ = run(capsys, ["construct", path])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        doc = json.loads(out)
        assert doc["prediction"]["modulus"] == 2 * 2**11
        assert doc["prediction"]["label"] == "plateaued H=[4096] |S1|=2048 p=2 r0=11"

    def test_plateaued_within_two_seconds(self, capsys, tmp_path):
        values = [u % 2 for u in range(4096)]
        path = write_json(tmp_path, "fn.json", {"group": [4096], "values": values})
        start = time.perf_counter()
        code, out, _ = run(capsys, ["plateaued", path, "--p", "2"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert json.loads(out)["level"] == {"k": 0, "r": 11}

    def test_plateaued_on_a_cube_within_two_seconds(self, capsys, tmp_path):
        # On (Z2)^14 every element is its own unit orbit; the transform of
        # x -> popcount(x) mod 2 is 8192 at 0, -8192 at the all-ones vector.
        values = [bin(x).count("1") % 2 for x in range(1 << 14)]
        path = write_json(tmp_path, "fn.json", {"group": [2] * 14, "values": values})
        start = time.perf_counter()
        code, out, _ = run(capsys, ["plateaued", path, "--p", "2"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert json.loads(out)["level"] == {"k": 0, "r": 13}


class TestParserReuse:
    """The parser is built once per process; no option of one call leaks
    into the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()
        parser, commands = build_parser()
        assert sorted(commands) == [
            "boolfn", "check", "construct", "plateaued", "search", "spectrum", "verify"
        ]

    def test_options_do_not_carry_over(self, capsys, tmp_path, units_spec):
        family = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        target = tmp_path / "built.json"
        code, out, _ = run(
            capsys, ["construct", family, "--verify", "--tol", "1e-6", "-o", str(target)]
        )
        assert (code, out) == (0, "")
        built = json.loads(target.read_text())
        assert built["verification"]["tolerance"] == 1e-6

        code, out, _ = run(capsys, ["search", units_spec])
        assert code == 0 and json.loads(out)["fr_found"] is True
        code, out, _ = run(capsys, ["construct", family])
        assert code == 0 and "verification" not in json.loads(out)

        graph = write_json(tmp_path, "g.json", built["graph"])
        cert = write_json(tmp_path, "c.json", built["prediction"])
        code, out, _ = run(capsys, ["verify", graph, cert, "--tol", "0.5"])
        assert code == 0 and json.loads(out)["tolerance"] == 0.5
        code, out, _ = run(capsys, ["verify", graph, cert])
        assert code == 0 and json.loads(out)["tolerance"] == 1e-9


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsedOnce:
    """A command line that names a subcommand is parsed by that
    subcommand's parser alone; every other one by the top-level parser.
    Both give what the top-level parser alone gives."""

    @pytest.fixture()
    def cases(self, tmp_path, units_spec):
        family = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        return {
            "unrecognized": ["search", units_spec, "--bogus"],
            "two unrecognized": ["search", units_spec, "--bogus", "x"],
            "no arguments": [],
            "unknown command": ["bogus", "x"],
            "subcommand help": ["search", "-h"],
            "top-level help": ["-h"],
            "missing positional": ["search"],
            "missing option": ["check", units_spec],
            "negative tolerance": ["construct", family, "--verify", "--tol", "-inf"],
            "run": ["search", units_spec],
        }

    def test_both_routes_give_the_same_bytes(self, capsys, monkeypatch, cases):
        once = {name: outcome(capsys, argv) for name, argv in cases.items()}
        parser = build_parser()[0]
        monkeypatch.setattr(cli, "_parse", parser.parse_args)
        assert {name: outcome(capsys, argv) for name, argv in cases.items()} == once

    def test_pinned_outcomes(self, capsys, cases, units_spec):
        usage = "usage: fr [-h] {spectrum,search,check,construct,verify,boolfn,plateaued} ...\n"
        assert outcome(capsys, cases["unrecognized"]) == (
            2, "", usage + "fr: error: unrecognized arguments: --bogus\n"
        )
        assert outcome(capsys, cases["two unrecognized"])[2].endswith(
            "fr: error: unrecognized arguments: --bogus x\n"
        )
        assert outcome(capsys, cases["no arguments"]) == (
            2, "", usage + "fr: error: the following arguments are required: command\n"
        )
        code, out, err = outcome(capsys, cases["unknown command"])
        assert (code, out) == (2, "") and err.startswith(usage)
        assert "fr: error: argument command: invalid choice: 'bogus'" in err
        code, out, err = outcome(capsys, cases["subcommand help"])
        assert (code, err) == (0, "") and out.startswith("usage: fr search [-h]")
        assert outcome(capsys, cases["missing positional"]) == (
            2,
            "",
            "usage: fr search [-h] [-o OUTPUT] spec\n"
            "fr search: error: the following arguments are required: spec\n",
        )
        assert outcome(capsys, cases["negative tolerance"]) == (
            3, "", "error: tolerance must be positive and finite, got -inf\n"
        )
        assert outcome(capsys, cases["run"])[0] == 0


class TestDeterminism:
    def test_spectrum_stdout_is_stable(self, capsys, units_spec):
        _, first, _ = run(capsys, ["spectrum", units_spec])
        _, second, _ = run(capsys, ["spectrum", units_spec])
        assert first == second

    def test_construct_output_file_is_byte_identical(self, capsys, tmp_path):
        spec = write_json(tmp_path, "famE.json", {"variant": "BENT_E", "f": "7888"})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["construct", spec, "--verify", "-o", str(a)])
        run(capsys, ["construct", spec, "--verify", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @given(JSON_DOCUMENTS)
    @settings(max_examples=300)
    def test_dump_json_is_the_indented_sorted_json_text(self, doc):
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert dump_json(doc) == expected

    def test_dump_json_writes_tuples_and_str_enums_as_json_does(self):
        doc = {"kind": fr.WitnessKind.FR, "a": (1, 0), "rows": ((0, 1), [True, 2])}
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert dump_json(doc) == expected

    @given(
        st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=2), max_size=7),
        st.lists(
            st.one_of(
                st.none(),
                st.dictionaries(st.text(min_size=1), JSON_DOCUMENTS, min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
        st.data(),
    )
    @settings(max_examples=200)
    def test_spliced_records_are_the_indented_sorted_json_text(self, choices, bodies, data):
        # Every non-empty key sorts after ""; bodies repeat by class, a
        # record whose body is None is left out, and the exact masks fall
        # anywhere: in the first block, at a tail of 0 or inside a block.
        t = sum(len(c) == 2 for c in choices)
        classes = st.integers(0, len(bodies) - 1)
        low = data.draw(st.lists(classes, min_size=t, max_size=t))
        exact = {}
        if t:
            exact = data.draw(st.dictionaries(st.integers(1, (1 << t) - 1), classes, max_size=4))
        doc = {"records": records_reference(choices, bodies, low, exact), "rest": bodies}
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        rest = dump_json({"rest": bodies})
        chunks = involution_records(rest, "records", "", choices, bodies, low, exact)
        assert "".join(chunks) == expected

    @pytest.mark.parametrize("body", [{}, {"a": 1}, {"A": 1, "b": 2}])
    def test_spliced_key_must_sort_first(self, body):
        with pytest.raises(ValueError, match="must sort before"):
            involution_records(dump_json({"b": 0}), "a", "a", [(0, 1)], [body], [0], {})

    @pytest.mark.parametrize("choices", [[(0, 1)], [(0,), (0, 1)], [(0, 1), (0,), (0, 1), (0, 1)]])
    def test_low_class_per_two_choice_factor(self, choices):
        # one low class per factor with two choices, checked before any chunk
        with pytest.raises(ValueError, match="two choices"):
            involution_records(dump_json({"b": 0}), "a", "", choices, [{"x": 1}], [0, 0], {})

    @given(st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=2), max_size=9))
    @settings(max_examples=200)
    def test_record_keys_are_the_product_in_order(self, choices):
        # one class for every record: the keys are the product of the
        # choices, in itertools.product order, less its first element
        t = sum(len(c) == 2 for c in choices)
        chunks = involution_records(dump_json({"b": 0}), "a", "", choices, [{"x": 0}], [0] * t, {})
        expected = [{"": list(c), "x": 0} for c in itertools.product(*choices)][1:]
        doc = {"a": expected, "b": 0}
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert "".join(chunks) == expected

    @pytest.mark.parametrize("t", [10, 11])
    def test_records_stream_in_blocks(self, t):
        # 2^t - 1 records in 2^(t - t // 2) blocks, each one chunk, so no
        # chunk holds more than a block, plus one separator per block
        body = {"x": list(range(8))}
        chunks = list(
            involution_records(dump_json({"b": 0}), "a", "", [(0, 1)] * t, [body], [0] * t, {})
        )
        blocks = 1 << (t - t // 2)
        assert len(chunks) == 2 * blocks + 2
        records = json.loads("".join(chunks))["a"]
        assert len(records) == (1 << t) - 1
        assert max(map(len, chunks)) < 2 * len("".join(chunks)) / blocks

    @given(
        st.dictionaries(
            st.text(max_size=3).filter(lambda key: key < "set"),
            JSON_DOCUMENTS,
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 4).flatmap(
            lambda r: st.lists(
                st.tuples(*[st.integers(0, 2**40) | st.integers(10**6, 10**7)] * r),
                max_size=6,
            )
        ),
    )
    @settings(max_examples=200)
    def test_appended_int_rows_are_the_indented_sorted_json_text(self, rest, rows):
        # IntRows as the last key: one-factor rows, the edgeless set and
        # coordinates >= 10^6 included
        doc = {**rest, "set": [list(r) for r in rows]}
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert dump_json({**rest, "set": IntRows(rows)}) == expected

    @given(
        st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), min_size=1, max_size=3).filter(
            lambda orders: math.prod(orders) <= 200
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.dictionaries(st.text(max_size=3), JSON_DOCUMENTS, max_size=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_int_rows_are_the_graph_set_at_any_depth(self, orders, seed, rest, depth):
        # a unit-closed set as IntRows, nested `depth` lists deep, renders
        # as graph_to_json's list of lists does
        group = fr.make_group(orders)
        graph = fr.CayleyGraph(
            group, fr.validate_connection_set(random_unit_closed_set(group, random.Random(seed)), group)
        )
        rows = {"group": list(orders), "set": IntRows(graph.connection.elements)}
        listed = graph_to_json(graph)
        for _ in range(depth):
            rows, listed = [rows], [listed]
        expected = json.dumps({**rest, "graph": listed}, indent=2, sort_keys=True, ensure_ascii=False)
        assert dump_json({**rest, "graph": rows}) == expected + "\n"

    @pytest.mark.parametrize(
        "command, doc",
        [
            pytest.param(command, doc, id=f"{command}-{name}")
            for command in ("spectrum", "search")
            for name, doc in [
                ("integral", graph_doc([2, 9], UNITS_SET)),
                ("non-integral", {"group": [7], "set": [[1], [6]]}),
                ("edgeless", {"group": [2, 3], "set": []}),
            ]
        ]
        # non-integral, so search answers from S alone at the order ceiling
        + [
            pytest.param(
                "search",
                {"group": [1048576], "set": [[1000001], [48575]]},
                id="search-large-coordinates",
            )
        ],
    )
    def test_set_echo_is_the_indented_sorted_json_text(self, capsys, tmp_path, command, doc):
        path = write_json(tmp_path, "doc.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
            code, out, _ = run(capsys, [command, path])
        assert code in (0, 1)
        parsed = json.loads(out)
        assert parsed["set"] == sorted(parsed["set"])
        assert out == json.dumps(parsed, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def records_reference(choices, bodies, low, exact) -> list[dict]:
    """The records involution_records writes, one element of the product
    of the choices at a time: its mask has a bit per factor with two
    choices, the first most significant, and its class is exact[mask], or
    low[i] with 2^i the lowest set bit of the mask."""
    records = []
    for picks in itertools.product(*(range(len(c)) for c in choices)):
        mask = 0
        for c, j in zip(choices, picks):
            if len(c) == 2:
                mask = 2 * mask + j
        if mask:
            body = bodies[exact.get(mask, low[(mask & -mask).bit_length() - 1])]
            if body is not None:
                records.append({"": [c[j] for c, j in zip(choices, picks)], **body})
    return records


def search_reference(doc: dict) -> str:
    """The text `fr search` must write for a graph document: json.dumps of
    the document built from search_all and FRWitness.to_json."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
        graph = fr.graph_from_json(doc)
    results = fr.search_all(graph)
    document = {
        "group": list(graph.group.orders),
        "set": [list(s) for s in graph.connection],
        "fr_found": any(w.kind is fr.WitnessKind.FR for _, w in results),
        "certificates": [w.to_json() for _, w in results],
    }
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def search_outputs(doc: dict) -> tuple[int, str, str]:
    """`fr search` on a graph document: exit code, -o file text, stdout."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
        spec = write_json(Path(tmp), "graph.json", doc)
        out = Path(tmp) / "out.json"
        code = main(["search", spec, "-o", str(out)])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            again = main(["search", spec])
        assert again == code
        return code, out.read_text(encoding="utf-8"), stdout.getvalue()


@st.composite
def unit_closed_ring_graphs(draw):
    """Z_m, Z2 x Z_m or Z4 x Z_m with a random union of unit orbits."""
    orders = draw(st.sampled_from([(), (2,), (4,)])) + (draw(st.integers(2, 24)),)
    rng = draw(st.randoms(use_true_random=False))
    prob = draw(st.sampled_from([0.2, 0.5, 0.9]))
    return graph_doc(orders, random_unit_closed_set(fr.make_group(orders), rng, prob))


@st.composite
def random_cube_graphs(draw):
    """(Z2)^t, t <= 7, with a random set of nonzero elements."""
    group = fr.make_group([2] * draw(st.integers(1, 7)))
    ranks = draw(st.sets(st.integers(1, group.n - 1), max_size=group.n - 1))
    return graph_doc(group.orders, [group.unrank(r) for r in sorted(ranks)])


# Z4 x Z4 x Z2 with seven involutions in four (m, delta) classes
FOUR_CLASSES = graph_doc(
    [4, 4, 2],
    [
        (0, 1, 1), (0, 2, 0), (0, 3, 1), (1, 1, 1), (1, 2, 1), (2, 1, 0),
        (2, 1, 1), (2, 2, 1), (2, 3, 0), (2, 3, 1), (3, 2, 1), (3, 3, 1),
    ],
)


class TestSearchBytes:
    """`fr search` renders each distinct certificate body once and writes
    the records block by block; the bytes it writes must be those of
    json.dumps, to a file and to stdout alike."""

    # name: (graph, kinds of its certificates, number of distinct bodies)
    CASES = {
        "odd order": (graph_doc([9], [(u,) for u in UNITS_9]), [], 0),
        "non-integral": (graph_doc([8], [(1,), (7,)]), [], 0),
        "edgeless": (graph_doc([2, 2], []), [], 0),
        "PST only, one factor": (graph_doc([4], [(1,), (3,)]), ["PST"], 1),
        "PERIODIC only, one factor": (graph_doc([8], [(i,) for i in range(1, 8)]), ["PERIODIC"], 1),
        "PERIODIC only, cube": (
            graph_doc([2, 2], [(0, 1), (1, 0), (1, 1)]), ["PERIODIC"] * 3, 1,
        ),
        "FR, one factor": (graph_doc([2], [(1,)]), ["FR"], 1),
        "two bodies, ring": (
            graph_doc([2, 4], [(0, 1), (0, 3), (1, 0)]), ["PERIODIC", "PERIODIC", "PST"], 2,
        ),
        "two bodies, cube": (
            graph_doc([2, 2, 2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            ["PERIODIC"] * 6 + ["PST"],
            2,
        ),
        "four classes, ring": (
            FOUR_CLASSES, ["PERIODIC"] * 4 + ["PST"] + ["PERIODIC"] * 2, 2,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_case(self, case):
        doc, kinds, bodies = self.CASES[case]
        expected = search_reference(doc)
        certificates = json.loads(expected)["certificates"]
        assert [c["kind"] for c in certificates] == kinds
        assert len({json.dumps({**c, "a": None}) for c in certificates}) == bodies
        assert search_outputs(doc) == (0 if "FR" in kinds else 1, expected, expected)

    def test_classes_interleave(self):
        # four (m, delta) classes over seven involutions, two of them
        # rendering the same body: the three lowest bits, and the candidate
        # mask 5 in the head block 2 (t = 3, one tail bit).  Each record must
        # take its own class's text.
        graph = fr.graph_from_json(FOUR_CLASSES)
        classes = fr.search_classes(graph)
        assert classes.low == [1, 2, 3] and classes.exact == {5: 0}
        assert [classes.of(mask) for mask in range(1, 8)] == [1, 2, 1, 3, 0, 2, 1]
        assert len(classes.fields) == 4 and len(set(classes.fields)) == 2
        kinds = [c["kind"] for c in json.loads(search_reference(FOUR_CLASSES))["certificates"]]
        assert kinds[4] == "PST" and kinds.count("PST") == 1

    # (t, ranks of the set, a candidate mask whose body is not its lowest
    # bit's): one in the first block, one inside a later block, and two at
    # the record of tail 0 of a block, for t odd and even
    CANDIDATES = {
        "first block": (5, [2, 3, 4, 5, 6, 7, 10, 11, 14, 17, 19, 20, 22, 23, 26], 3),
        "inside a block": (5, [1, 2, 3, 4, 5, 14, 15, 16, 18, 20, 21, 22, 25, 26, 27], 13),
        "tail 0, t odd": (5, [1, 2, 6, 7, 10, 11, 14, 15, 16, 19, 22, 23, 24, 25, 29], 28),
        "tail 0, t even": (
            6, [1, 4, 13, 16, 17, 22, 29, 31, 33, 37, 41, 43, 51, 52, 55, 58, 62, 63], 16,
        ),
    }

    @pytest.mark.parametrize("case", CANDIDATES)
    def test_candidate_mask_takes_its_own_body(self, case):
        t, ranks, mask = self.CANDIDATES[case]
        group = fr.make_group([2] * t)
        doc = graph_doc(group.orders, [group.unrank(r) for r in ranks])
        classes = fr.search_classes(fr.graph_from_json(doc))
        b = t // 2
        block, tail = mask >> b, mask & ((1 << b) - 1)
        assert (block == 0, tail == 0) == (case == "first block", case.startswith("tail 0"))
        own = classes.fields[classes.exact[mask]]
        lowest = classes.fields[classes.low[(mask & -mask).bit_length() - 1]]
        assert own is not None and own != lowest
        expected = search_reference(doc)
        assert search_outputs(doc)[1:] == (expected, expected)

    @pytest.mark.parametrize("t", range(1, 13))
    def test_cubes_of_every_split(self, t):
        # t // 2 tail bits: every split of the mask into head and tail
        group = fr.make_group([2] * t)
        size = min(group.n - 1, 3 * t)
        ranks = random.Random(t).sample(range(1, group.n), size)
        doc = graph_doc(group.orders, [group.unrank(r) for r in sorted(ranks)])
        expected = search_reference(doc)
        assert len(json.loads(expected)["certificates"]) == group.n - 1
        code, written, printed = search_outputs(doc)
        assert written == printed == expected

    @pytest.mark.parametrize("t", [1, 5])
    def test_edgeless_cube(self, t):
        # every involution without a witness: an empty list, at any split
        doc = graph_doc([2] * t, [])
        expected = search_reference(doc)
        assert json.loads(expected)["certificates"] == []
        assert search_outputs(doc) == (1, expected, expected)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "orders",
        [[2, 3, 4], [6, 5, 2], [4, 9, 8], [2, 2, 6, 3], [2, 3, 2, 5, 2], [3, 2, 2]],
        ids=str,
    )
    def test_odd_factors_between_even_ones(self, orders, seed):
        # a-coordinates m/2 > 1 on the even factors, 0 on the odd ones
        group = fr.make_group(orders)
        doc = graph_doc(orders, random_unit_closed_set(group, random.Random(seed), 0.6))
        expected = search_reference(doc)
        assert len(json.loads(expected)["certificates"]) == len(group.involutions())
        code, written, printed = search_outputs(doc)
        assert written == printed == expected

    @pytest.mark.parametrize("t, size", [(8, 24), (8, 128), (9, 40), (9, 300)])
    def test_large_cubes(self, t, size):
        # 255 and 511 certificates pin the order of the a-text product
        group = fr.make_group([2] * t)
        ranks = random.Random(t * size).sample(range(1, group.n), size)
        doc = graph_doc(group.orders, [group.unrank(r) for r in sorted(ranks)])
        expected = search_reference(doc)
        assert len(json.loads(expected)["certificates"]) == group.n - 1
        code, written, printed = search_outputs(doc)
        assert written == printed == expected

    @given(st.one_of(unit_closed_ring_graphs(), random_cube_graphs()))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, doc):
        expected = search_reference(doc)
        code, written, printed = search_outputs(doc)
        assert written == printed == expected
        assert code == (0 if json.loads(expected)["fr_found"] else 1)


class TestPipelineClosure:
    FAMILIES = [
        {"variant": "RAMANUJAN_A", "p": 3, "r": 2, "H": []},
        {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [3, 2]]},
        {"variant": "PLATEAUED_C", "H": [9], "S1": [[u] for u in UNITS_9]},
        {
            "variant": "CUBLIKE_D",
            "S0": [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]],
            "S1": [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]],
        },
        {"variant": "BENT_E", "f": "7888"},
    ]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f["variant"])
    def test_construct_then_search_then_verify(self, capsys, tmp_path, family):
        # construct emits a graph + certificate; search must rediscover an
        # FR involution; verify must accept the emitted certificate.
        fam_path = write_json(tmp_path, "family.json", family)
        built_path = tmp_path / "built.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fr.DisconnectedGraphWarning)
            code, _, _ = run(capsys, ["construct", fam_path, "-o", str(built_path)])
            assert code == 0
            built = json.loads(built_path.read_text())

            spec_path = write_json(tmp_path, "graph.json", built["graph"])
            cert = {
                key: built["prediction"][key]
                for key in (
                    "a", "kind", "k", "modulus", "rho0", "rho1",
                    "time", "alpha", "beta", "valid_k",
                )
            }
            cert_path = write_json(tmp_path, "cert.json", cert)

            code, out, _ = run(capsys, ["search", spec_path])
            assert code == 0
            assert json.loads(out)["fr_found"] is True

            code, out, _ = run(capsys, ["verify", spec_path, cert_path])
            assert code == 0
            assert json.loads(out)["pass"] is True


UNITS_DOC = graph_doc([2, 9], UNITS_SET)
UNITS_FN = {"group": [9], "values": [0, 1, 1, 0, 1, 1, 0, 1, 1]}


class TestFirstFaultOfTheGraphSpec:
    """A graph spec with several faults exits on the first of: a
    wrong-typed row (2), the group (3), a short or long row (2), the zero
    element (3), an asymmetric element (3), with the same one line on
    stderr from every command that reads it."""

    @pytest.mark.parametrize(
        "doc, code, line",
        [case[1:] for case in GRAPH_SPEC_FAULTS],
        ids=[case[0] for case in GRAPH_SPEC_FAULTS],
    )
    @pytest.mark.parametrize("argv", [["spectrum"], ["search"], ["check", "--a", "1,0"]])
    def test_exit_code_and_message(self, capsys, tmp_path, doc, code, line, argv):
        path = write_json(tmp_path, "doc.json", doc)
        assert run(capsys, [argv[0], path, *argv[1:]]) == (code, "", line + "\n")


class TestUndecodableFile:
    """A file that JSON cannot decode, as text, for its depth or for an
    integer literal past the interpreter's digit limit, is malformed input:
    exit 2 and one `error:` line naming the file, never a traceback."""

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b"[" * 200000, "maximum recursion depth exceeded"),
            (b'\xff{"group": [2], "set": []}', "can't decode byte 0xff"),
            (b'{"group": [2], "set": [[' + b"1" * 5000 + b"]]}", "Exceeds the limit"),
        ],
        ids=["nested", "not-utf-8", "integer-of-5000-digits"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "{}"],
            ["search", "{}"],
            ["check", "{}", "--a", "1,0"],
            ["verify", "{}", "{units}"],
            ["verify", "{units}", "{}"],
            ["construct", "{}"],
            ["plateaued", "{}", "--p", "3"],
        ],
        ids=["spectrum", "search", "check", "verify-spec", "verify-cert", "construct", "plateaued"],
    )
    def test_exit_two_with_one_line(self, capsys, tmp_path, units_spec, content, fragment, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, [a.format(str(path), units=units_spec) for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
        assert fragment in err


class TestWrongTypedFields:
    """Each input document is read strictly: a JSON value of the wrong type
    (a bool or float where an integer belongs, a scalar where a list does)
    is malformed input, exit 2, never a truncation or a traceback."""

    @pytest.mark.parametrize(
        "argv, doc, field",
        [
            (["spectrum"], replaced(UNITS_DOC, ("set", 6), [True, False]), "set"),
            (["construct"], {"variant": "RAMANUJAN_A", "p": 3.7, "r": 2, "H": []}, "p"),
            (["construct"], {"variant": "RAMANUJAN_A", "p": "x", "r": 2, "H": []}, "p"),
            (["construct"], {"variant": "RAMANUJAN_A", "p": None, "r": 2, "H": []}, "p"),
            (["construct"], {"variant": "RAMANUJAN_A", "p": 3, "r": 2, "H": 5}, "H"),
            (["construct"], {"variant": "MULTI_PRIME_B", "prime_powers": 5}, "prime_powers"),
            (["construct"], {"variant": "BENT_E", "f": 7888}, "f"),
            (["plateaued", "--p", "3"], replaced(UNITS_FN, ("values", 8), 1.5), "values"),
            (["plateaued", "--p", "3"], replaced(UNITS_FN, ("values", 1), True), "values"),
        ],
    )
    def test_exit_two(self, capsys, tmp_path, argv, doc, field):
        path = write_json(tmp_path, "doc.json", doc)
        code, out, err = run(capsys, [argv[0], path, *argv[1:]])
        assert code == 2
        assert out == ""
        assert repr(field) in err
        assert "Traceback" not in err


HUGE_PRIME = 1000000000000000003


class TestGroupOrderCeiling:
    """Groups above MAX_GROUP_ORDER are refused up front (exit 3) instead of
    being enumerated, and family parameters before any primality test or
    power runs on them."""

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (
                ["check", "--a", "1,0"],
                {"group": [2, 10**9], "set": [[0, 1], [0, 10**9 - 1], [1, 0]]},
            ),
            (["construct"], {"variant": "RAMANUJAN_A", "p": 10007, "r": 3}),
            (["construct"], {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [10007, 2]]}),
            (["construct"], {"variant": "RAMANUJAN_A", "p": HUGE_PRIME, "r": 1}),
            (["construct"], {"variant": "RAMANUJAN_A", "p": 3, "r": 100000000}),
            (["construct"], {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [HUGE_PRIME, 1]]}),
            # a 2^20-bit table: (Z2)^21, refused before the table is decoded
            (["construct"], {"variant": "BENT_E", "f": "7888" * 2**16}),
            # p above the ceiling is refused before it is trial-divided, whatever r is
            (["construct"], {"variant": "RAMANUJAN_A", "p": HUGE_PRIME, "r": 0}),
            (["construct"], {"variant": "RAMANUJAN_A", "p": HUGE_PRIME, "r": -1}),
            (["construct"], {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [HUGE_PRIME, 0]]}),
            # more than 20 bits is refused before a list of n factors is built
            (["construct"], {"variant": "CUBLIKE_D", "S0": [], "S1": [], "n": 21}),
            (["construct"], {"variant": "CUBLIKE_D", "S0": [], "S1": [], "n": 10**12}),
        ],
        ids=[
            "graph", "family-A", "family-B", "family-A-huge-p", "family-A-huge-r",
            "family-B-huge-p", "family-E-huge-table", "family-A-huge-p-r-zero",
            "family-A-huge-p-r-negative", "family-B-huge-p-r-zero", "family-D-21-bits",
            "family-D-huge-n",
        ],
    )
    def test_exit_three_within_a_second(self, capsys, tmp_path, argv, doc):
        path = write_json(tmp_path, "doc.json", doc)
        start = time.perf_counter()
        code, out, err = run(capsys, [argv[0], path, *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "ceiling" in err


def test_huge_plateau_prime_is_exit_four_within_a_second(capsys, tmp_path):
    # d1 % p is tested before any trial division of p
    doc = {"variant": "PLATEAUED_C", "H": [9], "S1": [[u] for u in UNITS_9], "p": HUGE_PRIME}
    path = write_json(tmp_path, "family.json", doc)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["construct", path])
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""


class TestForgedValidK:
    def test_modulus_at_the_bound_is_cheap(self, capsys, tmp_path):
        graph = write_json(tmp_path, "g.json", graph_doc([2, 9], UNITS_SET))
        cert = write_json(
            tmp_path,
            "cert.json",
            {"a": [1, 0], "k": 1, "modulus": 8388608, "rho0": 0, "rho1": 1, "valid_k": [1]},
        )
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, ["verify", graph, cert])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "valid_k" in err
        assert elapsed < 0.5
        assert peak < 16 * 2**20

    def test_non_invertible_k_is_checked_against_every_valid_set(self, capsys, tmp_path):
        # gcd(k, modulus) = 3 leaves delta ambiguous, but no delta gives this list
        graph = write_json(tmp_path, "g.json", graph_doc([2, 9], UNITS_SET))
        cert = write_json(
            tmp_path,
            "cert.json",
            {"a": [1, 0], "k": 3, "modulus": 3, "rho0": 0, "rho1": 0, "valid_k": [0, -5, 7, 7]},
        )
        code, out, err = run(capsys, ["verify", graph, cert])
        assert code == 2
        assert out == ""
        assert "valid_k" in err

    def test_valid_set_no_delta_of_the_gap_gives_is_exit_two(self, capsys, tmp_path):
        # k * delta = 2 (mod 12) gives delta in {1, 7}, of step 6, not 3
        graph = write_json(tmp_path, "g.json", graph_doc([2, 9], UNITS_SET))
        cert = write_json(
            tmp_path,
            "cert.json",
            {"a": [1, 0], "k": 2, "modulus": 12, "rho0": 2, "rho1": 0,
             "valid_k": [1, 2, 4, 5, 7, 8, 10, 11]},
        )
        code, out, err = run(capsys, ["verify", graph, cert])
        assert code == 2
        assert out == ""
        assert "'valid_k'" in err

    def test_phase_gap_no_delta_gives_is_exit_two(self, capsys, tmp_path):
        # 2 * delta = 1 (mod 4) has no solution; the dense check would only fail
        graph = write_json(tmp_path, "g.json", graph_doc([2, 9], UNITS_SET))
        cert = write_json(
            tmp_path,
            "cert.json",
            {"a": [1, 0], "k": 2, "modulus": 4, "rho0": 1, "rho1": 0, "valid_k": []},
        )
        code, out, err = run(capsys, ["verify", graph, cert])
        assert code == 2
        assert out == ""
        assert "'rho0'" in err


@pytest.mark.parametrize("orders", [[2, 1024], [2, 20000]])
def test_verify_above_the_dense_cap_is_exit_three_at_once(capsys, tmp_path, orders):
    # n = 2048 and n = 40000: the order cap comes before any n x n array
    m = orders[1]
    graph = write_json(tmp_path, "g.json", graph_doc(orders, [(0, 1), (0, m - 1), (1, 0)]))
    witness = {"a": [1, 0], "k": 1, "modulus": 4, "rho0": 0, "rho1": 1}
    cert = write_json(tmp_path, "cert.json", witness)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", graph, cert])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "dense oracle limited" in err
    assert elapsed < 1.0
    assert peak < 16 * 2**20


def _positions(node, prefix=()):
    """Paths to every field and list entry below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return []
    out = []
    for key, child in children:
        out.append(prefix + (key,))
        out.extend(_positions(child, prefix + (key,)))
    return out


UNITS_CERT = decide_fr(make_graph([2, 9], UNITS_SET), (1, 0)).to_json()

# Each subcommand that reads a document, with small valid inputs (n <= 64).
FUZZ_CASES = {
    "spectrum": (["spectrum", "{0}"], [UNITS_DOC]),
    "search": (["search", "{0}"], [UNITS_DOC]),
    "check": (["check", "{0}", "--a", "1,0"], [UNITS_DOC]),
    "verify": (["verify", "{0}", "{1}"], [UNITS_DOC, UNITS_CERT]),
    "plateaued": (["plateaued", "{0}", "--p", "3"], [UNITS_FN]),
    **{
        f"construct-{family['variant']}": (["construct", "{0}", "--verify"], [family])
        for family in TestPipelineClosure.FAMILIES
    },
}

WRONG_TYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


@pytest.mark.parametrize("case", FUZZ_CASES)
@given(data=st.data())
def test_one_wrong_typed_value_never_escapes_the_exit_codes(case, data):
    argv, docs = FUZZ_CASES[case]
    which = data.draw(st.integers(0, len(docs) - 1))
    path = data.draw(st.sampled_from(_positions(docs[which])))
    docs = [replaced(doc, path, data.draw(WRONG_TYPED)) if i == which else doc
            for i, doc in enumerate(docs)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(str(Path(tmp) / f"doc{i}.json"))
            Path(paths[-1]).write_text(json.dumps(doc))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main([arg.format(*paths) for arg in argv])
    assert isinstance(code, int) and 0 <= code <= 4
