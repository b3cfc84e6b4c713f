"""Dense numerical oracle: walk matrices, verification, grid scanning."""

from __future__ import annotations

import ast
import cmath
import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import (
    FRWitness,
    OracleDimensionError,
    TransferMatrix,
    WitnessKind,
    build_cublike_family,
    character_table,
    decide_fr,
    eigenvalue_array,
    fr_grid_scan,
    make_group,
    search_all,
    spectrum,
    transfer_matrix,
    verify_fr,
)
from frcayley import oracle
from frcayley.boolfn import mm_bent, support
from frcayley.oracle import difference_rank_table
from helpers import graph_from_set, quiet_graph, random_symmetric_set, random_unit_closed_set
import reference
from reference import dense_expm_check, gram_defect, series_walk_matrix


class TestCharacterTable:
    @pytest.mark.parametrize("orders", [[2], [4], [2, 3], [3, 3], [2, 9]])
    def test_unitary_up_to_scale(self, orders):
        g = make_group(orders)
        x = character_table(g)
        gram = x @ x.conj().T
        assert np.allclose(gram, g.n * np.eye(g.n), atol=1e-9)

    @pytest.mark.parametrize("orders", [[2, 3], [3, 3], [2, 9]])
    def test_symmetric(self, orders):
        x = character_table(make_group(orders))
        assert np.allclose(x, x.T, atol=1e-12)

    def test_matches_exact_pairing(self):
        g = make_group([2, 9])
        x = character_table(g)
        elems = list(g.elements())
        for i in (0, 3, 11):
            for j in (0, 5, 17):
                expo = g.character_exponent(elems[i], elems[j])
                expected = cmath.exp(2j * cmath.pi * expo / g.exponent)
                assert abs(x[i, j] - expected) < 1e-12


@st.composite
def dense_orders(draw, max_factors=4):
    """Up to max_factors cyclic factors with product at most 256."""
    orders, budget = [], 256
    for _ in range(draw(st.integers(min_value=1, max_value=max_factors))):
        if budget < 2:
            break
        orders.append(draw(st.integers(min_value=2, max_value=budget)))
        budget //= orders[-1]
    return orders


def defect_tolerance(n):
    # Each Gram entry is a length-n dot product of columns of norm about 1,
    # so its rounding error is below n * eps / 2; two sums of the same H can
    # therefore disagree by n * eps, plus a few eps for the "- I" and the abs.
    return (n + 4) * np.finfo(np.float64).eps


@st.composite
def random_witness(draw, a):
    """A witness for a at a random time 2 pi k / modulus with random phases."""
    modulus = draw(st.integers(min_value=1, max_value=64))
    rho = st.integers(min_value=0, max_value=modulus - 1)
    k = draw(st.integers(min_value=1, max_value=modulus))
    return FRWitness(a, k, modulus, draw(rho), draw(rho), ())


@st.composite
def oracle_cases(draw):
    """A random unit-closed graph of order at most 256, and a witness that is
    genuine, tampered in (k, rho0), or aimed at a = 0 or at an element of
    order above 2 (one of order 2 when the group has none).  A graph where
    the drawn element has no certificate gets a witness at a random time."""
    group = make_group(draw(dense_orders()))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    graph = graph_from_set(group, random_unit_closed_set(group, rng))
    a = draw(st.sampled_from(group.involutions() or [group.zero]))
    witness = decide_fr(graph, a) if any(a) else None
    if witness is None:
        witness = draw(random_witness(a))
    kind = draw(st.sampled_from(["genuine", "tampered", "zero", "non-involution"]))
    if kind == "tampered":
        witness = dataclasses.replace(
            witness,
            k=draw(st.integers(min_value=1, max_value=witness.modulus)),
            rho0=draw(st.integers(min_value=0, max_value=witness.modulus - 1)),
        )
    elif kind == "zero":
        witness = dataclasses.replace(witness, a=group.zero)
    elif kind == "non-involution":
        others = [g for g in group.elements() if group.element_order(g) > 2]
        witness = dataclasses.replace(witness, a=draw(st.sampled_from(others or [a])))
    return graph, witness


def assert_tables_match_elementwise(orders):
    # The factor-by-factor tables equal, bit for bit, the per-element ones.
    G = make_group(orders)
    elems = list(G.elements())
    expo = np.array([[G.character_exponent(g, h) for h in elems] for g in elems], dtype=np.int64)
    assert np.array_equal(character_table(G), np.exp(2j * np.pi * expo / G.exponent))
    ranks = [[G.rank(G.add(g, G.neg(h))) for h in elems] for g in elems]
    assert np.array_equal(difference_rank_table(G), np.array(ranks, dtype=np.int64))


class TestDenseTables:
    @pytest.mark.parametrize("orders", [[2] * 8, [256], [2, 4, 25]])
    def test_named_groups(self, orders):
        assert_tables_match_elementwise(orders)

    @settings(max_examples=30, deadline=None)
    @given(dense_orders())
    def test_random_groups(self, orders):
        assert_tables_match_elementwise(orders)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTablesMatchTheReference:
    """The tables, H(t) and the report are the bits of the factor-by-factor
    build that puts each new factor on the inner axis (tests/reference.py)."""

    @pytest.mark.parametrize("orders", [[2] * 8, [256], [2, 4, 25], None])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, orders, data):
        if orders is None:
            orders = data.draw(dense_orders(max_factors=8))
        G = make_group(orders)
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        if data.draw(st.booleans()):
            conn = random_unit_closed_set(G, rng)
        else:
            conn = random_symmetric_set(G, rng, prob=data.draw(st.floats(0.0, 1.0)))
        graph = graph_from_set(G, conn)
        table = character_table(G)
        assert same_bits(table, reference.character_table(G))
        assert same_bits(difference_rank_table(G), reference.difference_rank_table(G))
        lam = reference.eigenvalue_array(graph)
        assert same_bits(eigenvalue_array(graph), lam)
        assert same_bits(eigenvalue_array(graph, table), lam)
        t = data.draw(st.floats(min_value=-1e3, max_value=1e3))
        assert same_bits(transfer_matrix(graph, t).entries, reference.transfer_matrix(graph, t).entries)
        a = data.draw(st.sampled_from(G.involutions() or [G.zero]))
        genuine = decide_fr(graph, a) if any(a) else None
        for w in filter(None, [data.draw(random_witness(a)), genuine]):
            report = verify_fr(graph, w).to_json()
            with mock.patch.object(oracle, "transfer_matrix", reference.transfer_matrix):
                expected = verify_fr(graph, w).to_json()
            assert json.dumps(report) == json.dumps(expected)


class TestEigenvalueArray:
    def test_matches_exact_spectrum(self, corpus):
        for name, graph in corpus:
            if graph.n > 64:
                continue
            lam = eigenvalue_array(graph)
            for i, z in enumerate(graph.group.elements()):
                exact = spectrum(graph).values[z].approx()
                assert abs(lam[i] - exact.real) < 1e-9, name

    def test_degree_at_zero(self, corpus):
        for name, graph in corpus:
            assert abs(eigenvalue_array(graph)[0] - graph.degree) < 1e-9, name


class TestTransferMatrix:
    def test_identity_at_time_zero(self, units_graph):
        h = transfer_matrix(units_graph, 0.0)
        assert np.allclose(h.entries, np.eye(units_graph.n), atol=1e-12)

    def test_unitarity(self, corpus):
        for name, graph in corpus:
            if graph.n > 64:
                continue
            h = transfer_matrix(graph, 0.7)
            assert h.unitarity_defect() < 1e-9, name

    @settings(max_examples=60, deadline=None)
    @given(dense_orders(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_unitarity_defect_reads_the_whole_gram(self, orders, seed):
        # Any matrix row0[D] is a function of differences; a random unit
        # row0 gives unit columns, so the Gram diagonal is 1 and only the
        # entries off it show the defect.
        G = make_group(orders)
        rng = np.random.default_rng(seed)
        row0 = rng.standard_normal(G.n) + 1j * rng.standard_normal(G.n)
        row0 /= np.linalg.norm(row0)
        entries = row0[difference_rank_table(G)]
        fast = TransferMatrix(G.n, 0.0, entries).unitarity_defect()
        assert abs(fast - gram_defect(entries)) <= defect_tolerance(G.n)

    def test_translation_invariance(self, prism_graph):
        # H(t)[g, h] depends only on g - h: check every pair against row 0.
        g = prism_graph.group
        h = transfer_matrix(prism_graph, 1.3).entries
        elems = list(g.elements())
        for i, gi in enumerate(elems):
            for j, gj in enumerate(elems):
                diff = g.rank(g.add(gi, g.neg(gj)))
                assert abs(h[i, j] - h[0, diff]) < 1e-12

    def test_row_sum_phase_identity(self, corpus):
        # Summing row 0 applies the walk to the all-ones vector, an
        # eigenvector with eigenvalue d: the sum is exp(i t d).
        t = 0.9
        for name, graph in corpus:
            if graph.n > 64:
                continue
            h = transfer_matrix(graph, t)
            total = h.entries[0, :].sum()
            assert abs(total - cmath.exp(1j * t * graph.degree)) < 1e-9, name

    def test_matches_full_eigenbasis_product(self):
        g = quiet_graph([2, 3], [(0, 1), (0, 2), (1, 0)])
        t = 0.37
        x = character_table(g.group) / math.sqrt(g.n)
        lam = eigenvalue_array(g)
        full = x @ np.diag(np.exp(1j * t * lam)) @ x.conj().T
        assert np.allclose(transfer_matrix(g, t).entries, full, atol=1e-10)

    def test_units_diagonal_at_revival_time(self, units_graph):
        h = transfer_matrix(units_graph, 2 * math.pi / 3).entries
        assert np.allclose(np.diag(h), -0.5, atol=1e-12)
        # Mass splits onto the involution partner with amplitude sqrt(3)/2.
        g = units_graph.group
        partner = g.rank((1, 0))
        assert abs(abs(h[0, partner]) - math.sqrt(3) / 2) < 1e-12
        others = [
            abs(h[0, j]) for j in range(g.n) if j not in (0, partner)
        ]
        assert max(others) < 1e-12

    def test_doubled_units_half_period_signs(self, doubled_units_graph):
        h1 = transfer_matrix(doubled_units_graph, math.pi / 3).entries
        h2 = transfer_matrix(doubled_units_graph, 2 * math.pi / 3).entries
        assert np.allclose(np.diag(h1), 0.5, atol=1e-12)
        assert np.allclose(np.diag(h2), -0.5, atol=1e-12)

    def test_dimension_guard(self):
        g = quiet_graph([2] * 9, [tuple(int(i == j) for i in range(9)) for j in range(9)])
        with pytest.raises(OracleDimensionError):
            transfer_matrix(g, 1.0)


class TestSeriesAgreement:
    def test_complete_graph_on_two_closed_form(self, k2):
        # With a single involution class, H(t) = cos(t) I + i sin(t) Q.
        t = math.pi / 4
        q = np.array([[0, 1], [1, 0]], dtype=float)
        expected = math.cos(t) * np.eye(2) + 1j * math.sin(t) * q
        assert np.max(np.abs(series_walk_matrix(k2, t) - expected)) < 1e-12
        assert dense_expm_check(k2, t) < 1e-10

    def test_prism_at_revival_time(self, prism_graph):
        assert dense_expm_check(prism_graph, 2 * math.pi / 3) < 1e-9

    def test_random_graph_random_time(self):
        rng = random.Random(5)
        group = make_group([2, 3])
        s = random_symmetric_set(group, rng, prob=0.6)
        graph = graph_from_set(group, s)
        assert dense_expm_check(graph, 1.0) < 1e-9

    def test_corpus_consistency(self, corpus):
        for name, graph in corpus:
            if graph.n > 64:
                continue
            assert dense_expm_check(graph, 0.83) < 1e-9, name

    def test_rejects_small_term_budget(self, k2):
        with pytest.raises(ValueError):
            series_walk_matrix(k2, 1.0, terms=5)


class TestVerifyFr:
    def test_units_witness_passes(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        report = verify_fr(units_graph, w)
        assert report.passed
        assert report.permutation_ok
        assert report.max_deviation < 1e-12
        assert report.unitarity_defect < 1e-12

    def test_bent_witness_passes(self, bent4_graph):
        w = decide_fr(bent4_graph, (1, 0, 0, 0, 0))
        assert verify_fr(bent4_graph, w).passed

    def test_perturbed_phase_fails(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        bad = dataclasses.replace(w, k=3)
        report = verify_fr(units_graph, bad)
        assert not report.passed
        assert report.max_deviation > 0.1

    def test_tampered_rho_fails(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        bad = dataclasses.replace(w, rho0=(w.rho0 + 1) % w.modulus)
        assert not verify_fr(units_graph, bad).passed

    def test_wrong_target_fails_permutation_check(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        bad = dataclasses.replace(w, a=(0, 3))
        report = verify_fr(units_graph, bad)
        assert not report.permutation_ok
        assert not report.passed

    def test_zero_target_fixes_every_vertex(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        report = verify_fr(units_graph, dataclasses.replace(w, a=(0, 0)))
        assert not report.permutation_ok
        assert not report.passed

    def test_memory_on_256_vertices(self):
        # (Z2)^8, family D on the lifted support of a bent function on F_2^6
        supp = support(mm_bent(6))
        lifted = sorted([(0, *s) for s in supp] + [(1, *s) for s in supp])
        built = build_cublike_family(lifted, lifted)
        assert built.graph.n == 256
        verify_fr(built.graph, built.prediction)
        tracemalloc.start()
        try:
            report = verify_fr(built.graph, built.prediction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 7 * 2**20

    def test_peak_memory_is_a_few_matrices(self):
        # Two n x n arrays at a time: the exponent table and conj(X) (freed
        # once row 0 of H(t) is built), then D and H(t); no second complex
        # table, Gram matrix, translation matrix, dense target or n x n
        # deviation.  The peak is 1.52 MiB here.
        supp = support(mm_bent(6))
        lifted = sorted([(0, *s) for s in supp] + [(1, *s) for s in supp])
        built = build_cublike_family(lifted, lifted)
        verify_fr(built.graph, built.prediction)
        tracemalloc.start()
        try:
            verify_fr(built.graph, built.prediction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.67 * 2**20

    @settings(max_examples=120, deadline=None)
    @given(oracle_cases())
    def test_matches_the_dense_reference(self, case):
        graph, witness = case
        fast = verify_fr(graph, witness)
        slow = reference.verify_fr(graph, witness)
        assert fast.passed == slow.passed
        assert fast.permutation_ok == slow.permutation_ok
        assert fast.tolerance == slow.tolerance
        assert fast.max_deviation == slow.max_deviation
        assert abs(fast.unitarity_defect - slow.unitarity_defect) <= defect_tolerance(graph.n)

    def test_report_document(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        doc = verify_fr(units_graph, w).to_json()
        assert doc["pass"] is True
        assert doc["max_deviation"] <= doc["tolerance"]
        assert set(doc) >= {"pass", "max_deviation", "tolerance", "unitarity_defect"}

    def test_tolerance_controls_outcome(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        strict = verify_fr(units_graph, w, tol=1e-15)
        assert strict.tolerance == 1e-15
        assert strict.passed == (
            strict.max_deviation <= 1e-15 and strict.unitarity_defect <= 1e-15
        )

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_refuses_a_tolerance_not_positive_and_finite(self, units_graph, tol):
        w = decide_fr(units_graph, (1, 0))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify_fr(units_graph, w, tol=tol)

    def test_every_corpus_witness(self, corpus):
        for name, graph in corpus:
            for a, w in search_all(graph):
                if w.kind == WitnessKind.PERIODIC:
                    continue
                assert verify_fr(graph, w).passed, name


class TestGridScan:
    def test_detects_known_revivals(self, k2, units_graph):
        assert fr_grid_scan(k2)[(1,)]
        assert fr_grid_scan(units_graph)[(1, 0)]

    def test_no_hit_for_perfect_transfer(self):
        g = quiet_graph([4], [(1,), (3,)])
        assert fr_grid_scan(g) == {(2,): False}

    def test_no_hit_for_periodic(self, k4):
        hits = fr_grid_scan(k4)
        assert not any(hits.values())

    def test_no_hit_for_irrational_spectrum(self):
        g = quiet_graph([8], [(1,), (7,)])
        assert not fr_grid_scan(g)[(4,)]

    def test_respects_explicit_targets(self, hypercube_q3):
        hits = fr_grid_scan(hypercube_q3, targets=[(1, 1, 1)])
        assert set(hits) == {(1, 1, 1)}


class TestIndependence:
    def test_oracle_imports_only_the_data_types(self):
        # The oracle checks the engine, so it may read the graph and witness
        # types but none of the engine's spectrum, fold or moduli code.
        imported = set()
        source = Path(fr.__file__).with_name("oracle.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("frcayley")
            ):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("frcayley") for alias in node.names)
        assert imported <= {
            "CayleyGraph",
            "FRWitness",
            "OracleDimensionError",
            "Element",
            "FiniteAbelianGroup",
        }
