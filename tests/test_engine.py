"""Decision engine: splits, moduli, witnesses, search, grid-scan agreement."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import engine
from frcayley import (
    FiniteAbelianGroup,
    FRWitness,
    NotInvolutionError,
    SpecFormatError,
    WitnessKind,
    compute_moduli,
    decide_fr,
    fr_grid_scan,
    make_group,
    search_all,
    spectrum,
    split_by_involution,
    verify_fr,
)
from frcayley.boolfn import ramanujan_transform
from frcayley.cayley import Spectrum, cyclotomic_spectrum
from helpers import graph_from_set, quiet_graph, random_symmetric_set, random_unit_closed_set


class TestSplitByInvolution:
    def test_units_split(self, units_graph):
        split = split_by_involution(units_graph.group, (1, 0))
        assert len(split.plus) == 9
        assert len(split.minus) == 9
        assert all(g[0] == 0 for g in split.plus)
        assert all(g[0] == 1 for g in split.minus)

    def test_klein_group_diagonal(self):
        g = make_group([2, 2])
        split = split_by_involution(g, (1, 1))
        assert set(split.plus) == {(0, 0), (1, 1)}
        assert set(split.minus) == {(0, 1), (1, 0)}

    def test_rejects_non_involution(self):
        g = make_group([2, 9])
        with pytest.raises(NotInvolutionError):
            split_by_involution(g, (0, 3))

    def test_rejects_zero(self):
        g = make_group([2, 9])
        with pytest.raises(NotInvolutionError):
            split_by_involution(g, (0, 0))

    def test_halves_are_equal_size(self, corpus):
        for name, graph in corpus:
            for a in graph.group.involutions():
                split = split_by_involution(graph.group, a)
                assert len(split.plus) == len(split.minus) == graph.n // 2, name
                assert split.a == a


class TestComputeModuli:
    def test_units_moduli(self, units_graph):
        split = split_by_involution(units_graph.group, (1, 0))
        mod = compute_moduli(spectrum(units_graph), split)
        assert (mod.m0, mod.m1, mod.m) == (3, 3, 3)
        assert mod.delta == 7 - spectrum(units_graph).integral_values[mod.reference]

    def test_prism_moduli(self, prism_graph):
        split = split_by_involution(prism_graph.group, (1, 0))
        mod = compute_moduli(spectrum(prism_graph), split)
        assert mod.m == 3

    def test_complete_graph_on_two_degenerate(self, k2):
        split = split_by_involution(k2.group, (1,))
        mod = compute_moduli(spectrum(k2), split)
        # Only two eigenvalues: both gcds are empty-or-zero, delta = 1 - (-1).
        assert (mod.m0, mod.m1, mod.m) == (0, 0, 0)
        assert mod.delta == 2

    def test_doubled_units_moduli(self, doubled_units_graph):
        split = split_by_involution(doubled_units_graph.group, (1, 0))
        mod = compute_moduli(spectrum(doubled_units_graph), split)
        assert (mod.m0, mod.m1, mod.m) == (6, 0, 6)
        assert mod.delta == 14

    def test_reference_is_lex_smallest_of_minus(self, units_graph):
        split = split_by_involution(units_graph.group, (1, 0))
        mod = compute_moduli(spectrum(units_graph), split)
        assert mod.reference == min(split.minus)

    def test_reference_independence(self, corpus):
        # m1, m, and the decision must not depend on which minus-class
        # element anchors the second gcd.
        for name, graph in corpus:
            spec = spectrum(graph)
            if spec.integral_values is None:
                continue
            for a in graph.group.involutions():
                split = split_by_involution(graph.group, a)
                base = compute_moduli(spec, split)
                for ref in list(split.minus)[1:]:
                    alt = compute_moduli(spec, split, reference=ref)
                    assert alt.m1 == base.m1, name
                    assert alt.m == base.m, name

    def test_reference_must_be_in_minus_class(self, units_graph):
        split = split_by_involution(units_graph.group, (1, 0))
        with pytest.raises(ValueError):
            compute_moduli(spectrum(units_graph), split, reference=(0, 1))

    def test_congruences_hold_mod_m(self, corpus):
        # Every plus eigenvalue is congruent to d, every minus eigenvalue to
        # the reference value, modulo m.
        for name, graph in corpus:
            spec = spectrum(graph)
            if spec.integral_values is None:
                continue
            d = graph.degree
            for a in graph.group.involutions():
                split = split_by_involution(graph.group, a)
                mod = compute_moduli(spec, split)
                if mod.m == 0:
                    continue
                assert graph.n % mod.m == 0, name
                ref_val = spec.integral_values[mod.reference]
                for g in split.plus:
                    assert (spec.integral_values[g] - d) % mod.m == 0, name
                for g in split.minus:
                    assert (spec.integral_values[g] - ref_val) % mod.m == 0, name

    def test_non_integral_rejected(self, cycle5):
        # No involution exists in an odd group; build the split artificially
        # impossible, so instead use an 8-cycle with irrational spectrum.
        g = quiet_graph([8], [(1,), (7,)])
        split = split_by_involution(g.group, (4,))
        with pytest.raises(fr.NonIntegralSpectrumError):
            compute_moduli(spectrum(g), split)


FROZEN_DECISIONS = [
    # (fixture name, a, kind, modulus, rho0, rho1, valid_k)
    ("units_graph", (1, 0), WitnessKind.FR, 3, 1, 2, (1, 2)),
    ("prism_graph", (1, 0), WitnessKind.FR, 3, 0, 1, (1, 2)),
    ("doubled_units_graph", (1, 0), WitnessKind.FR, 6, 1, 5, (1, 2, 4, 5)),
    ("k2", (1,), WitnessKind.FR, 8, 1, 7, (1, 3, 5, 7)),
    ("k4", (1, 1), WitnessKind.PERIODIC, 4, 3, 3, ()),
    ("hypercube_q3", (1, 1, 1), WitnessKind.PST, 4, 3, 1, ()),
    ("hypercube_q3", (1, 0, 0), WitnessKind.PERIODIC, 2, 1, 1, ()),
    ("bent4_graph", (1, 0, 0, 0, 0), WitnessKind.FR, 8, 5, 7, (1, 3, 5, 7)),
]


class TestDecideFr:
    @pytest.mark.parametrize("fixture,a,kind,n,rho0,rho1,valid", FROZEN_DECISIONS)
    def test_frozen_classifications(self, fixture, a, kind, n, rho0, rho1, valid, request):
        graph = request.getfixturevalue(fixture)
        w = decide_fr(graph, a)
        assert w is not None
        assert w.kind == kind
        assert w.modulus == n
        assert (w.rho0, w.rho1) == (rho0, rho1)
        assert w.valid_k == valid
        assert w.k == 1

    def test_four_cycle_is_pst(self):
        g = quiet_graph([4], [(1,), (3,)])
        w = decide_fr(g, (2,))
        assert w.kind == WitnessKind.PST
        assert w.modulus == 4
        assert (w.rho0, w.rho1) == (2, 0)

    def test_six_cycle_is_fr(self):
        g = quiet_graph([6], [(1,), (5,)])
        w = decide_fr(g, (3,))
        assert w.kind == WitnessKind.FR
        assert w.modulus == 3
        assert (w.rho0, w.rho1) == (2, 1)

    def test_absent_for_non_involution(self, units_graph):
        assert decide_fr(units_graph, (0, 3)) is None
        assert decide_fr(units_graph, (0, 0)) is None

    def test_absent_for_odd_order_group(self):
        g = quiet_graph([9], [(0, )[:0] + (1,), (8,)])
        assert decide_fr(g, (3,)) is None

    def test_absent_for_irrational_spectrum(self):
        g = quiet_graph([8], [(1,), (7,)])
        assert decide_fr(g, (4,)) is None

    def test_absent_for_edgeless_graph(self):
        g = quiet_graph([2, 3], [])
        assert decide_fr(g, (1, 0)) is None

    def test_units_witness_amplitudes(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        assert cmath.isclose(w.alpha, -0.5, abs_tol=1e-12)
        assert cmath.isclose(w.beta, 1j * math.sqrt(3) / 2, abs_tol=1e-12)
        assert math.isclose(w.time, 2 * math.pi / 3, rel_tol=1e-12)

    def test_prism_witness_amplitudes(self, prism_graph):
        w = decide_fr(prism_graph, (1, 0))
        assert cmath.isclose(w.alpha, 0.25 + 1j * math.sqrt(3) / 4, abs_tol=1e-12)
        assert cmath.isclose(w.beta, 0.75 - 1j * math.sqrt(3) / 4, abs_tol=1e-12)


class TestWitnessInvariants:
    def _all_witnesses(self, corpus):
        for name, graph in corpus:
            for a, w in search_all(graph):
                yield name, graph, a, w

    def test_amplitudes_form_a_unit_vector(self, corpus):
        for name, graph, a, w in self._all_witnesses(corpus):
            assert abs(abs(w.alpha) ** 2 + abs(w.beta) ** 2 - 1) <= 1e-12, name

    def test_cross_term_vanishes(self, corpus):
        # conj(alpha) beta + alpha conj(beta) = 2 Re(conj(alpha) beta) = 0.
        for name, graph, a, w in self._all_witnesses(corpus):
            cross = (w.alpha.conjugate() * w.beta + w.alpha * w.beta.conjugate())
            assert abs(cross) <= 1e-12, name

    def test_kind_matches_rho_difference(self, corpus):
        for name, graph, a, w in self._all_witnesses(corpus):
            diff = (w.rho0 - w.rho1) % w.modulus
            if diff == 0:
                assert w.kind == WitnessKind.PERIODIC, name
            elif w.modulus % 2 == 0 and diff == w.modulus // 2:
                assert w.kind == WitnessKind.PST, name
            else:
                assert w.kind == WitnessKind.FR, name

    def test_time_and_phases_are_consistent(self, corpus):
        for name, graph, a, w in self._all_witnesses(corpus):
            assert math.isclose(w.time, 2 * math.pi * w.k / w.modulus, rel_tol=1e-12)
            spec = spectrum(graph)
            split = split_by_involution(graph.group, a)
            ref = min(split.minus)
            assert w.rho0 == (w.k * graph.degree) % w.modulus, name
            assert w.rho1 == (w.k * spec.integral_values[ref]) % w.modulus, name

    def test_valid_k_semantics(self, corpus):
        # k is valid iff k*delta misses both 0 and modulus/2 (mod modulus);
        # FR holds iff k = 1 is valid.
        for name, graph, a, w in self._all_witnesses(corpus):
            delta = (w.rho0 - w.rho1) % w.modulus
            expected = tuple(
                k for k in range(1, w.modulus)
                if (k * delta) % w.modulus != 0
                and (w.modulus % 2 != 0 or (k * delta) % w.modulus != w.modulus // 2)
            )
            assert w.valid_k == expected, name
            assert (w.kind == WitnessKind.FR) == (1 in w.valid_k), name

    def test_kinds_are_mutually_exclusive(self, corpus):
        for name, graph, a, w in self._all_witnesses(corpus):
            assert w.kind in (WitnessKind.FR, WitnessKind.PST, WitnessKind.PERIODIC)


class TestIntegralityFirst:
    """Non-integral graphs and odd-order groups are settled from the
    connection set alone, before any spectrum work."""

    def test_large_non_integral_graph_rejected_in_small_memory(self):
        # Z2 x Z_20000, S = {(0, +-1), (1, 0)}: the generic path would store
        # 40000 count vectors of length 20000 (gigabytes) before rejecting.
        group = make_group([2, 20000])
        graph = graph_from_set(group, [(0, 1), (0, 19999), (1, 0)])
        tracemalloc.start()
        try:
            assert decide_fr(graph, (1, 0)) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_odd_order_search_computes_no_spectrum(self, monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("spectrum computed")

        monkeypatch.setattr(engine, "spectrum", no_spectrum)
        rng = random.Random(3)
        for orders in ([9], [3, 9], [5, 5], [3, 3, 3]):
            group = make_group(orders)
            for s in (random_symmetric_set(group, rng), random_unit_closed_set(group, rng)):
                assert search_all(graph_from_set(group, s)) == [], orders

    def test_non_integral_decided_before_split_or_spectrum(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("split or spectrum computed")

        monkeypatch.setattr(engine, "spectrum", fail)
        monkeypatch.setattr(engine, "split_by_involution", fail)
        graph = quiet_graph([2, 8], [(0, 1), (0, 7), (1, 0)])
        assert decide_fr(graph, (1, 0)) is None
        assert decide_fr(graph, (0, 4)) is None
        assert search_all(graph) == []


def fold_moduli(n, t, D, F):
    """int64 arrays m and delta over every mask 0 .. 2^t - 1 (entry 0
    unused), from the fold (t, D, F): m(a) = g0 but at the candidate masks
    of _mask_moduli, and delta(a) = D[r] with r the lowest set bit of a.
    The per-mask reference that the search classes expand to."""
    g0, exact = engine._mask_moduli(n, t, D, F)
    m = np.full(1 << t, g0, dtype=np.int64)
    for a, ma in exact.items():
        m[a] = ma
    classes = np.arange(1 << t)
    return m, D[classes & -classes]


class TestInvolutionModuli:
    """The fold onto G/2G gives, for every involution, the m and delta of the
    per-involution reference compute_moduli(spec, split_by_involution), both
    read one mask at a time, as decide_fr reads them, and from the classes
    of the lowest set bits and the candidates (_mask_classes), as search
    reads them: g0 = gcd(f, gcd D) but at a few candidate masks."""

    @staticmethod
    def reference(spec, involutions):
        mods = [compute_moduli(spec, split_by_involution(spec.group, a)) for a in involutions]
        return [(mod.m, mod.delta) for mod in mods]

    @staticmethod
    def counts(spec):
        # the search classes over masks 1 .. 2^t - 1, in group.involutions()
        # order, which must also be fold_moduli's arrays
        n = spec.group.n
        fold = engine._fold(spec)
        pairs, low, exact = engine._mask_classes(n, *fold)
        assert len(low) == fold[0] and len(set(pairs)) == len(pairs)
        classes = engine.WitnessClasses(pairs, low, exact)
        expanded = [pairs[classes.of(mask)] for mask in range(1, 1 << fold[0])]
        m, delta = fold_moduli(n, *fold)
        assert expanded == list(zip(m[1:].tolist(), delta[1:].tolist()))
        return expanded

    @staticmethod
    def one_mask(spec):
        t, D, F = engine._fold(spec)
        out = []
        for mask in range(1, 1 << t):
            g0, exact = engine._mask_moduli(spec.group.n, t, D, F, mask)
            out.append((exact.get(mask, g0), int(D[mask & -mask])))
        return out

    @staticmethod
    def candidates(spec):
        # (g0, exact) over every mask
        return engine._mask_moduli(spec.group.n, *engine._fold(spec))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_split_on_random_groups(self, data):
        evens = data.draw(st.lists(st.sampled_from([2, 4, 6, 8, 12]), min_size=1, max_size=6))
        odds = data.draw(st.lists(st.sampled_from([3, 5, 9]), max_size=2))
        orders = []  # at most t = 6 even factors, n <= 256
        for m in data.draw(st.permutations(evens + odds)):
            if math.prod(orders) * m <= 256:
                orders.append(m)
        if all(m % 2 for m in orders):
            orders.append(2)
        group = make_group(orders)
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        graph = graph_from_set(group, random_unit_closed_set(group, random.Random(seed)))
        invs = group.involutions()
        reference = np.array([v.as_integer() for v in cyclotomic_spectrum(graph)], np.int64)
        orbits = [(s, d, 1) for s, d in graph.unit_orbits]
        for lam in (spectrum(graph).by_rank, ramanujan_transform(group, orbits), reference):
            spec = Spectrum(group, graph.degree, lam)
            expected = self.reference(spec, invs)
            assert self.one_mask(spec) == expected, orders
            assert self.counts(spec) == expected, orders

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_split_on_arbitrary_integer_arrays(self, data):
        # Any integer array as the spectrum, built from a few values so that
        # the moduli are often large: the hyperplane tests must find each
        # prime of m, also one that does not divide n, where both sides raise.
        orders = data.draw(
            st.sampled_from([[2], [4], [2, 2], [2, 3], [2, 4], [6, 2], [2, 2, 2], [4, 4], [2] * 4])
        )
        group = make_group(orders)
        d = data.draw(st.integers(min_value=0, max_value=12))
        pool = data.draw(st.lists(st.integers(min_value=-d, max_value=d), min_size=1, max_size=3))
        lam = data.draw(st.lists(st.sampled_from(pool), min_size=group.n, max_size=group.n))
        spec = Spectrum(group, d, np.array(lam, dtype=np.int64))
        invs = group.involutions()
        try:
            expected = self.reference(spec, invs)
        except ArithmeticError as exc:
            assert "does not divide" in str(exc)
            with pytest.raises(ArithmeticError, match="does not divide"):
                self.one_mask(spec)
            with pytest.raises(ArithmeticError, match="does not divide"):
                self.counts(spec)
        else:
            assert self.one_mask(spec) == expected, (orders, lam)
            assert self.counts(spec) == expected, (orders, lam)

    def test_random_cube_of_dimension_13_within_two_seconds(self):
        # 8191 involutions, g0 at all but a few candidate masks, rather than
        # one fold pass each
        group = make_group([2] * 13)
        ranks = random.Random(13).sample(range(1, group.n), 200)
        graph = graph_from_set(group, [group.unrank(r) for r in ranks])
        start = time.process_time()
        found = search_all(graph)
        assert time.process_time() - start < 2.0
        assert len(found) == 8191

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_gcds_on_hyperplane_arrays(self, data):
        # D = 0 mod q on the even classes of a (the hyperplane a^perp of
        # G/2G) and D = c on the odd ones, so a power of a prime of q can
        # divide m(a) alone; random arrays seldom do.  Perturbing one class
        # breaks the plane.
        t = data.draw(st.integers(min_value=1, max_value=8))
        # two factors from {2, 4, 6} and the rest Z2, so n <= 36 * 2^6
        orders = [data.draw(st.sampled_from([2, 4, 6])) if i < 2 else 2 for i in range(t)]
        group = make_group(orders)
        a = data.draw(st.integers(min_value=1, max_value=(1 << t) - 1))
        q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32]))
        c = data.draw(st.integers(min_value=1, max_value=q - 1))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        classes = np.arange(1 << t)
        D = q * rng.integers(-3, 4, size=1 << t) + c * (np.bitwise_count(classes & a) % 2)
        if data.draw(st.booleans()):
            x = data.draw(st.integers(min_value=0, max_value=(1 << t) - 1))
            D[x] += data.draw(st.integers(min_value=1, max_value=q - 1))
        # every element of class x gets d - D[x], up to a multiple of q
        even = [i for i, m in enumerate(orders) if m % 2 == 0]
        x_of = [
            sum((g[i] % 2) << (t - 1 - j) for j, i in enumerate(even))
            for g in group.elements()
        ]
        d = data.draw(st.integers(min_value=-20, max_value=20))
        lam = d - D[x_of] - q * rng.integers(0, 2, size=group.n)
        spec = Spectrum(group, d, lam.astype(np.int64))
        # m(b) and delta by coordinates: every factor is even, so g lies in
        # the minus half of b when its coordinates on supp(b) have odd sum;
        # the reference is the first such g in lexicographic (rank) order.
        elements = list(group.elements())
        expected = []
        for b in group.involutions():
            minus = [sum(c for c, bi in zip(g, b) if bi) % 2 == 1 for g in elements]
            ref = int(lam[minus.index(True)])
            m0 = math.gcd(*(d - int(v) for v, odd in zip(lam, minus) if not odd))
            m1 = math.gcd(*(ref - int(v) for v, odd in zip(lam, minus) if odd))
            expected.append((math.gcd(m0, m1), d - ref))
        if any(m and group.n % m for m, _ in expected):
            with pytest.raises(ArithmeticError, match="does not divide"):
                self.one_mask(spec)
            with pytest.raises(ArithmeticError, match="does not divide"):
                self.counts(spec)
        else:
            assert self.one_mask(spec) == expected, (orders, a, q, D.tolist())
            assert self.counts(spec) == expected, (orders, a, q, D.tolist())

    def test_g0_of_no_involution_does_not_raise(self):
        # Z2, d = 3, lambda = [3, -2]: D = [0, 5], f = 0 and g0 = 5, which
        # does not divide n = 2.  But the only mask is a candidate (t = 1)
        # with m(1) = 0, so g0 is the m of no involution and nothing raises.
        spec = Spectrum(make_group([2]), 3, np.array([3, -2], dtype=np.int64))
        assert self.candidates(spec) == (5, {1: 0})
        assert self.counts(spec) == self.one_mask(spec) == [(0, 5)]

    def test_g_zero_gives_f_at_every_mask(self):
        # Z4 x Z2, d = 4: the first eigenvalue of each class is d, so D = 0,
        # and m = f = 2 at every mask with no candidate.
        group = make_group([4, 2])
        spec = Spectrum(group, 4, np.array([4, 4, 4, 4, 0, 2, -2, 0], dtype=np.int64))
        assert self.candidates(spec) == (2, {})
        expected = self.reference(spec, group.involutions())
        assert expected == [(2, 0)] * 3
        assert self.one_mask(spec) == self.counts(spec) == expected

    def test_f_zero_with_only_the_zero_candidate(self):
        # (Z2)^3, one element per class, so f = 0.  D = 1 on the odd classes
        # of a = 5 and 0 on its even ones: no prime divides some m(b) > 0,
        # so a_0 = 5, where m = 0, is the only candidate and g0 = 1 elsewhere.
        group = make_group([2, 2, 2])
        odd = np.bitwise_count(np.arange(8) & 5) % 2
        spec = Spectrum(group, 1, (1 - odd).astype(np.int64))
        assert self.candidates(spec) == (1, {5: 0})
        expected = self.reference(spec, group.involutions())
        assert [m for m, _ in expected] == [1, 1, 1, 1, 0, 1, 1]
        assert self.one_mask(spec) == self.counts(spec) == expected

    def test_one_involution_is_a_candidate(self):
        # C4 = Cay(Z4, {1, 3}): t = 1, D = [0, 2], F = [4, 0], so g0 = 2 but
        # q = 4 divides f and names the only mask, where m = 4.
        graph = quiet_graph([4], [(1,), (3,)])
        spec = spectrum(graph)
        assert self.candidates(spec) == (2, {1: 4})
        assert self.one_mask(spec) == self.counts(spec) == self.reference(spec, [(2,)])
        assert decide_fr(graph, (2,)).modulus == 4

    def test_two_primes_name_the_same_mask(self):
        # Z6 x Z6, d = 10: D = 6 on the classes with u odd and 0 on the
        # others, and each class has one element 36 above the rest, so f =
        # 36 and g = 6.  q = 4 and q = 9 both name the mask of a = (3, 0),
        # where m = 36; every other mask has g0 = 6.
        group = make_group([6, 6])
        lam = [10 - 6 * (u % 2) + 36 * (u // 2 == 1 and v // 2 == 1) for u, v in group.elements()]
        spec = Spectrum(group, 10, np.array(lam, dtype=np.int64))
        assert self.candidates(spec) == (6, {2: 36})
        expected = self.reference(spec, group.involutions())
        assert expected == [(6, 0), (36, 6), (6, 0)]
        assert self.one_mask(spec) == self.counts(spec) == expected

    def test_cube_of_dimension_16_fold_within_six_mib(self):
        # 65535 involutions: O(2^t) memory per candidate pass, and no array
        # over every mask
        group = make_group([2] * 16)
        ranks = random.Random(0).sample(range(1, group.n), 300)
        graph = graph_from_set(group, [group.unrank(r) for r in ranks])
        fold = engine._fold(spectrum(graph))
        tracemalloc.start()
        try:
            pairs, low, exact = engine._mask_classes(group.n, *fold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(low) == 16 and len(pairs) <= 16 + len(exact)
        assert peak < 6 * 2**20

    def test_agrees_with_split_on_corpus(self, corpus):
        for name, graph in corpus:
            invs = graph.group.involutions()
            if not invs or graph.unit_orbits is None:
                continue
            spec = spectrum(graph)
            expected = self.reference(spec, invs)
            assert self.one_mask(spec) == expected, name
            assert self.counts(spec) == expected, name

    def test_decisions_use_neither_split_nor_pairing(self, corpus, monkeypatch):
        expected = [
            (search_all(g), [decide_fr(g, a) for a in g.group.involutions()]) for _, g in corpus
        ]

        def fail(*args, **kwargs):
            raise AssertionError("per-involution split or pairing computed")

        monkeypatch.setattr(engine, "split_by_involution", fail)
        monkeypatch.setattr(FiniteAbelianGroup, "character_exponent", fail)
        for (name, graph), (found, decided) in zip(corpus, expected):
            fresh = graph_from_set(graph.group, graph.connection.elements)
            assert search_all(fresh) == found, name
            assert [decide_fr(fresh, a) for a in fresh.group.involutions()] == decided, name

    def test_rejects_non_involution_and_non_integral(self, units_graph, cycle5):
        assert decide_fr(units_graph, (0, 3)) is None
        assert decide_fr(units_graph, (0, 0)) is None
        with pytest.raises(fr.NonIntegralSpectrumError):
            engine._fold(spectrum(cycle5))

    def test_spectrum_array_is_in_rank_order(self, units_graph, hypercube_q3):
        # units_graph takes the Ramanujan kernel, hypercube_q3 the Walsh one
        for graph in (units_graph, hypercube_q3):
            spec = spectrum(graph)
            ranked = [v.as_integer() for v in cyclotomic_spectrum(graph)]
            assert spec.by_rank.tolist() == ranked, graph.group.orders
            assert [spec.integral_values[z] for z in graph.group.elements()] == ranked


# Each invariant with a fragment of the message its check raises.
INVARIANTS = {
    "sign": "not a sign",
    "half": "in half",
    "modulus": "does not divide",
    "fold_modulus": "does not divide",
    "fold_modulus_cube": "does not divide",
    "fold_counts_cube": "does not divide",
    "k1": "k = 1 is not",
}


def violate(case: str) -> None:
    """Run one step of the decision path with one invariant broken."""
    patches = {
        # Balanced halves, but the pairing 1 is no sign in exponent 4.
        "sign": (FiniteAbelianGroup, "character_exponent", lambda self, g, h: h[0] % 2),
        "half": (FiniteAbelianGroup, "character_exponent", lambda self, g, h: 0),
        "k1": (engine, "valid_k", lambda delta, modulus: (2, 3)),
    }
    with pytest.MonkeyPatch.context() as mp:
        if case in patches:
            mp.setattr(*patches[case])
        group = make_group([4])
        if case in ("fold_modulus_cube", "fold_counts_cube"):
            # On (Z2)^2 with a = (1, 0): m0 = gcd(0, 5 - 2) = 3 and m1 = 0.
            # D = [0, 3, 3, 3] and f = 0, so g0 = 3 at every mask but the
            # candidate 3: mask 2 of a, read alone by decide_fr, and mask 1
            # of the fold over every mask have m = g0.
            cube = make_group([2, 2])
            spec = Spectrum(cube, 5, np.array([5, 2, 2, 2]))
            if case == "fold_modulus_cube":
                mp.setattr(engine, "spectrum", lambda graph: spec)
                decide_fr(quiet_graph([2, 2], [(0, 1), (1, 0)]), (1, 0))
            else:
                engine._mask_classes(cube.n, *engine._fold(spec))
        elif case in ("sign", "half"):
            split_by_involution(group, (2,))
        elif case in ("modulus", "fold_modulus"):
            # m0 = gcd(5 - 5, 5 - 2) = 3 does not divide n = 4.
            spec = Spectrum(group, 5, np.array([5, 0, 2, 0], dtype=np.int64))
            if case == "modulus":
                compute_moduli(spec, split_by_involution(group, (2,)))
            else:
                # f = 3, so q = 3 names the candidate mask 1 of a = (2,),
                # which decide_fr reads alone by three gcds
                mp.setattr(engine, "spectrum", lambda graph: spec)
                decide_fr(quiet_graph([4], [(1,), (3,)]), (2,))
        else:
            decide_fr(quiet_graph([2, 3], [(0, 1), (0, 2), (1, 0)]), (1, 0))


class TestInvariantChecks:
    """Invariants of the decision path raise explicitly; none is an assert."""

    @pytest.mark.parametrize("case", INVARIANTS)
    def test_violation_raises(self, case):
        with pytest.raises(ArithmeticError, match=INVARIANTS[case]):
            violate(case)

    def test_checks_survive_python_optimize(self):
        # python -O strips assert statements; the engine's checks must stay.
        paths = [str(Path(__file__).parent), str(Path(fr.__file__).parents[1])]
        script = textwrap.dedent(
            f"""
            import sys
            sys.path[:0] = {paths!r}
            from test_engine import INVARIANTS, violate
            for case in INVARIANTS:
                try:
                    violate(case)
                except ArithmeticError as exc:
                    print(exc)
                else:
                    print("not raised")
            """
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
        )
        lines = out.stdout.splitlines()
        assert len(lines) == len(INVARIANTS)
        for line, fragment in zip(lines, INVARIANTS.values()):
            assert fragment in line


class TestWitnessJson:
    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_given_valid_k_checked_exactly(self, modulus, data):
        delta = data.draw(st.integers(min_value=0, max_value=modulus - 1))
        true = list(engine.valid_k(delta, modulus))
        given_k = list(true)
        edit = data.draw(st.sampled_from(["keep", "drop", "add", "duplicate", "reorder"]))
        if edit == "drop" and given_k:
            given_k.pop(data.draw(st.integers(0, len(given_k) - 1)))
        elif edit == "add":
            k = data.draw(st.integers(min_value=-1, max_value=modulus + 1))
            given_k.insert(data.draw(st.integers(0, len(given_k))), k)
        elif edit == "duplicate" and given_k:
            i = data.draw(st.integers(0, len(given_k) - 1))
            given_k.insert(i, given_k[i])
        elif edit == "reorder" and len(given_k) > 1:
            given_k = data.draw(st.permutations(given_k))
        doc = {"a": [1], "k": 1, "modulus": modulus, "rho0": delta, "rho1": 0, "valid_k": given_k}
        if given_k == true:
            assert FRWitness.from_json(doc).valid_k == tuple(true)
        else:
            with pytest.raises(SpecFormatError, match="valid_k"):
                FRWitness.from_json(doc)

    @settings(max_examples=200)
    @given(st.integers(min_value=2, max_value=120), st.data())
    def test_given_valid_k_is_a_valid_set_when_k_is_not_invertible(self, modulus, data):
        # delta is ambiguous, so a list is accepted exactly when some delta
        # that gives the phase gap at k also gives the list.
        half = modulus / 2
        valid = [
            tuple(k for k in range(1, modulus + 1) if (k * d) % modulus not in (0, half))
            for d in range(modulus)
        ]
        sets = set(valid)
        g = data.draw(st.sampled_from([g for g in range(2, modulus + 1) if modulus % g == 0]))
        k = g * data.draw(st.integers(min_value=1, max_value=modulus // g))
        gap = k * data.draw(st.integers(min_value=0, max_value=modulus - 1)) % modulus
        given_k = list(data.draw(st.sampled_from(sorted(sets))))
        edit = data.draw(st.sampled_from(["keep", "drop", "add", "replace"]))
        if edit == "drop" and given_k:
            given_k.pop(data.draw(st.integers(0, len(given_k) - 1)))
        elif edit == "add":
            given_k.insert(
                data.draw(st.integers(0, len(given_k))),
                data.draw(st.integers(min_value=-1, max_value=modulus + 1)),
            )
        elif edit == "replace":
            given_k = data.draw(st.lists(st.integers(min_value=-1, max_value=modulus + 1)))
        doc = {"a": [1], "k": k, "modulus": modulus, "rho0": gap, "rho1": 0, "valid_k": given_k}
        if any(k * d % modulus == gap and valid[d] == tuple(given_k) for d in range(modulus)):
            assert FRWitness.from_json(doc).valid_k == tuple(given_k)
        else:
            with pytest.raises(SpecFormatError, match="valid_k"):
                FRWitness.from_json(doc)

    def test_valid_k_of_a_step_no_delta_of_the_gap_has_is_refused(self):
        # s = 3 fits k = 2 and the gap 2 is FR proper, but k * delta = 2
        # (mod 12) gives delta in {1, 7}, both of step 6
        doc = {"a": [1, 0], "k": 2, "modulus": 12, "rho0": 2, "rho1": 0,
               "valid_k": [1, 2, 4, 5, 7, 8, 10, 11]}
        with pytest.raises(SpecFormatError, match="valid_k"):
            FRWitness.from_json(doc)

    def test_every_small_certificate_is_accepted_exactly_when_some_delta_gives_it(self):
        # Brute force over every modulus <= 48, k, phase gap rho0 - rho1
        # (rho1 moving with k and the gap) and valid set: accepted exactly
        # when some delta gives both the gap k * delta and the valid set.
        for modulus in range(1, 49):
            half = modulus / 2
            valid = [
                tuple(k for k in range(1, modulus + 1) if (k * d) % modulus not in (0, half))
                for d in range(modulus)
            ]
            for k in range(1, modulus + 1):
                gives = {(k * d % modulus, valid[d]) for d in range(modulus)}
                for gap in range(modulus):
                    rho1 = (k + gap) % modulus
                    for given_k in set(valid):
                        doc = {"a": [1], "k": k, "modulus": modulus, "rho0": gap + rho1,
                               "rho1": rho1, "valid_k": list(given_k)}
                        case = (modulus, k, gap, given_k)
                        if (gap, given_k) in gives:
                            assert FRWitness.from_json(doc).valid_k == given_k, case
                        else:
                            with pytest.raises(SpecFormatError):
                                FRWitness.from_json(doc)

    def test_roundtrip(self, corpus):
        for name, graph in corpus:
            for a, w in search_all(graph):
                doc = w.to_json()
                back = FRWitness.from_json(doc)
                assert back == w, name

    def test_roundtrip_at_every_multiple_of_the_time(self, corpus):
        # The canonical certificates all have k = 1 here; at time 2*pi*k/M
        # the same walk has phases k * rho, and gcd(k, M) > 1 leaves delta
        # ambiguous, so these exercise the checks of that branch.
        moved = 0
        for name, graph in corpus:
            for a, w in search_all(graph):
                assert w.k == 1, name
                for k in range(2, w.modulus + 1):
                    at_k = dataclasses.replace(
                        w, k=k, rho0=k * w.rho0 % w.modulus, rho1=k * w.rho1 % w.modulus
                    )
                    assert FRWitness.from_json(at_k.to_json()) == at_k, name
                    assert (k in w.valid_k) == (at_k.kind is WitnessKind.FR), name
                    moved += math.gcd(k, w.modulus) > 1
        assert moved > 100

    @pytest.mark.parametrize(
        "doc, field",
        [
            # 2 * delta = 1 (mod 4) has no solution
            ({"a": [1, 0], "k": 2, "modulus": 4, "rho0": 1, "rho1": 0, "valid_k": []}, "rho0"),
            # the gap 2 mod 8 is FR proper at k = 2, but step 2 divides k
            ({"a": [1, 0], "k": 2, "modulus": 8, "rho0": 2, "rho1": 0, "valid_k": [1, 3, 5, 7]}, "valid_k"),
        ],
    )
    def test_phase_gap_must_fit_k_when_k_is_not_invertible(self, doc, field):
        with pytest.raises(SpecFormatError, match=field):
            FRWitness.from_json(doc)

    def test_document_shape(self, units_graph):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        assert doc["a"] == [1, 0]
        assert doc["kind"] == "FR"
        assert doc["k"] == 1
        assert doc["modulus"] == 3
        assert (doc["rho0"], doc["rho1"]) == (1, 2)
        assert doc["valid_k"] == [1, 2]
        assert math.isclose(doc["time"], 2 * math.pi / 3, rel_tol=1e-12)
        assert math.isclose(doc["alpha"]["re"], -0.5, abs_tol=1e-12)
        assert math.isclose(doc["beta"]["im"], math.sqrt(3) / 2, abs_tol=1e-12)

    def test_valid_k_recovered_when_omitted(self, units_graph):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        del doc["valid_k"]
        back = FRWitness.from_json(doc)
        assert back.valid_k == (1, 2)

    def test_unrecoverable_without_valid_k(self, units_graph):
        # gcd(k, modulus) > 1 leaves delta ambiguous.
        doc = decide_fr(units_graph, (1, 0)).to_json()
        doc["k"] = 3
        doc["rho0"] = (3 * 7) % 3
        doc["rho1"] = (3 * 4) % 3
        del doc["valid_k"]
        with pytest.raises(SpecFormatError):
            FRWitness.from_json(doc)

    def test_rejects_missing_field(self, units_graph):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        del doc["rho0"]
        with pytest.raises(SpecFormatError):
            FRWitness.from_json(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("a", [True, False]),
            ("a", [1.9, 0]),
            ("a", "10"),
            ("k", 1.0),
            ("k", True),
            ("modulus", 3.0),
            ("rho0", "1"),
            ("rho1", None),
            ("valid_k", [1, 2.0]),
            ("valid_k", [True, 2]),
            ("valid_k", "12"),
        ],
    )
    def test_rejects_non_integer_fields(self, units_graph, field, value):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        doc[field] = value
        with pytest.raises(SpecFormatError, match=field):
            FRWitness.from_json(doc)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("kind",), "PST"),
            (("kind",), "ABSENT"),
            (("valid_k",), [1, 2, 3, 4, 5, 99]),
            (("valid_k",), [1]),
            (("time",), 123.0),
            (("time",), float("nan")),
            (("alpha", "re"), 9.0),
            (("beta", "im"), -math.sqrt(3) / 2),
        ],
    )
    def test_rejects_contradicting_fields(self, units_graph, path, value):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SpecFormatError, match=repr(path[0])):
            FRWitness.from_json(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", 1),
            ("time", "2.09"),
            ("time", True),
            pytest.param("time", 10**400, id="time-int-beyond-float"),
            ("alpha", [-0.5, 0.0]),
            ("alpha", {"re": -0.5}),
            ("beta", {"re": None, "im": 0.87}),
        ],
    )
    def test_rejects_wrong_typed_derived_fields(self, units_graph, field, value):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        doc[field] = value
        with pytest.raises(SpecFormatError, match=field):
            FRWitness.from_json(doc)

    def test_float_fields_agree_within_tolerance(self, units_graph):
        w = decide_fr(units_graph, (1, 0))
        doc = w.to_json()
        doc["time"] += 1e-12
        doc["alpha"]["im"] -= 1e-12
        assert FRWitness.from_json(doc) == w

    def test_rejects_modulus_no_accepted_graph_gives(self):
        doc = {"a": [1, 0], "k": 1, "modulus": 10**12, "rho0": 1, "rho1": 0, "valid_k": [1]}
        with pytest.raises(SpecFormatError, match="modulus"):
            FRWitness.from_json(doc)

    def test_rejects_out_of_range_k(self, units_graph):
        doc = decide_fr(units_graph, (1, 0)).to_json()
        doc["k"] = 0
        with pytest.raises(SpecFormatError):
            FRWitness.from_json(doc)


class TestSearchAll:
    def test_units_single_involution(self, units_graph):
        results = search_all(units_graph)
        assert len(results) == 1
        a, w = results[0]
        assert a == (1, 0)
        assert w.kind == WitnessKind.FR

    def test_odd_group_empty(self):
        g = quiet_graph([9], [(1,), (8,)])
        assert search_all(g) == []

    def test_irrational_spectrum_empty(self):
        g = quiet_graph([8], [(1,), (7,)])
        assert search_all(g) == []

    def test_bent_graph_contains_fr_involution(self, bent4_graph):
        results = dict(search_all(bent4_graph))
        w = results[(1, 0, 0, 0, 0)]
        assert w.kind == WitnessKind.FR
        assert math.isclose(w.time, math.pi / 4, rel_tol=1e-12)

    def test_cube_has_all_involutions(self, hypercube_q3):
        results = dict(search_all(hypercube_q3))
        assert len(results) == 7
        assert results[(1, 1, 1)].kind == WitnessKind.PST
        weight_one = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for a in weight_one:
            assert results[a].kind == WitnessKind.PERIODIC

    def test_deterministic_order(self, hypercube_q3):
        first = search_all(hypercube_q3)
        second = search_all(hypercube_q3)
        assert [a for a, _ in first] == sorted(a for a, _ in first)
        assert first == second


class TestDecisionMatchesGridScan:
    def test_corpus_agreement(self, corpus):
        # Independent check: FR claimed by the arithmetic engine must be
        # seen by a numerical scan over the rational time grid, and vice
        # versa, for every involution of every corpus graph.
        for name, graph in corpus:
            if graph.n > 32:
                continue
            invs = graph.group.involutions()
            if not invs:
                continue
            hits = fr_grid_scan(graph)
            for a in invs:
                w = decide_fr(graph, a)
                claimed = w is not None and w.kind == WitnessKind.FR
                assert claimed == hits[a], f"{name} at {a}"


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_graphs_agree_with_grid_scan(data):
    orders = data.draw(st.sampled_from([[2, 3], [2, 2, 2], [4, 2], [2, 9], [6]]))
    group = make_group(orders)
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    s = random_symmetric_set(group, random.Random(seed))
    graph = graph_from_set(group, s)
    hits = fr_grid_scan(graph)
    for a in group.involutions():
        w = decide_fr(graph, a)
        claimed = w is not None and w.kind == WitnessKind.FR
        assert claimed == hits[a]


def test_every_fr_witness_verifies(corpus):
    for name, graph in corpus:
        for a, w in search_all(graph):
            if w.kind == WitnessKind.PERIODIC:
                continue
            report = verify_fr(graph, w)
            assert report.passed, f"{name} at {a}: {report.max_deviation}"
