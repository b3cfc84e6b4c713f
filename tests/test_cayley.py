"""Connection sets, adjacency, exact spectra, JSON round-trips."""

from __future__ import annotations

import json
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import (
    AsymmetricSetError,
    CayleyGraph,
    DisconnectedGraphWarning,
    SpecFormatError,
    ZeroInSetError,
    graph_from_json,
    graph_to_json,
    is_integral,
    make_graph,
    make_group,
    spectrum,
    validate_connection_set,
)
from frcayley.boolfn import hadamard_transform, ramanujan_transform
from helpers import (
    GRAPH_SPEC_FAULTS,
    graph_from_set,
    naive_spectrum_complex,
    quiet_graph,
    random_symmetric_set,
    random_unit_closed_set,
)
from reference import adjacency_matrix, cyclotomic_spectrum, graph_from_json_by_rows


class TestValidateConnectionSet:
    def test_prism_degree(self):
        g = make_group([2, 3])
        conn = validate_connection_set([(0, 1), (0, 2), (1, 0)], g)
        assert conn.d == 3
        assert len(conn) == 3

    def test_deduplicates(self):
        g = make_group([2, 3])
        conn = validate_connection_set([(1, 0), (1, 0), (0, 1), (0, 2)], g)
        assert len(conn) == 3

    def test_rejects_zero(self):
        g = make_group([2, 3])
        with pytest.raises(ZeroInSetError):
            validate_connection_set([(0, 0), (1, 0)], g)

    def test_rejects_zero_before_a_later_bad_row(self):
        g = make_group([2, 3])
        with pytest.raises(ZeroInSetError):
            validate_connection_set([(1, 0), (0, 0), (0, 7), (1,)], g)
        with pytest.raises(ValueError, match="not a residue mod 3"):
            validate_connection_set([(1, 0), (0, 7), (0, 0)], g)

    def test_rejects_asymmetric_and_names_offender(self):
        g = make_group([9])
        with pytest.raises(AsymmetricSetError, match=r"\(1,\)"):
            validate_connection_set([(1,)], g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_exponent_two_sets_are_closed_as_given(self, r, data):
        # every element of (Z2)^r is its own inverse: any set without zero
        # is accepted, sorted and deduplicated; zero is still refused
        g = make_group([2] * r)
        element = st.tuples(*[st.integers(min_value=0, max_value=1)] * r)
        rows = data.draw(st.lists(element.filter(any), max_size=20))
        assert validate_connection_set(rows, g).elements == tuple(sorted(set(rows)))
        with pytest.raises(ZeroInSetError):
            validate_connection_set(rows + [g.zero], g)

    def test_membership_and_iteration(self):
        g = make_group([2, 3])
        conn = validate_connection_set([(1, 0), (0, 1), (0, 2)], g)
        assert (1, 0) in conn
        assert (1, 1) not in conn
        assert sorted(conn) == list(conn.elements)


class TestSpectrum:
    def test_prism_values(self, prism_graph):
        spec = spectrum(prism_graph)
        assert spec.degree == 3
        assert spec.integral_values == {
            (0, 0): 3, (0, 1): 0, (0, 2): 0,
            (1, 0): 1, (1, 1): -2, (1, 2): -2,
        }

    def test_units_values(self, units_graph):
        vals = spectrum(units_graph).integral_values
        assert vals[(0, 0)] == 7  # degree at the trivial character
        # Second-coordinate unit classes share an eigenvalue on each sheet.
        assert {vals[(0, u)] for u in (1, 2, 4, 5, 7, 8)} == {1}
        assert {vals[(0, 3)], vals[(0, 6)]} == {-2}
        assert vals[(1, 0)] == 5
        assert {vals[(1, u)] for u in (1, 2, 4, 5, 7, 8)} == {-1}
        assert {vals[(1, 3)], vals[(1, 6)]} == {-4}

    def test_complete_graph_on_two(self, k2):
        spec = spectrum(k2)
        assert spec.integral_values == {(0,): 1, (1,): -1}

    def test_four_cycle_integral(self):
        g = quiet_graph([4], [(1,), (3,)])
        assert is_integral(g)
        vals = spectrum(g).integral_values
        assert [vals[(k,)] for k in range(4)] == [2, 0, -2, 0]

    def test_five_cycle_not_integral(self, cycle5):
        assert not is_integral(cycle5)
        assert spectrum(cycle5).integral_values is None

    def test_matches_naive_complex_spectrum(self, corpus):
        for name, graph in corpus:
            if graph.n > 64:
                continue
            exact = spectrum(graph)
            naive = naive_spectrum_complex(graph)
            for i, g in enumerate(graph.group.elements()):
                got = exact.values[g].approx()
                assert abs(got - naive[i]) < 1e-9, name

    def test_sum_of_eigenvalues_is_zero_exactly(self, corpus):
        # Trace of the adjacency matrix: no loops, so exactly zero.
        for name, graph in corpus:
            e = graph.group.exponent
            total = fr.RootOfUnitySum.zero(e)
            for g in graph.group.elements():
                total = total + spectrum(graph).values[g]
            assert total.as_integer() == 0, name

    def test_trivial_character_value_is_degree(self, corpus):
        for name, graph in corpus:
            spec = spectrum(graph)
            zero = graph.group.zero
            assert spec.values[zero].as_integer() == graph.degree, name

    def test_one_spectrum_per_graph_and_read_only(self, corpus):
        for name, graph in corpus:
            spec = spectrum(graph)
            assert spectrum(graph) is spec, name
            # kept on the graph object, not shared with an equal one
            assert spectrum(CayleyGraph(graph.group, graph.connection)) is not spec, name
            if spec.by_rank is not None:
                with pytest.raises(ValueError, match="read-only"):
                    spec.by_rank[0] = 0
                assert spec.by_rank[0] == graph.degree, name

    def test_empty_set_spectrum(self):
        g = quiet_graph([2, 3], [])
        spec = spectrum(g)
        assert spec.degree == 0
        assert all(v == 0 for v in spec.integral_values.values())


def reference_integers(graph):
    """Integer eigenvalues in element order from the cyclotomic reference,
    None when one is irrational."""
    ints = [v.as_integer() for v in cyclotomic_spectrum(graph)]
    return None if None in ints else ints


class TestSpectrumViews:
    """`values` and `integral_values` read like the tuple-keyed dicts they
    replace, without storing one."""

    def test_integral_values_are_python_ints(self, units_graph):
        vals = spectrum(units_graph).integral_values
        assert all(type(v) is int for v in vals.values())
        assert type(vals[(1, 3)]) is int
        assert json.loads(json.dumps(vals[(1, 3)])) == -4

    @pytest.mark.parametrize("key", [(0, 9), (2, 0), (0, -1), (0,), (0, 0, 0), 5, "01"])
    def test_non_element_key_raises_key_error(self, units_graph, key):
        spec = spectrum(units_graph)
        for view in (spec.integral_values, spec.values):
            with pytest.raises(KeyError):
                view[key]
            assert key not in view
            assert view.get(key) is None

    def test_compares_as_dict(self, prism_graph):
        vals = spectrum(prism_graph).integral_values
        expected = {(0, 0): 3, (0, 1): 0, (0, 2): 0, (1, 0): 1, (1, 1): -2, (1, 2): -2}
        assert vals == expected and expected == vals
        assert vals != {**expected, (1, 2): 0}
        assert dict(vals) == expected

    def test_iteration_in_element_order(self, units_graph, cycle5):
        for graph in (units_graph, cycle5):
            spec = spectrum(graph)
            views = [spec.values] + ([spec.integral_values] if spec.is_integral else [])
            for view in views:
                assert list(view) == list(graph.group.elements())
                assert len(view) == graph.n

    def test_read_only(self, units_graph):
        vals = spectrum(units_graph).integral_values
        with pytest.raises(TypeError):
            vals[(0, 0)] = 0

    def test_non_integral_values_match_reference(self, cycle5):
        spec = spectrum(cycle5)
        assert spec.by_rank is None and spec.integral_values is None
        for z, ref in zip(cycle5.group.elements(), cyclotomic_spectrum(cycle5)):
            assert spec.values[z] == ref
            assert spec.approx(z) == spec.values[z].approx()

    def test_non_integral_spectrum_stores_no_count_vectors(self):
        # Z2 x Z20000: 40000 count vectors of length 20000 would take gigabytes.
        graph = quiet_graph([2, 20000], [(0, 1), (0, 19999), (1, 0)])
        tracemalloc.start()
        try:
            spec = spectrum(graph)
            value = spec.values[(1, 5000)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not spec.is_integral and value.as_integer() == -1  # -1 + i^1 + i^-1


class TestWalshMethod:
    def test_agrees_with_generic_on_two_groups(self):
        rng = random.Random(0xC0FFEE)
        shapes = [[2] * 3, [2] * 4, [2] * 5, [2] * 6, [2] * 8, [2] * 8]
        for orders in shapes:
            group = make_group(orders)
            for _ in range(100 // len(shapes)):
                s = random_symmetric_set(group, rng, prob=0.3)
                if not s:
                    continue
                graph = graph_from_set(group, s)
                assert spectrum(graph).by_rank.tolist() == reference_integers(graph)


class TestUnitClosed:
    def test_units_graph_closed(self, units_graph):
        assert is_integral(units_graph)

    def test_doubled_units_closed(self, doubled_units_graph):
        assert is_integral(doubled_units_graph)

    def test_prism_is_closed(self, prism_graph):
        assert is_integral(prism_graph)

    def test_nine_cycle_not_closed(self):
        assert not is_integral(quiet_graph([9], [(1,), (8,)]))

    def test_unit_closed_implies_integral(self, corpus):
        for name, graph in corpus:
            assert spectrum(graph).is_integral == is_integral(graph), name


class TestUnitOrbits:
    def test_units_graph_representatives(self, units_graph):
        # U(9) acting on (0, 1) is one orbit of six; (1, 0) is its own orbit.
        assert units_graph.unit_orbits == (((0, 1), 9), ((1, 0), 2))

    def test_orbits_partition_the_set(self, corpus):
        for name, graph in corpus:
            if graph.unit_orbits is None:
                continue
            G = graph.group
            sizes = [
                len({G.scale(k, s) for k in range(1, d) if math.gcd(k, d) == 1})
                for s, d in graph.unit_orbits
            ]
            assert sum(sizes) == graph.degree, name
            assert all(G.element_order(s) == d for s, d in graph.unit_orbits), name

    def test_missing_multiple_gives_none(self):
        # 2 * (0, 1) = (0, 2) is missing from the cycle-like set.
        assert quiet_graph([2, 9], [(0, 1), (0, 8), (1, 0)]).unit_orbits is None

    def test_empty_set_is_closed(self):
        assert quiet_graph([2, 3], []).unit_orbits == ()

    # Elements of orders 3, 4 and 6 (orbit {s, -s})
    # next to elements of orders 5, 8 and 12 (longer orbits).
    MIXED_ORDERS = [[12, 5], [8, 3], [24], [6, 4, 5], [2, 12, 2]]

    @pytest.mark.parametrize("orders", MIXED_ORDERS, ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_closure(self, orders, seed):
        group = make_group(orders)
        rng = random.Random(seed)
        sets = [
            random_unit_closed_set(group, rng, prob=0.3),
            random_unit_closed_set(group, rng, prob=0.6),
            random_symmetric_set(group, rng, prob=0.2),
        ]
        # a unit-closed set with one long orbit cut down to {s, -s}
        cut = random_unit_closed_set(group, rng, prob=0.5)
        long = [s for s in cut if group_order_brute(group, s) in (5, 8, 12)]
        if long:
            s = rng.choice(long)
            orbit = {group.scale(u, s) for u in fr.units_mod(group.exponent)}
            sets.append(sorted(set(cut) - orbit | {s, group.neg(s)}))
        for conn in sets:
            graph = graph_from_set(group, conn)
            assert graph.unit_orbits == unit_orbits_brute(graph), conn

    @pytest.mark.parametrize(
        "orders, long",
        [([12, 5], [(0, 1), (0, 4)]), ([8, 3], [(1, 0), (7, 0)])],
        ids=["order 5", "order 8"],
    )
    def test_defect_only_in_a_long_orbit(self, orders, long):
        # every element of order 2, 3, 4 or 6, plus one pair {s, -s} whose
        # other unit multiples are missing: not integral
        group = make_group(orders)
        short = [g for g in group.elements() if group_order_brute(group, g) in (2, 3, 4, 6)]
        graph = graph_from_set(group, short + long)
        assert unit_orbits_brute(graph) is None
        assert graph.unit_orbits is None
        closed = graph_from_set(group, short)
        assert closed.unit_orbits is not None
        assert closed.unit_orbits == unit_orbits_brute(closed)


def group_order_brute(group, s) -> int:
    """The least k >= 1 with k s = 0."""
    k, x = 1, s
    while x != group.zero:
        k, x = k + 1, group.add(x, s)
    return k


def unit_orbits_brute(graph):
    """CayleyGraph.unit_orbits by brute force: None unless S is closed under
    every unit of the exponent, else each orbit's least element and order."""
    G = graph.group
    members = set(graph.connection)
    units = fr.units_mod(G.exponent)
    if any(G.scale(u, s) not in members for s in members for u in units):
        return None
    orbits = {min(G.scale(u, s) for u in units) for s in members}
    return tuple((s, group_order_brute(G, s)) for s in sorted(orbits))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_bridges_mena_unit_closed_iff_integral(data):
    # Bridges-Mena (1982): an abelian Cayley graph is integral iff its set is
    # a union of unit orbits.  The exact generic spectrum is the referee.
    orders = data.draw(
        st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3).filter(
            lambda o: math.prod(o) <= 96
        )
    )
    group = make_group(orders)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**31)))
    if data.draw(st.booleans()):
        s = random_unit_closed_set(group, rng, prob=data.draw(st.sampled_from([0.1, 0.35])))
    else:
        s = random_symmetric_set(group, rng, prob=data.draw(st.sampled_from([0.1, 0.4])))
    graph = graph_from_set(group, s)
    assert is_integral(graph) == (reference_integers(graph) is not None)


def _family_graphs_up_to_100():
    yield from (
        fr.build_ramanujan_family(p, r, h).graph
        for p, r, h in [(3, 2, []), (5, 1, [3]), (3, 1, [5]), (7, 1, [3]), (5, 2, []), (3, 3, [])]
    )
    yield from (
        fr.build_multi_prime_family(pp).graph
        for pp in [[(2, 2), (3, 2)], [(2, 1), (5, 2)], [(2, 3), (3, 2)], [(2, 2), (5, 2)]]
    )
    yield fr.build_plateaued_family([9], [(u,) for u in fr.units_mod(9)]).graph
    yield fr.build_plateaued_family([27], [(u,) for u in fr.units_mod(27)]).graph
    yield fr.build_plateaued_family([3, 3], [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2)]).graph


class TestRamanujanMethod:
    """The unit-orbit Ramanujan kernel, and the spectrum built on it, against
    the generic cyclotomic reference."""

    def _check(self, graph, name):
        G = graph.group
        ref = cyclotomic_spectrum(graph)
        ints = [v.as_integer() for v in ref]
        orbits = [(s, d, 1) for s, d in graph.unit_orbits]
        assert ramanujan_transform(G, orbits).tolist() == ints, name
        fast = spectrum(graph)
        assert fast.by_rank.tolist() == ints, name
        assert fast.integral_values == dict(zip(G.elements(), ints)), name
        for z, v in zip(G.elements(), ref):
            assert fast.values[z] == v, (name, z)

    def test_corpus(self, corpus):
        checked = 0
        for name, graph in corpus:
            if is_integral(graph):
                self._check(graph, name)
                checked += 1
        assert checked >= 20

    def test_random_unit_closed_sets(self):
        rng = random.Random(0xBEAD)
        for orders in ([4, 6], [2, 2, 9], [8, 9], [6, 10], [2, 2, 2, 2]):
            group = make_group(orders)
            for i in range(4):
                s = random_unit_closed_set(group, rng, prob=rng.choice([0.1, 0.3]))
                self._check(graph_from_set(group, s), f"{orders}-{i}")

    def test_family_graphs(self):
        for graph in _family_graphs_up_to_100():
            assert graph.n <= 100
            self._check(graph, list(graph.group.orders))

    def test_values_view_is_read_only_and_lazy(self, units_graph):
        values = spectrum(units_graph).values
        assert len(values) == units_graph.n
        assert list(values) == list(units_graph.group.elements())
        assert values[(0, 0)].as_integer() == 7
        assert values[(0, 0)].modulus == 18
        with pytest.raises(TypeError):
            values[(0, 0)] = values[(0, 1)]

    def test_agrees_with_walsh_on_exponent_two(self):
        # On (Z2)^k every symmetric set is a union of unit orbits, so both
        # kernels apply; they must give the same integers.
        rng = random.Random(0xF00D)
        for k in range(1, 8):
            group = make_group([2] * k)
            for _ in range(6):
                graph = graph_from_set(group, random_symmetric_set(group, rng, prob=0.3))
                indicator = np.zeros(group.n, dtype=np.int64)
                for s in graph.connection:
                    indicator[group.rank(s)] = 1
                orbits = [(s, d, 1) for s, d in graph.unit_orbits]
                walsh = hadamard_transform(indicator).tolist()
                assert ramanujan_transform(group, orbits).tolist() == walsh, k

    def test_kernel_memory_is_linear_in_the_order(self):
        # (Z2)^16 x Z4, n = 2^18: an r x n coordinate array alone would be
        # 34 MiB; each pairing is built one factor at a time instead.
        orders = [2] * 16 + [4]
        group = make_group(orders)
        units = [tuple(int(i == j) for j in range(17)) for i in range(16)]
        rows = units + [(0,) * 16 + (1,), (0,) * 16 + (3,)]
        graph = graph_from_set(group, rows)
        tracemalloc.start()
        try:
            spec = spectrum(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # lambda(z) = sum of (-1)^z_i over the Z2 factors + 2 cos(pi z_17 / 2)
        r = np.arange(group.n)
        expected = 16 - 2 * np.bitwise_count(r >> 2).astype(np.int64) + np.array([2, 0, -2, 0])[r % 4]
        assert np.array_equal(spec.by_rank, expected)


class TestAdjacencyMatrix:
    def test_complete_graph_on_two(self, k2):
        assert np.array_equal(adjacency_matrix(k2), np.array([[0, 1], [1, 0]]))

    def test_symmetric_with_constant_row_sums(self, corpus):
        for name, graph in corpus:
            a = adjacency_matrix(graph)
            assert np.array_equal(a, a.T), name
            assert np.all(a.sum(axis=1) == graph.degree), name
            assert np.all(np.diag(a) == 0), name

    def test_empty_set_is_zero_matrix(self):
        g = quiet_graph([2, 3], [])
        assert not adjacency_matrix(g).any()

    def test_eigenvalues_match_exact_spectrum(self, corpus):
        for name, graph in corpus:
            if graph.n > 64:
                continue
            eigs = np.linalg.eigvalsh(adjacency_matrix(graph).astype(float))
            expected = sorted(
                spectrum(graph).values[g].approx().real for g in graph.group.elements()
            )
            assert np.allclose(sorted(eigs), expected, atol=1e-9), name


class TestConnectivity:
    def test_units_connected(self, units_graph):
        assert units_graph.connected

    def test_disconnected_detected(self):
        g = quiet_graph([2, 3], [(0, 1), (0, 2)])
        assert not g.connected

    def test_make_graph_warns_when_disconnected(self):
        with pytest.warns(DisconnectedGraphWarning):
            make_graph([2, 3], [(0, 1), (0, 2)])

    @pytest.mark.parametrize(
        "read",
        [lambda doc: make_graph(doc["group"], doc["set"]), graph_from_json],
        ids=["make_graph", "graph_from_json"],
    )
    def test_disconnected_warning_names_the_caller(self, read):
        with pytest.warns(DisconnectedGraphWarning) as record:
            read({"group": [2, 3], "set": [[0, 1], [0, 2]]})
        assert [w.filename for w in record] == [__file__]

    def test_make_graph_quiet_when_connected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_graph([2, 3], [(1, 0), (0, 1), (0, 2)])

    def test_ten_thousand_vertices_without_enumeration(self):
        # Z2 x Z4 x Z1250 with S = {(a, b, u) : u a unit mod 1250}, |S| = 4000
        rows = [(a, b, u) for a in range(2) for b in range(4) for u in fr.units_mod(1250)]
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = make_graph([2, 4, 1250], rows)
        assert time.perf_counter() - start < 1.0
        assert graph.degree == 4000 and graph.connected
        # a = 0 and b even: these rows only reach {0} x 2Z4 x Z1250
        sub = [r for r in rows if r[0] == 0 and r[1] % 2 == 0]
        assert len(sub) == 1000
        with pytest.warns(DisconnectedGraphWarning):
            assert not make_graph([2, 4, 1250], sub).connected


class TestJson:
    def test_roundtrip(self, corpus, tmp_path):
        for name, graph in corpus:
            doc = graph_to_json(graph)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DisconnectedGraphWarning)
                back = graph_from_json(json.dumps(doc))
            assert back.group.orders == graph.group.orders, name
            assert back.connection.elements == graph.connection.elements, name

    def test_document_shape(self, prism_graph):
        doc = graph_to_json(prism_graph)
        assert doc == {"group": [2, 3], "set": [[0, 1], [0, 2], [1, 0]]}

    def test_reduces_coordinates_on_read(self):
        doc = {"group": [2, 3], "set": [[0, 1], [0, -1], [3, 0]]}
        graph = graph_from_json(json.dumps(doc))
        assert graph.connection.elements == ((0, 1), (0, 2), (1, 0))

    def test_rejects_invalid_json(self):
        with pytest.raises(SpecFormatError):
            graph_from_json("{not json")

    def test_rejects_nesting_too_deep_to_decode(self):
        with pytest.raises(SpecFormatError, match="invalid JSON"):
            graph_from_json("[" * 200000)

    def test_rejects_an_integer_past_the_digit_limit(self):
        # json.loads raises a bare ValueError for it, not a JSONDecodeError
        with pytest.raises(SpecFormatError, match="invalid JSON: Exceeds the limit"):
            graph_from_json('{"group": [2], "set": [[' + "1" * 5000 + "]]}")

    def test_rejects_missing_keys(self):
        with pytest.raises(SpecFormatError):
            graph_from_json(json.dumps({"group": [2, 3]}))

    def test_rejects_bad_row_length(self):
        doc = {"group": [2, 3], "set": [[0, 1, 0]]}
        with pytest.raises(SpecFormatError):
            graph_from_json(json.dumps(doc))

    def test_rejects_non_list_group(self):
        with pytest.raises(SpecFormatError):
            graph_from_json(json.dumps({"group": "23", "set": []}))

    # A document with several faults is refused for the first of: a
    # wrong-typed row, the group, a short or long row, the zero element, an
    # asymmetric element.
    @pytest.mark.parametrize(
        "doc, error, message",
        [
            (
                {"group": [1, 3], "set": [[0, 1], [0, True]]},
                SpecFormatError,
                "field 'set' must hold integers, got True",
            ),
            (
                {"group": [2048, 1024], "set": [[0, 1], [0, 1.5]]},
                SpecFormatError,
                "field 'set' must hold integers, got 1.5",
            ),
            (
                {"group": [1, 3], "set": [[0, 1], [0]]},
                fr.InvalidGroupError,
                "cyclic factor order must be an integer >= 2, got 1",
            ),
            (
                {"group": [2048, 1024], "set": [[0, 1], [0]]},
                fr.InvalidGroupError,
                "group order exceeds the ceiling of 1048576 elements",
            ),
            (
                {"group": [2, 3], "set": [[0], [0, True]]},
                SpecFormatError,
                "field 'set' must hold integers, got True",
            ),
            (
                {"group": [2, 3], "set": [[0, 0], [0], [0, 1, 2]]},
                SpecFormatError,
                "coordinate row [0] has 1 entries, expected 2",
            ),
            (
                {"group": [2, 5], "set": [[0, 1], [1, 7], [0, 5]]},
                ZeroInSetError,
                "the connection set must not contain the identity",
            ),
            (
                {"group": [3, 100], "set": [[0, 37], [1, 3], [2, 50]]},
                AsymmetricSetError,
                "element (2, 50) is in the set but its inverse (1, 50) is not",
            ),
        ],
        ids=[
            "bad-group-then-bool",
            "ceiling-then-float",
            "bad-group-then-short",
            "ceiling-then-short",
            "short-then-bool",
            "zero-then-short-then-long",
            "asymmetric-then-zero",
            "three-asymmetric",
        ],
    )
    def test_first_fault_is_reported(self, doc, error, message):
        with pytest.raises(error) as caught:
            graph_from_json(doc)
        assert str(caught.value) == message


def read_outcome(reader, doc):
    """What a reader makes of doc: the group, the set and the warnings, or
    the type and text of the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = reader(doc)
        except fr.FrCayleyError as exc:
            return type(exc), str(exc)
    return graph.group.orders, graph.connection.elements, [str(w.message) for w in caught]


@st.composite
def graph_documents(draw):
    """Graph documents: the rows of a random set, most often made
    symmetric and zero-free, each coordinate c written as c + k m with k
    from -2^70 to 2^70, rows repeated; now and then one row made faulty."""
    orders = draw(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=3))
    group = make_group(orders)
    element = st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in orders))
    elements = draw(st.lists(element, max_size=8))
    if draw(st.integers(min_value=0, max_value=3)):
        elements = [g for g in elements if any(g)]
        elements += [group.neg(g) for g in elements]
    lift = st.one_of(
        st.just(0), st.integers(min_value=-3, max_value=3), st.integers(-(2**70), 2**70)
    )
    rows = [[c + m * draw(lift) for c, m in zip(g, orders)] for g in elements]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    rows = draw(st.permutations(rows))
    if rows and not draw(st.integers(min_value=0, max_value=4)):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[i] = draw(
            st.one_of(
                st.just(rows[i][:-1]),
                st.just(rows[i] + [0]),
                st.just(tuple(rows[i])),
                st.sampled_from([True, 1.5, None, "1", 0]).map(lambda c: rows[i][:-1] + [c]),
            )
        )
    return {"group": orders, "set": rows}


class TestReaderAgreesWithPerRowReader:
    """graph_from_json checks and reduces the set by columns; the per-row
    reader it replaced is the reference, for the graph, the warnings and
    the type and text of the first fault."""

    @settings(max_examples=300, deadline=None)
    @given(graph_documents())
    def test_random_documents(self, doc):
        assert read_outcome(graph_from_json, doc) == read_outcome(graph_from_json_by_rows, doc)

    @pytest.mark.parametrize(
        "doc", [case[1] for case in GRAPH_SPEC_FAULTS], ids=[case[0] for case in GRAPH_SPEC_FAULTS]
    )
    def test_first_fault_documents(self, doc):
        outcome = read_outcome(graph_from_json, doc)
        assert outcome == read_outcome(graph_from_json_by_rows, doc)
        assert issubclass(outcome[0], fr.FrCayleyError)

    def test_empty_set_and_subclassed_rows(self):
        class Row(list):
            pass

        for rows in ([], [Row([0, 1]), Row([0, 2])], [[0, 1], Row([0, -1])]):
            doc = {"group": [2, 3], "set": rows}
            assert read_outcome(graph_from_json, doc) == read_outcome(graph_from_json_by_rows, doc)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_spectra_match_naive_oracle(data):
    orders = data.draw(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3)
    )
    group = make_group(orders)
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    s = random_symmetric_set(group, rng)
    graph = graph_from_set(group, s)
    exact = spectrum(graph)
    naive = naive_spectrum_complex(graph)
    for i, g in enumerate(group.elements()):
        assert abs(exact.values[g].approx() - naive[i]) < 1e-9
