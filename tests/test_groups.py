"""Group construction, characters, element orders, involutions, units."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import InvalidGroupError, RootOfUnitySum, make_group, units_mod
from frcayley.groups import (
    MAX_GROUP_ORDER,
    _coprime_stride,
    _rank_mod,
    _reduced_rows,
    _stride_order,
)

# Small random groups for property tests: one to three cyclic factors.
group_orders = st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3)


def elements_of(orders):
    return make_group(orders).elements()


class TestMakeGroup:
    def test_mixed_orders(self):
        g = make_group([2, 9])
        assert g.n == 18
        assert g.exponent == 18  # lcm(2, 9)

    def test_elementary_two_group(self):
        g = make_group([2, 2, 2, 2, 2])
        assert g.n == 32
        assert g.exponent == 2

    def test_rejects_order_one(self):
        with pytest.raises(InvalidGroupError):
            make_group([2, 1])

    def test_rejects_empty(self):
        with pytest.raises(InvalidGroupError):
            make_group([])

    def test_order_ceiling(self):
        assert make_group([2, MAX_GROUP_ORDER // 2]).n == MAX_GROUP_ORDER
        with pytest.raises(InvalidGroupError, match="ceiling"):
            make_group([2, MAX_GROUP_ORDER // 2 + 1])
        with pytest.raises(InvalidGroupError, match="ceiling"):
            make_group([2] * 10**6)

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidGroupError):
            make_group([2, "9"])

    @settings(deadline=None)
    @given(group_orders)
    def test_order_and_exponent(self, orders):
        g = make_group(orders)
        assert g.n == math.prod(orders)
        assert g.exponent == math.lcm(*orders)
        assert g.n % g.exponent == 0


class TestElementIteration:
    def test_lexicographic(self):
        g = make_group([2, 3])
        assert list(g.elements()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    @settings(deadline=None)
    @given(group_orders)
    def test_sorted_and_complete(self, orders):
        g = make_group(orders)
        elems = list(g.elements())
        assert len(elems) == g.n
        assert elems == sorted(elems)

    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_rank_unrank_roundtrip(self, orders, data):
        g = make_group(orders)
        idx = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        assert g.rank(g.unrank(idx)) == idx
        elems = list(g.elements())
        assert g.unrank(idx) == elems[idx]


class TestRequireAndReduce:
    def test_require_valid(self):
        g = make_group([2, 9])
        assert g.require_element((1, 8)) == (1, 8)

    def test_require_wrong_length(self):
        g = make_group([2, 9])
        with pytest.raises(ValueError):
            g.require_element((1,))

    def test_require_out_of_range(self):
        g = make_group([2, 9])
        with pytest.raises(ValueError):
            g.require_element((0, 9))


class TestCharacterExponent:
    def test_trivial_character(self):
        g = make_group([2, 9])
        for h in g.elements():
            assert g.character_exponent((0, 0), h) == 0

    def test_mixed_pairing(self):
        # (18/2)*(1*1 mod 2) + (18/9)*((3*6) mod 9) = 9 + 0 = 9, i.e. value -1.
        g = make_group([2, 9])
        assert g.character_exponent((1, 3), (1, 6)) == 9

    def test_sign_character(self):
        g = make_group([2])
        assert g.character_exponent((1,), (1,)) == 1

    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_symmetric(self, orders, data):
        g = make_group(orders)
        elems = list(g.elements())
        a = data.draw(st.sampled_from(elems))
        b = data.draw(st.sampled_from(elems))
        assert g.character_exponent(a, b) == g.character_exponent(b, a)

    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_biadditive(self, orders, data):
        g = make_group(orders)
        elems = list(g.elements())
        a = data.draw(st.sampled_from(elems))
        b = data.draw(st.sampled_from(elems))
        h = data.draw(st.sampled_from(elems))
        lhs = g.character_exponent(g.add(a, b), h)
        rhs = (g.character_exponent(a, h) + g.character_exponent(b, h)) % g.exponent
        assert lhs == rhs

    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_orthogonality(self, orders, data):
        # sum_h chi_g(h) is n for g = 0 and exactly 0 otherwise, checked in
        # exact cyclotomic arithmetic.
        g = make_group(orders)
        elems = list(g.elements())
        a = data.draw(st.sampled_from(elems))
        e = g.exponent
        counts = [0] * e
        for h in elems:
            counts[g.character_exponent(a, h)] += 1
        total = RootOfUnitySum(e, tuple(counts))
        expected = g.n if a == g.zero else 0
        assert total.as_integer() == expected


class TestElementOrder:
    @pytest.mark.parametrize(
        "orders,g,expected",
        [([2, 9], (1, 0), 2), ([2, 9], (0, 3), 3), ([4], (2,), 2)],
    )
    def test_frozen(self, orders, g, expected):
        assert make_group(orders).element_order(g) == expected

    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_order_is_minimal_annihilator(self, orders, data):
        g = make_group(orders)
        x = data.draw(st.sampled_from(list(g.elements())))
        m = g.element_order(x)
        assert g.n % m == 0
        assert g.scale(m, x) == g.zero
        for divisor in range(1, m):
            if m % divisor == 0:
                assert g.scale(divisor, x) != g.zero


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=4), st.data())
    def test_one_gcd_is_the_lcm_of_the_factor_orders(self, orders, data):
        g = make_group(orders)
        x = data.draw(
            st.one_of(st.just(g.zero), st.tuples(*(st.integers(0, m - 1) for m in orders)))
        )
        expected = math.lcm(*(m // math.gcd(m, c) for c, m in zip(x, orders)))
        assert g.element_order(x) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=4), st.data())
    def test_unit_orbit_is_the_scaled_units(self, orders, data):
        # the orbit of x, as the walk is given it, is one orbit: its least
        # element with the order of x (1 for the zero, also on a cube)
        g = make_group(orders)
        x = data.draw(
            st.one_of(st.just(g.zero), st.tuples(*(st.integers(0, m - 1) for m in orders)))
        )
        d = math.lcm(*(m // math.gcd(m, c) for c, m in zip(x, orders)))
        orbit = sorted({g.scale(k, x) for k in range(1, max(d, 2)) if math.gcd(k, d) == 1})
        assert g.unit_orbits(orbit) == (((orbit[0], d),), None)


class TestUnitOrbitWalk:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3), st.data())
    def test_agrees_with_brute_force(self, orders, data):
        # a random set, or a random union of unit orbits less at most one
        # element: the first s in sorted order with a multiple outside and
        # the least unit k with k s outside, else the orbits
        g = make_group(orders)
        elements = list(g.elements())
        members = {elements[i] for i in data.draw(st.sets(st.integers(0, g.n - 1), max_size=30))}
        if data.draw(st.booleans()):
            members = {g.scale(u, x) for x in members for u in units_mod(g.exponent)}
            if members and data.draw(st.booleans()):
                members.remove(data.draw(st.sampled_from(sorted(members))))
        members = sorted(members)

        def misses(s):
            d = g.element_order(s)
            units = [k for k in range(1, max(d, 2)) if math.gcd(k, d) == 1]
            return [k for k in units if g.scale(k, s) not in members]

        faults = [(s, misses(s)[0]) for s in members if misses(s)]
        if faults:
            assert g.unit_orbits(members) == (None, faults[0])
        else:
            reps = sorted({min(g.scale(u, s) for u in units_mod(g.exponent)) for s in members})
            assert g.unit_orbits(members) == (tuple((s, g.element_order(s)) for s in reps), None)


class TestInvolutions:
    def test_unique_involution(self):
        assert make_group([2, 9]).involutions() == [(1, 0)]

    def test_elementary_two_group(self):
        invs = make_group([2, 2, 2]).involutions()
        assert len(invs) == 7
        assert (0, 0, 0) not in invs

    def test_odd_order_empty(self):
        assert make_group([9]).involutions() == []

    @settings(deadline=None)
    @given(group_orders)
    def test_matches_brute_force(self, orders):
        g = make_group(orders)
        brute = [x for x in g.elements() if x != g.zero and g.add(x, x) == g.zero]
        assert g.involutions() == brute
        assert (len(brute) == 0) == (g.n % 2 == 1)


class TestUnits:
    def test_units_mod_9(self):
        assert units_mod(9) == [1, 2, 4, 5, 7, 8]

    def test_units_mod_2(self):
        assert units_mod(2) == [1]

    def test_units_mod_12(self):
        assert units_mod(12) == [1, 5, 7, 11]

    def test_units_mod_1_empty(self):
        assert units_mod(1) == []

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_units_are_coprime_and_closed(self, e):
        us = units_mod(e)
        assert all(math.gcd(u, e) == 1 for u in us)
        assert us == sorted(us)
        if e > 1:
            assert all((a * b) % e in us for a in us for b in us)


class TestSubgroupGenerated:
    def test_single_generator(self):
        g = make_group([2, 9])
        assert len(g.subgroup_generated([(0, 1)])) == 9

    def test_full_group(self):
        g = make_group([2, 9])
        assert len(g.subgroup_generated([(1, 0), (0, 1)])) == 18

    def test_empty(self):
        g = make_group([2, 9])
        assert g.subgroup_generated([]) == {(0, 0)}

    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_closure_is_subgroup(self, orders, data):
        g = make_group(orders)
        elems = list(g.elements())
        gens = data.draw(st.lists(st.sampled_from(elems), max_size=3))
        sub = g.subgroup_generated(gens)
        assert g.zero in sub
        # Every pairwise sum lies in sub, checked on coordinate arrays: |sub|^2
        # calls to g.add can overrun the default deadline on a loaded host.
        coords = np.array(sorted(sub), dtype=np.int64)
        sums = (coords[:, None, :] + coords[None, :, :]) % np.array(g.orders)
        in_sub = np.zeros(g.orders, dtype=bool)
        in_sub[tuple(coords.T)] = True
        assert in_sub[tuple(np.moveaxis(sums, -1, 0))].all()
        assert g.n % len(sub) == 0


class TestIsGeneratedBy:
    """The Frattini rank test against the breadth-first closure."""

    def test_small_cases(self):
        g = make_group([2, 9])
        assert g.is_generated_by([(1, 0), (0, 1)])
        assert g.is_generated_by([(1, 1)])
        assert not g.is_generated_by([(0, 1)])
        assert not g.is_generated_by([(1, 3), (0, 3)])
        assert not g.is_generated_by([])

    def test_repeated_prime_needs_full_rank(self):
        # (1, 1) alone has order 4 in Z4 x Z4; adding (0, 2) gives rank 1
        # mod 2 only, (0, 1) gives rank 2.
        g = make_group([4, 4])
        assert not g.is_generated_by([(1, 1), (0, 2), (2, 2)])
        assert g.is_generated_by([(1, 1), (0, 1)])

    def test_one_vector_mod_p_repeated(self):
        # mod 2 every row is (1, 0) on the even factors Z4 and Z6: rank 1 of 2
        g = make_group([4, 6, 5])
        rows = [(1 + 2 * (j % 2), 2 * (j % 3), j % 5) for j in range(60)]
        for gens in (rows, rows + [(0, 1, 0)], rows + [(0, 3, 0)] * 5 + [(0, 1, 0)]):
            assert g.is_generated_by(gens) == (len(g.subgroup_generated(gens)) == g.n)
        assert not g.is_generated_by(rows)
        assert g.is_generated_by(rows + [(0, 3, 0)] * 5 + [(0, 1, 0)])

    def test_full_rank_only_at_the_last_row(self):
        # the rows of family A on Z2 x Z9 x Z5, sorted: (1, 0, 0) comes last
        # and alone reaches the Z2 factor
        g = make_group([2, 9, 5])
        rows = sorted([(0, u, x) for u in units_mod(9) for x in range(5)] + [(1, 0, 0)])
        assert rows[-1] == (1, 0, 0)
        assert g.is_generated_by(rows) and len(g.subgroup_generated(rows)) == g.n
        assert not g.is_generated_by(rows[:-1])
        assert len(g.subgroup_generated(rows[:-1])) == g.n // 2

    def test_rank_stops_at_full_rank(self):
        class Reads(list):
            # a row list that fails when read past its first `limit` rows
            def __init__(self, rows, limit):
                super().__init__(rows)
                self.limit = limit

            def __iter__(self):
                for i, row in enumerate(list.__iter__(self)):
                    if i >= self.limit:
                        raise AssertionError(f"row {i} read after full rank")
                    yield row

        rows = [(1, 0), (1, 0), (0, 1), (1, 1)] + [(0, 0)] * 100
        assert _rank_mod(_reduced_rows(Reads(rows, 3), (0, 1), 2), 2, 2)[0]
        assert not _rank_mod(_reduced_rows(Reads(rows[:2] + rows[4:], 200), (0, 1), 2), 2, 2)[0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([[4, 8], [9, 3, 6], [2, 2, 2, 2], [6, 10, 15], [8, 4, 2]]),
            st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4).filter(
                lambda o: math.prod(o) <= 1000
            ),
        ),
        st.data(),
    )
    def test_agrees_with_closure(self, orders, data):
        g = make_group(orders)
        element = st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in orders))
        gens = data.draw(st.lists(element, max_size=6))
        # redundant generators: sums, multiples and repeats of earlier ones
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            if gens:
                x = data.draw(st.sampled_from(gens))
                y = data.draw(st.sampled_from(gens))
                gens.append(g.add(x, g.scale(data.draw(st.integers(0, 5)), y)))
        assert g.is_generated_by(gens) == (len(g.subgroup_generated(gens)) == g.n)


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3).filter(
            lambda o: math.prod(o) <= 200
        ),
        st.data(),
    )
    def test_agrees_with_closure_on_sorted_lifts(self, h_orders, data):
        # {0} x S0, {1} x S1 and a = (1, 0, ..., 0) on Z_2 x H, sorted: the
        # lift of S0 comes first and lies in the hyperplane x_0 = 0
        g = make_group([2, *h_orders])
        element = st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in h_orders))
        s0 = data.draw(st.lists(element, max_size=12))
        s1 = data.draw(st.lists(element, max_size=3))
        rows = {(0, *s) for s in s0} | {(1, *s) for s in s1}
        if data.draw(st.booleans()):
            rows.add((1,) + (0,) * len(h_orders))
        rows = sorted(rows)
        assert g.is_generated_by(rows) == (len(g.subgroup_generated(rows)) == g.n)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3).filter(
            lambda o: math.prod(o) <= 200
        ),
        st.data(),
    )
    def test_only_completing_row_sorts_last(self, h_orders, data):
        # {0} x S0 with S0 generating H, then one row (1, x), the largest:
        # the set generates Z_2 x H, and no set without that row does
        g = make_group([2, *h_orders])
        element = st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in h_orders))
        units = [tuple(int(i == j) for j in range(len(h_orders))) for i in range(len(h_orders))]
        s0 = units + data.draw(st.lists(element, max_size=10))
        rows = sorted({(0, *s) for s in s0}) + [(1, *data.draw(element))]
        assert rows[-1] == max(rows)
        assert g.is_generated_by(rows) and len(g.subgroup_generated(rows)) == g.n
        assert not g.is_generated_by(rows[:-1])

    def test_one_factor_prime_is_one_column_scan(self):
        # Family A on Z2 x Z49 x Z5, |S| = 211: each prime's columns are one
        # factor, so each is decided by scanning that column in the order
        # given, to its first row nonzero mod p, with no reduction.  The
        # Z2 column is nonzero only at (1, 0, 0), the last row (211 read);
        # the Z49 column mod 7 at the first row (1); the Z5 column at the
        # second, (0, 1, 1) (2).
        graph = fr.build_ramanujan_family(7, 2, [5]).graph
        rows = graph.connection.elements
        assert len(rows) == 211 and rows[-1] == (1, 0, 0)
        assert graph.group.rank_test_counts(rows) == (214, 0)
        assert graph.connected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 25]), min_size=1, max_size=3).filter(
            lambda o: math.prod(o) <= 400
        ),
        st.data(),
    )
    def test_column_scans_read_to_the_first_nonzero_row(self, orders, data):
        # Up to the first prime with two columns or more, the counts are
        # those of _rank_mod on each column in the order given; the answer
        # is that of the breadth-first closure
        g = make_group(orders)
        element = st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in orders))
        rows = data.draw(st.lists(element, max_size=12))
        expected_read = 0
        for p, cols in g._frattini_columns:
            full, read, reductions = _rank_mod(_reduced_rows(rows, cols, p), len(cols), p)
            if len(cols) > 1:
                break
            assert reductions == 0
            expected_read += read
            if not full:
                break
        else:
            assert g.rank_test_counts(rows) == (expected_read, 0)
        assert g.is_generated_by(rows) == (len(g.subgroup_generated(rows)) == g.n)

    def test_stride_order_is_a_permutation(self):
        for n in range(40):
            rows = [(i,) for i in range(n)]
            assert sorted(_stride_order(rows, _coprime_stride(n))) == rows

    def test_stride_reaches_full_rank_early_on_a_sorted_lift(self):
        # The family-E lift of a bent function on F_2^8 of weight 136:
        # |S| = 273 on (Z2)^9, its first 136 rows in the hyperplane x_0 = 0.
        # In sorted order the rank test reads 137 rows and makes 536
        # reductions; in the stride order it makes few.
        f = fr.BooleanFunction.from_hex(
            "94339964eb23e674c8d2c585b7c2ba95f0a8fdff8fb882efac49a11ed359de0e"
        )
        graph = fr.build_bent_family(f).graph
        rows = graph.connection.elements
        assert len(rows) == 273
        assert _rank_mod(_reduced_rows(rows, range(9), 2), 9, 2) == (True, 137, 536)
        # the counts of the loop that is_generated_by, and so
        # CayleyGraph.connected, runs
        read, reductions = graph.group.rank_test_counts(rows)
        assert read <= 20 and reductions <= 40
        assert graph.connected


class TestAddNegScale:
    @settings(deadline=None)
    @given(group_orders, st.data())
    def test_group_laws(self, orders, data):
        g = make_group(orders)
        elems = list(g.elements())
        x = data.draw(st.sampled_from(elems))
        y = data.draw(st.sampled_from(elems))
        assert g.add(x, g.neg(x)) == g.zero
        assert g.add(x, y) == g.add(y, x)
        assert g.scale(2, x) == g.add(x, x)
