"""Boolean functions: Walsh spectra, bent/semi-bent classes, group Fourier."""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import (
    BooleanClass,
    BooleanFunction,
    GroupFunction,
    NotClassFunctionError,
    classify_boolean,
    eigenvalues_from_walsh,
    fourier_integers,
    hadamard_transform,
    is_class_function,
    make_group,
    mm_bent,
    plateaued_level,
    spectrum,
    support,
    support_size_check,
    units_mod,
    walsh_transform,
)
from conftest import BENT4_SUPPORT, UNITS_9
from helpers import (
    graph_of_support,
    naive_walsh,
    random_invertible_gf2,
    transform_boolean,
)
from reference import group_fourier


def boolean_tables(max_n=4, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=1),
                min_size=1 << n,
                max_size=1 << n,
            ),
        )
    )


class TestHadamardTransform:
    def test_frozen_small_case(self):
        assert hadamard_transform([1, 0, 0, 1]).tolist() == [2, 0, 0, 2]

    def test_identity_on_singleton(self):
        assert hadamard_transform([5]).tolist() == [5]

    def test_rejects_non_power_of_two(self):
        # and any input that is not one vector: a 2-D stack or a 0-d scalar
        for values in ([1, 2, 3], [[1, 0], [0, 1]], 4):
            with pytest.raises(ValueError):
                hadamard_transform(values)

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=16))
    def test_matches_naive_on_padded_input(self, raw):
        size = 1 << max(0, (len(raw) - 1).bit_length())
        vals = (raw + [0] * size)[:size]
        n = size.bit_length() - 1
        got = hadamard_transform(vals)
        expected = [
            sum(
                v * (1 if bin(i & j).count("1") % 2 == 0 else -1)
                for j, v in enumerate(vals)
            )
            for i in range(size)
        ]
        assert got.tolist() == expected

    @pytest.mark.parametrize("k", range(9))
    def test_matches_walsh_matrix_up_to_256(self, k):
        n = 1 << k
        vals = np.random.default_rng(k).integers(-(2**40), 2**40, size=n)
        i = np.arange(n)
        walsh = 1 - 2 * (np.bitwise_count(i[:, None] & i[None, :]) % 2).astype(np.int64)
        got = hadamard_transform(vals.tolist())
        assert got.dtype == np.int64
        assert np.array_equal(got, walsh @ vals)

    def test_leaves_its_input_unchanged(self):
        vals = np.arange(8, dtype=np.int64)
        hadamard_transform(vals)
        assert vals.tolist() == list(range(8))

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4))
    def test_involutive_up_to_scale(self, vals):
        twice = hadamard_transform(hadamard_transform(vals))
        assert twice.tolist() == [4 * v for v in vals]


class TestBooleanFunction:
    def test_from_hex_roundtrip(self):
        f = BooleanFunction.from_hex("7888")
        assert f.n == 4
        assert f.weight == 6
        assert f.to_hex() == "7888"

    def test_from_hex_infers_arity(self):
        assert BooleanFunction.from_hex("6").n == 2

    def test_rejects_bad_hex(self):
        with pytest.raises(fr.SpecFormatError):
            BooleanFunction.from_hex("xyz")

    def test_rejects_non_power_of_two_bit_count(self):
        with pytest.raises(fr.SpecFormatError):
            BooleanFunction.from_hex("788")

    def test_from_support_matches_calls(self):
        f = BooleanFunction.from_support(4, BENT4_SUPPORT)
        for x in f.group.elements():
            assert f(x) == (1 if x in BENT4_SUPPORT else 0)

    @given(boolean_tables(min_n=2))
    def test_hex_roundtrip_random(self, pair):
        # Hex packs four bits per digit, so only n >= 2 round-trips.
        n, table = pair
        f = BooleanFunction(n, tuple(table))
        assert BooleanFunction.from_hex(f.to_hex()).table == f.table

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32),
        st.randoms(use_true_random=False),
    )
    def test_hex_text_roundtrip_keeps_leading_zeros(self, k, zeros, rnd):
        digits = "".join(rnd.choice("0123456789abcdef") for _ in range(2**k))
        text = ("0" * (zeros % (2**k + 1)) + digits)[: 2**k]
        f = BooleanFunction.from_hex(text)
        value = int(text, 16)
        assert f.table == tuple((value >> j) & 1 for j in range(4 * 2**k))
        assert f.to_hex() == text

    def test_large_table_is_linear(self):
        # 2^17 digits: a shift or a big-int sum per bit takes seconds here
        rnd = random.Random(17)
        text = "".join(rnd.choice("0123456789abcdef") for _ in range(2**17))
        start = time.perf_counter()
        f = BooleanFunction.from_hex(text)
        assert f.to_hex() == text
        assert time.perf_counter() - start < 0.5


class TestWalshTransform:
    def test_constant_zero(self):
        f = BooleanFunction(2, (0, 0, 0, 0))
        assert walsh_transform(f).values.tolist() == [4, 0, 0, 0]

    def test_single_variable(self):
        # f(x1, x2) = x1: the sign vector correlates exactly with chi_(1,0),
        # which sits at index 2 under the first-coordinate-is-MSB layout.
        f = BooleanFunction(2, (0, 0, 1, 1))
        assert walsh_transform(f).values.tolist() == [0, 0, 4, 0]

    def test_bent_function_is_flat(self):
        w = walsh_transform(mm_bent(4))
        assert set(np.abs(w.values).tolist()) == {4}

    def test_distinct_values(self):
        assert walsh_transform(mm_bent(4)).distinct() == {4, -4}

    @given(boolean_tables())
    def test_matches_naive_definition(self, pair):
        n, table = pair
        f = BooleanFunction(n, tuple(table))
        assert walsh_transform(f).values.tolist() == naive_walsh(f)

    @given(boolean_tables())
    def test_parseval(self, pair):
        n, table = pair
        f = BooleanFunction(n, tuple(table))
        w = walsh_transform(f).values.astype(object)
        assert int(sum(v * v for v in w)) == 1 << (2 * n)


class TestSupport:
    def test_bent_support_sorted(self):
        f = BooleanFunction.from_hex("7888")
        assert support(f) == sorted(BENT4_SUPPORT)

    def test_empty_support(self):
        assert support(BooleanFunction(2, (0, 0, 0, 0))) == []

    def test_all_ones(self):
        assert support(BooleanFunction(1, (1, 1))) == [(0,), (1,)]


class TestClassify:
    def test_quadratic_bent(self):
        assert classify_boolean(mm_bent(4)) == BooleanClass.BENT

    def test_complement_is_bent(self):
        f = mm_bent(4)
        comp = BooleanFunction(4, tuple(1 - v for v in f.table))
        assert classify_boolean(comp) == BooleanClass.BENT

    def test_two_variable_product_is_bent(self):
        assert classify_boolean(mm_bent(2)) == BooleanClass.BENT

    def test_constant_zero_on_four_variables_is_neither(self):
        f = BooleanFunction(4, (0,) * 16)
        assert classify_boolean(f) == BooleanClass.NEITHER

    def test_semi_bent_on_four_variables(self):
        # x1 x2 viewed as a function of four variables: Walsh values are
        # 0 and ±8 = ±2^(4/2 + 1).
        table = tuple(1 if (i >> 3) & (i >> 2) & 1 else 0 for i in range(16))
        f = BooleanFunction(4, table)
        assert walsh_transform(f).distinct() <= {0, 8, -8}
        assert classify_boolean(f) == BooleanClass.SEMI_BENT

    def test_odd_arity_never_qualifies(self):
        f = BooleanFunction(3, (0, 1, 1, 0, 1, 0, 0, 1))
        assert classify_boolean(f) == BooleanClass.NEITHER

    @given(boolean_tables(), st.integers(min_value=0, max_value=2**31))
    def test_classification_is_affine_invariant(self, pair, seed):
        # A coordinate change by an invertible matrix, an added linear form,
        # and a complement permute the Walsh value multiset up to sign, so
        # the class is unchanged.
        n, table = pair
        f = BooleanFunction(n, tuple(table))
        rng = random.Random(seed)
        mat = random_invertible_gf2(rng, n)
        shift = [rng.randrange(2) for _ in range(n)]
        g = transform_boolean(f, mat, shift, rng.randrange(2))
        assert classify_boolean(g) == classify_boolean(f)


class TestSupportSizeCheck:
    def test_bent_four(self):
        assert support_size_check(mm_bent(4)) == 6

    def test_bent_four_complemented(self):
        f = mm_bent(4)
        comp = BooleanFunction(4, tuple(1 - v for v in f.table))
        assert support_size_check(comp) == 10

    def test_bent_six(self):
        assert support_size_check(mm_bent(6)) == 28


class TestEigenvaluesFromWalsh:
    def test_bent_four_frozen(self):
        lam = eigenvalues_from_walsh(BooleanFunction.from_hex("7888"))
        assert lam[0] == 6
        assert set(lam[1:].tolist()) == {2, -2}

    def test_matches_cayley_spectrum(self):
        for f in [mm_bent(4), mm_bent(6), BooleanFunction.from_hex("7888")]:
            if f(f.group.zero):
                continue
            graph = graph_of_support(f)
            lam = eigenvalues_from_walsh(f)
            exact = spectrum(graph).integral_values
            for i, z in enumerate(f.group.elements()):
                assert lam[i] == exact[z]

    @given(boolean_tables())
    def test_matches_cayley_spectrum_random(self, pair):
        n, table = pair
        table = list(table)
        table[0] = 0  # no loops
        f = BooleanFunction(n, tuple(table))
        graph = graph_of_support(f)
        lam = eigenvalues_from_walsh(f)
        exact = spectrum(graph).integral_values
        for i, z in enumerate(f.group.elements()):
            assert lam[i] == exact[z]


class TestMmBent:
    def test_two_variable_table(self):
        assert mm_bent(2).table == (0, 0, 0, 1)

    def test_four_variable_matches_polynomial(self):
        f = mm_bent(4)
        for x in f.group.elements():
            assert f(x) == (x[0] & x[1]) ^ (x[2] & x[3])

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_is_bent(self, n):
        assert classify_boolean(mm_bent(n)) == BooleanClass.BENT

    def test_rejects_odd_arity(self):
        with pytest.raises(ValueError):
            mm_bent(3)

    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            mm_bent(0)


class TestGroupFourier:
    def test_units_indicator_mod_nine(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(u,) for u in UNITS_9])
        assert fourier_integers(f) == [6, 0, 0, -3, 0, 0, -3, 0, 0]

    def test_small_two_by_three_table(self):
        g = make_group([3, 3])
        f = GroupFunction.indicator(g, [(0, 1), (0, 2), (1, 0), (2, 0)])
        ints = fourier_integers(f)
        expected = {
            (0, 0): 4,
            (0, 1): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1,
            (1, 1): -2, (1, 2): -2, (2, 1): -2, (2, 2): -2,
        }
        for i, z in enumerate(g.elements()):
            assert ints[i] == expected[z]

    def test_zero_function(self):
        g = make_group([4])
        f = GroupFunction(g, (0, 0, 0, 0))
        assert fourier_integers(f) == [0, 0, 0, 0]

    def test_non_class_function_can_be_irrational(self):
        g = make_group([5])
        f = GroupFunction.indicator(g, [(1,)])
        assert fourier_integers(f) is None

    def test_matches_complex_summation(self):
        import cmath

        g = make_group([2, 9])
        rng = random.Random(7)
        values = tuple(rng.randrange(-2, 3) for _ in range(g.n))
        f = GroupFunction(g, values)
        coeffs = group_fourier(f)
        for i, z in enumerate(g.elements()):
            direct = sum(
                v * cmath.exp(-2j * cmath.pi * g.character_exponent(z, x) / g.exponent)
                for x, v in zip(g.elements(), values)
            )
            assert abs(coeffs[i].approx() - direct) < 1e-9


class TestIsClassFunction:
    def test_units_indicator_is_class_function(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(u,) for u in UNITS_9])
        assert is_class_function(f)

    def test_single_unit_is_not(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(1,)])
        assert not is_class_function(f)

    def test_constant_is_class_function(self):
        g = make_group([2, 3])
        assert is_class_function(GroupFunction(g, (1,) * 6))


def small_groups():
    """Groups of order at most 128, among them (Z2)^k, where the transform
    is the Walsh transform."""
    orders = st.lists(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12, 16]), min_size=1, max_size=4)
    cubes = st.integers(1, 7).map(lambda k: [2] * k)
    return st.one_of(orders.filter(lambda o: math.prod(o) <= 128), cubes).map(make_group)


def class_function(group, rng: random.Random, big: bool) -> GroupFunction:
    """Random values, one per unit orbit; |values| past 2^62 when big."""
    top = 2**70 if big else 3
    values = [None] * group.n
    for i, x in enumerate(group.elements()):
        if values[i] is None:
            v = rng.randrange(-top, top + 1)
            for _, y in group.unit_multiples(x):
                values[group.rank(y)] = v
    return GroupFunction(group, tuple(values))


class TestClassFunctionTransform:
    """The orbit walk and the integer transform against the definitions:
    every unit times every element, and the cyclotomic group_fourier."""

    @given(small_groups(), st.integers(0, 2**31), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_group_fourier(self, group, seed, big):
        f = class_function(group, random.Random(seed), big)
        assert is_class_function(f)
        assert fourier_integers(f) == [c.as_integer() for c in group_fourier(f)]

    @given(small_groups(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_orbit_walk_agrees_with_every_unit(self, group, seed):
        rng = random.Random(seed)
        f = class_function(group, rng, False)
        if rng.random() < 0.7:
            values = list(f.values)
            values[rng.randrange(group.n)] += 1
            f = GroupFunction(group, tuple(values))
        brute = all(
            f(x) == f(group.scale(u, x)) for u in units_mod(group.exponent) for x in group.elements()
        )
        assert is_class_function(f) == brute
        if not brute:
            assert fourier_integers(f) is None
            assert any(c.as_integer() is None for c in group_fourier(f))


class TestPlateauedLevel:
    def test_two_by_three_example(self):
        g = make_group([3, 3])
        f = GroupFunction.indicator(g, [(0, 1), (0, 2), (1, 0), (2, 0)])
        assert plateaued_level(f, 3) == (1, 1)

    def test_units_mod_nine(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(u,) for u in UNITS_9])
        assert plateaued_level(f, 3) == (0, 1)

    def test_constant_spectrum_is_not_plateaued(self):
        g = make_group([4])
        f = GroupFunction(g, (1, 1, 1, 1))  # spectrum (4, 0, 0, 0)... not constant
        # A delta at zero has constant spectrum: use that instead.
        delta = GroupFunction.indicator(g, [(0,)])
        assert plateaued_level(delta, 2) is None

    def test_wrong_prime_gives_none(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(u,) for u in UNITS_9])
        assert plateaued_level(f, 2) is None

    def test_rejects_non_class_function(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(1,)])
        with pytest.raises(NotClassFunctionError):
            plateaued_level(f, 3)

    def test_rejects_p_below_two(self):
        g = make_group([9])
        f = GroupFunction.indicator(g, [(u,) for u in UNITS_9])
        with pytest.raises(ValueError):
            plateaued_level(f, 1)

    def test_level_is_congruence_and_maximal(self):
        # Whenever a level is reported, all Fourier values match the residue
        # mod p^r and fail to match mod p^(r+1).
        g = make_group([9])
        rng = random.Random(11)
        for _ in range(20):
            orbit_vals = {0: rng.randrange(-3, 4)}
            values = []
            for x in g.elements():
                key = 0 if x == (0,) else (3 if x[0] % 3 == 0 else 1)
                orbit_vals.setdefault(key, rng.randrange(-3, 4))
                values.append(orbit_vals[key])
            f = GroupFunction(g, tuple(values))
            ints = fourier_integers(f)
            level = plateaued_level(f, 3)
            if level is None:
                continue
            k, r = level
            assert all(v % 3**r == k for v in ints)
            assert len({v % 3 ** (r + 1) for v in ints}) > 1
