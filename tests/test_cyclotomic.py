"""Exact cyclotomic-integer arithmetic: cyclotomic polynomials and root-of-unity sums."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcayley import RootOfUnitySum, cyclotomic_polynomial
from frcayley.cyclotomic import _divide_monic
from reference import cyclotomic_polynomial_by_product, poly_divmod, poly_mul


def totient(e: int) -> int:
    return sum(1 for k in range(1, e + 1) if math.gcd(k, e) == 1)


def counts_from_dict(e: int, weights: dict[int, int]) -> tuple[int, ...]:
    counts = [0] * e
    for k, v in weights.items():
        counts[k % e] += v
    return tuple(counts)


def x_pow_minus_one(e: int) -> list[int]:
    return [-1] + [0] * (e - 1) + [1]


def divide_x_e_minus_one(e: int, divisor_factors: list[list[int]]) -> tuple[int, ...]:
    """Independent oracle: (x^e - 1) / product(divisor_factors), exact."""
    num = x_pow_minus_one(e)
    for f in divisor_factors:
        num, rem = poly_divmod(num, f)
        assert not any(rem)
    return tuple(num)


class TestDivideMonic:
    def test_exact_quotient(self):
        quo, rem = _divide_monic(x_pow_minus_one(6), [-1, 1])
        assert quo == [1, 1, 1, 1, 1, 1]
        assert rem == [0] * 7


class TestCyclotomicPolynomial:
    def test_first(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_sixth(self):
        # Oracle: strip the proper cyclotomic factors off x^6 - 1 by hand.
        oracle = divide_x_e_minus_one(
            6,
            [
                [-1, 1],      # e = 1
                [1, 1],       # e = 2
                [1, 1, 1],    # e = 3
            ],
        )
        assert cyclotomic_polynomial(6) == oracle
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_ninth(self):
        oracle = divide_x_e_minus_one(9, [[-1, 1], [1, 1, 1]])
        assert cyclotomic_polynomial(9) == oracle
        assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)

    @pytest.mark.parametrize("e", range(1, 41))
    def test_monic_with_totient_degree(self, e):
        phi = cyclotomic_polynomial(e)
        assert phi[-1] == 1
        assert len(phi) - 1 == totient(e)

    @pytest.mark.parametrize("e", [1, 2, 6, 12, 30, 48, 64])
    def test_product_over_divisors(self, e):
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == x_pow_minus_one(e)

    def test_matches_the_product_reference(self):
        for e in range(1, 301):
            assert cyclotomic_polynomial(e) == cyclotomic_polynomial_by_product(e), e

    @pytest.mark.parametrize("e", range(1, 33))
    def test_roots_are_primitive_roots_of_unity(self, e):
        phi = cyclotomic_polynomial(e)
        for k in range(1, e + 1):
            z = cmath.exp(2j * cmath.pi * k / e)
            val = sum(c * z**i for i, c in enumerate(phi))
            if math.gcd(k, e) == 1:
                assert abs(val) < 1e-7
            else:
                assert abs(val) > 1e-3


class TestRootOfUnitySumConstruction:
    def test_zero(self):
        s = RootOfUnitySum.zero(6)
        assert s.as_integer() == 0
        assert abs(s.approx()) < 1e-15

    def test_root(self):
        s = RootOfUnitySum.root(4, 1)
        assert abs(s.approx() - 1j) < 1e-12

    def test_integer(self):
        s = RootOfUnitySum.integer(5, -3)
        assert s.as_integer() == -3

    def test_from_counts(self):
        s = RootOfUnitySum(3, counts_from_dict(3, {0: 1, 1: 1, 2: 1}))
        assert s.as_integer() == 0

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            RootOfUnitySum(4, (1, 0, 0))


class TestReduction:
    def test_i_squared_is_minus_one(self):
        s = RootOfUnitySum.root(4, 2)
        assert s.as_integer() == -1

    def test_full_orbit_vanishes(self):
        s = RootOfUnitySum(3, counts_from_dict(3, {0: 1, 1: 1, 2: 1}))
        assert s.reduced().counts[0] == 0
        assert s.as_integer() == 0

    def test_unit_exponent_sum_mod_9(self):
        # Exponents coprime to 9 sum to the Moebius value mu(9) = 0.
        s = RootOfUnitySum(9, counts_from_dict(9, {u: 1 for u in (1, 2, 4, 5, 7, 8)}))
        assert s.as_integer() == 0

    def test_reduced_degree_below_totient(self):
        s = RootOfUnitySum(12, tuple(k + 1 for k in range(12)))
        red = s.reduced()
        assert all(c == 0 for c in red.counts[totient(12):])

    @given(
        st.integers(min_value=1, max_value=24),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=24),
    )
    def test_reduction_preserves_value(self, e, raw):
        counts = tuple((raw + [0] * e)[:e])
        s = RootOfUnitySum(e, counts)
        assert cmath.isclose(s.approx(), s.reduced().approx(), abs_tol=1e-9)

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=150),
        st.lists(st.integers(min_value=-9, max_value=9), max_size=150),
    )
    def test_reduction_is_the_reference_remainder(self, e, raw):
        counts = tuple((raw + [0] * e)[:e])
        rem = poly_divmod(list(counts), list(cyclotomic_polynomial_by_product(e)))[1]
        assert RootOfUnitySum(e, counts).reduced().counts == tuple(rem)


class TestAsInteger:
    def test_imaginary_unit_is_not_integer(self):
        assert RootOfUnitySum.root(4, 1).as_integer() is None

    def test_primitive_fifth_roots_sum(self):
        s = RootOfUnitySum(5, counts_from_dict(5, {k: 1 for k in range(1, 5)}))
        assert s.as_integer() == -1

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=-9, max_value=9))
    def test_integer_roundtrip(self, e, v):
        assert RootOfUnitySum.integer(e, v).as_integer() == v

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=-4, max_value=4))
    def test_galois_orbit_sums_are_integers(self, e, weight):
        # A sum constant on each unit multiple of a fixed exponent is fixed by
        # the Galois action, hence an ordinary integer.
        for base in range(e):
            orbit = {}
            for u in range(1, e + 1):
                if math.gcd(u, e) == 1:
                    orbit[(u * base) % e] = weight
            s = RootOfUnitySum(e, counts_from_dict(e, orbit))
            got = s.as_integer()
            assert got is not None
            assert abs(got - s.approx().real) < 1e-6


class TestArithmetic:
    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=16),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=16),
    )
    def test_ring_ops_match_complex_arithmetic(self, e, raw_a, raw_b):
        a = RootOfUnitySum(e, tuple((raw_a + [0] * e)[:e]))
        b = RootOfUnitySum(e, tuple((raw_b + [0] * e)[:e]))
        assert cmath.isclose((a + b).approx(), a.approx() + b.approx(), abs_tol=1e-9)
        assert cmath.isclose((a - b).approx(), a.approx() - b.approx(), abs_tol=1e-9)
        assert cmath.isclose((-a).approx(), -a.approx(), abs_tol=1e-9)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            RootOfUnitySum.zero(4) + RootOfUnitySum.zero(6)

    def test_value_based_equality(self):
        # 1 + omega_3 + omega_3^2 == 0 as cyclotomic integers.
        full = RootOfUnitySum(3, counts_from_dict(3, {0: 1, 1: 1, 2: 1}))
        assert full == RootOfUnitySum.zero(3)
        assert RootOfUnitySum.root(4, 2) == RootOfUnitySum.integer(4, -1)
