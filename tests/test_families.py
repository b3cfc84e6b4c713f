"""Graph family builders: number theory helpers, five variants, dispatch."""

from __future__ import annotations

import cmath
import math
import random
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import frcayley as fr
from frcayley import (
    BooleanFunction,
    DisconnectedGraphWarning,
    FamilyVariant,
    HypothesisViolationError,
    SpecFormatError,
    WitnessKind,
    ZeroInSetError,
    build_bent_family,
    build_cublike_family,
    build_from_spec,
    build_multi_prime_family,
    build_plateaued_family,
    build_ramanujan_family,
    decide_fr,
    engine_agrees,
    is_prime,
    mm_bent,
    p_adic_valuation,
    ramanujan_sum,
    verify_fr,
)
from conftest import BENT4_SET, UNITS_9
from helpers import random_unit_closed_set
from reference import build_family_by_rows, group_fourier


class TestIsPrime:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 97, 101])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [-3, 0, 1, 4, 9, 15, 91, 100])
    def test_composites_and_small(self, n):
        assert not is_prime(n)


class TestPAdicValuation:
    @pytest.mark.parametrize(
        "n,p,v", [(12, 2, 2), (12, 3, 1), (12, 5, 0), (8, 2, 3), (-8, 2, 3)]
    )
    def test_frozen(self, n, p, v):
        assert p_adic_valuation(n, p) == v

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            p_adic_valuation(0, 2)

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            p_adic_valuation(12, 1)

    @given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
    def test_valuation_extracts_exact_power(self, n, p):
        v = p_adic_valuation(n, p)
        assert n % p**v == 0
        assert (n // p**v) % p != 0


class TestRamanujanSum:
    def test_table_mod_nine(self):
        assert [ramanujan_sum(y, 3, 2) for y in range(9)] == [
            6, 0, 0, -3, 0, 0, -3, 0, 0,
        ]

    def test_divisible_case(self):
        assert ramanujan_sum(0, 5, 1) == 4
        assert ramanujan_sum(10, 5, 1) == 4

    def test_boundary_valuation(self):
        assert ramanujan_sum(1, 5, 1) == -1
        assert ramanujan_sum(5, 5, 2) == -5

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ramanujan_sum(1, 6, 1)

    def test_rejects_r_below_one(self):
        with pytest.raises(ValueError):
            ramanujan_sum(1, 3, 0)

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
    def test_matches_direct_character_sum(self, p, r):
        q = p**r
        for y in range(q):
            direct = sum(
                cmath.exp(2j * cmath.pi * y * u / q)
                for u in range(1, q + 1)
                if math.gcd(u, q) == 1
            )
            assert abs(ramanujan_sum(y, p, r) - direct) < 1e-9


class TestRamanujanFamily:
    def test_base_case_is_units_graph(self, units_graph):
        built = build_ramanujan_family(3, 2)
        assert built.variant == FamilyVariant.RAMANUJAN_A
        assert built.graph.group.orders == (2, 9)
        assert built.graph.connection.elements == units_graph.connection.elements
        assert built.a == (1, 0)
        w = built.prediction
        assert (w.modulus, w.rho0, w.rho1, w.k) == (3, 1, 2, 1)

    @pytest.mark.parametrize(
        "p,r,h,modulus,degree",
        [
            (3, 2, (), 3, 7),
            (5, 1, (3,), 3, 13),
            (3, 1, (5,), 5, 11),
            (7, 1, (3,), 3, 19),
        ],
    )
    def test_parameter_sweep(self, p, r, h, modulus, degree):
        built = build_ramanujan_family(p, r, h)
        assert built.prediction.modulus == modulus
        assert built.graph.degree == degree
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_rejects_modulus_one(self):
        with pytest.raises(HypothesisViolationError):
            build_ramanujan_family(3, 1)

    def test_rejects_even_prime(self):
        with pytest.raises(HypothesisViolationError):
            build_ramanujan_family(2, 3)

    def test_rejects_modulus_two(self):
        with pytest.raises(HypothesisViolationError):
            build_ramanujan_family(3, 1, (2,))

    def test_rejects_modulus_four(self):
        with pytest.raises(HypothesisViolationError):
            build_ramanujan_family(3, 1, (4,))

    def test_rejects_non_prime(self):
        with pytest.raises(HypothesisViolationError):
            build_ramanujan_family(9, 1, (3,))

    def test_rejects_r_below_one(self):
        with pytest.raises(HypothesisViolationError):
            build_ramanujan_family(3, 0, (3,))


class TestMultiPrimeFamily:
    @pytest.mark.parametrize(
        "pp,modulus,degree",
        [
            ([(2, 2), (3, 2)], 6, 13),
            ([(2, 1), (3, 2)], 3, 7),
            ([(2, 1), (5, 2)], 5, 21),
        ],
    )
    def test_parameter_sweep(self, pp, modulus, degree):
        built = build_multi_prime_family(pp)
        assert built.variant == FamilyVariant.MULTI_PRIME_B
        assert built.prediction.modulus == modulus
        assert built.graph.degree == degree
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_involution_position(self):
        built = build_multi_prime_family([(2, 2), (3, 2)])
        assert built.a == (2, 0)
        assert built.graph.group.orders == (4, 9)

    def test_rejects_single_factor(self):
        with pytest.raises(HypothesisViolationError):
            build_multi_prime_family([(2, 3)])

    def test_rejects_odd_first_prime(self):
        with pytest.raises(HypothesisViolationError):
            build_multi_prime_family([(3, 2), (5, 1)])

    def test_rejects_repeated_prime(self):
        with pytest.raises(HypothesisViolationError):
            build_multi_prime_family([(2, 1), (2, 2)])

    def test_rejects_modulus_one(self):
        with pytest.raises(HypothesisViolationError):
            build_multi_prime_family([(2, 1), (3, 1)])

    def test_rejects_modulus_four(self):
        with pytest.raises(HypothesisViolationError):
            build_multi_prime_family([(2, 3), (3, 1)])


class TestPlateauedFamily:
    def test_units_doubling_matches_fixture(self, doubled_units_graph):
        built = build_plateaued_family([9], [(u,) for u in UNITS_9])
        assert built.variant == FamilyVariant.PLATEAUED_C
        assert built.graph.connection.elements == doubled_units_graph.connection.elements
        w = built.prediction
        assert w.modulus == 6
        assert math.isclose(w.time, math.pi / 3, rel_tol=1e-12)
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_unit_orbit_union_on_product_group(self):
        # Three unit orbits of Z_3 x Z_3: degree 6, inferred prime 3.
        built = build_plateaued_family(
            [3, 3], [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2)]
        )
        assert built.prediction.modulus == 6
        assert built.graph.degree == 13
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_higher_prime_power_level(self):
        built = build_plateaued_family([27], [(u,) for u in fr.units_mod(27)])
        w = built.prediction
        assert (w.modulus, w.rho0, w.rho1) == (18, 1, 17)
        assert built.graph.degree == 37
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_rejects_when_valuation_kills_the_level(self):
        # The diagonal 4-set on Z_3 x Z_3 is unit-closed and 3-plateaued,
        # but 3 does not divide its size, so the modulus collapses to 2.
        diag = [(0, 1), (0, 2), (1, 0), (2, 0)]
        with pytest.raises(HypothesisViolationError):
            build_plateaued_family([3, 3], diag)
        with pytest.raises(HypothesisViolationError):
            build_plateaued_family([3, 3], diag, p=3)

    def test_explicit_prime_must_divide_degree_structure(self):
        s1 = [(u,) for u in UNITS_9]
        built = build_plateaued_family([9], s1, p=3)
        assert built.prediction.modulus == 6
        with pytest.raises(HypothesisViolationError):
            build_plateaued_family([9], s1, p=5)

    def test_rejects_zero_in_set(self):
        with pytest.raises(ZeroInSetError):
            build_plateaued_family([9], [(0,), (1,), (8,)])

    def test_rejects_non_unit_closed_set(self):
        with pytest.raises(HypothesisViolationError, match="unit"):
            build_plateaued_family([9], [(1,), (8,)])

    def test_rejects_empty_set(self):
        with pytest.raises((HypothesisViolationError, ZeroInSetError, ValueError)):
            build_plateaued_family([9], [])

    def test_rejects_three_torsion_trap(self):
        # {3, 6} in Z_9 is unit-closed but its level sits at the wrong prime
        # power for a valid modulus: N = 2 * 3^0 = 2 is rejected.
        with pytest.raises(HypothesisViolationError):
            build_plateaued_family([9], [(3,), (6,)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(
            [[4], [6], [8], [9], [12], [16], [18], [20], [24], [25], [27], [32], [36],
             [45], [48], [49], [60], [64], [2, 2], [2, 4], [3, 3], [2, 6], [4, 4], [2, 8],
             [3, 6], [3, 9], [5, 5], [6, 6], [2, 2, 4]]
        ),
        st.integers(min_value=1, max_value=2**63 - 1),
    )
    # two primes divide gcd(|S1|, spread): the least gives N = 4, or N = 6 not 10
    @example([12], 0b101)
    @example([36], 0b1)
    @example([45], 0b101)
    def test_prime_matches_the_cyclotomic_reference(self, h_orders, mask):
        # S1 the union of the unit orbits {k x : gcd(k, e) = 1} that mask picks
        H = fr.make_group(h_orders)
        e = H.exponent
        orbits = {
            frozenset(
                tuple(k * c % m for c, m in zip(x, h_orders))
                for k in range(1, e)
                if math.gcd(k, e) == 1
            )
            for x in H.elements()
            if x != H.zero
        }
        orbits = sorted(sorted(o) for o in orbits)
        s1 = sorted(x for i, o in enumerate(orbits) if mask >> i & 1 for x in o)
        assume(s1)
        lam = [c.as_integer() for c in group_fourier(fr.GroupFunction.indicator(H, s1))]
        d1 = len(s1)
        assert lam[0] == d1
        spread = 0
        for v in lam[1:]:
            spread = math.gcd(spread, v - d1)
        g = math.gcd(d1, spread)
        q = next((q for q in range(2, g + 1) if g % q == 0), None)
        r0 = q and min(p_adic_valuation(spread, q), p_adic_valuation(d1, q))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedGraphWarning)
            if q is None or 2 * q**r0 == 4:
                with pytest.raises(HypothesisViolationError):
                    build_plateaued_family(h_orders, s1)
                if q is not None:
                    with pytest.raises(HypothesisViolationError):
                        build_plateaued_family(h_orders, s1, p=q)
                return
            built = build_plateaued_family(h_orders, s1)
            w = built.prediction
            assert (w.modulus, w.rho0, w.rho1) == (2 * q**r0, 1, 2 * q**r0 - 1)
            assert built.label.endswith(f"p={q} r0={r0}")
            assert build_plateaued_family(h_orders, s1, p=q).prediction == built.prediction


class TestCublikeFamily:
    QUAD = [(1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]

    def test_quadruple_slice(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedGraphWarning)
            built = build_cublike_family(self.QUAD, self.QUAD)
        assert built.variant == FamilyVariant.CUBLIKE_D
        w = built.prediction
        assert (w.modulus, w.rho0, w.rho1) == (8, 1, 7)
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_rejects_low_two_adic_valuation(self):
        supp = [s for s in mm_bent(4).group.elements() if mm_bent(4)(s)]
        # d0 = d1 = 6: v2(12) = 2 < 3.
        with pytest.raises(HypothesisViolationError):
            build_cublike_family(supp, supp)

    def test_six_variable_slices(self):
        f = mm_bent(6)
        supp = [s for s in f.group.elements() if f(s)]
        built = build_cublike_family(supp, supp)
        assert built.prediction.modulus == 8
        w = decide_fr(built.graph, built.a)
        assert w.modulus == 16
        assert engine_agrees(built)

    def test_rejects_zero_in_slice(self):
        with pytest.raises(ZeroInSetError):
            build_cublike_family([(0, 0, 0, 0)], self.QUAD)

    def test_explicit_bit_width_checked(self):
        with pytest.raises((ValueError, SpecFormatError)):
            build_cublike_family(self.QUAD, self.QUAD, n_bits=3)


class TestBentFamily:
    def test_four_variable_bent(self, bent4_graph):
        built = build_bent_family(mm_bent(4))
        assert built.variant == FamilyVariant.BENT_E
        assert built.graph.connection.elements == tuple(BENT4_SET)
        w = built.prediction
        assert (w.modulus, w.rho0, w.rho1) == (8, 5, 7)
        assert math.isclose(w.time, math.pi / 4, rel_tol=1e-12)
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_six_variable_bent(self):
        built = build_bent_family(mm_bent(6))
        w = built.prediction
        assert w.modulus == 16
        assert w.rho0 == 9
        assert math.isclose(w.time, math.pi / 8, rel_tol=1e-12)
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_semi_bent_on_four_variables(self):
        # This support spans a proper subgroup; disconnection is reported,
        # not fatal.
        table = tuple(1 if (i >> 3) & (i >> 2) & 1 else 0 for i in range(16))
        with pytest.warns(DisconnectedGraphWarning):
            built = build_bent_family(BooleanFunction(4, table))
        w = built.prediction
        assert (w.modulus, w.rho0) == (8, 1)
        assert engine_agrees(built)
        assert verify_fr(built.graph, built.prediction).passed

    def test_rejects_unclassified_function(self):
        with pytest.raises(HypothesisViolationError):
            build_bent_family(BooleanFunction(4, (0,) * 16))

    def test_rejects_two_variable_bent(self):
        # n = 2 gives modulus 4, inside the rejected set.
        with pytest.raises(HypothesisViolationError):
            build_bent_family(mm_bent(2))


class TestEngineAgrees:
    def test_detects_tampered_phase(self):
        built = build_ramanujan_family(3, 2)
        import dataclasses

        bad = dataclasses.replace(
            built,
            prediction=dataclasses.replace(
                built.prediction, rho0=(built.prediction.rho0 + 1) % 3
            ),
        )
        assert engine_agrees(built)
        assert not engine_agrees(bad)


class TestPredictionDocument:
    def test_shape(self):
        built = build_ramanujan_family(3, 2)
        doc = built.prediction_document()
        assert doc["variant"] == "RAMANUJAN_A"
        assert doc["kind"] == "FR"
        assert doc["modulus"] == 3
        assert doc["a"] == [1, 0]
        assert "label" in doc


class TestBuildFromSpec:
    @pytest.mark.parametrize(
        "doc",
        [
            {"variant": "RAMANUJAN_A", "p": 3, "r": 2, "H": []},
            {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [3, 2]]},
            {"variant": "PLATEAUED_C", "H": [9], "S1": [[u] for u in UNITS_9]},
            {
                "variant": "PLATEAUED_C",
                "H": [9],
                "S1": [[u] for u in UNITS_9],
                "p": 3,
            },
            {
                "variant": "CUBLIKE_D",
                "S0": [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]],
                "S1": [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]],
            },
            {"variant": "BENT_E", "f": "7888"},
        ],
    )
    def test_dispatch(self, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedGraphWarning)
            built = build_from_spec(doc)
        assert built.variant.value == doc["variant"]
        assert engine_agrees(built)

    def test_rejects_unknown_variant(self):
        with pytest.raises(SpecFormatError):
            build_from_spec({"variant": "NOPE"})

    def test_rejects_missing_key(self):
        with pytest.raises(SpecFormatError):
            build_from_spec({"variant": "RAMANUJAN_A", "p": 3})

    def test_rejects_missing_variant(self):
        with pytest.raises(SpecFormatError):
            build_from_spec({"p": 3, "r": 2})


CO_PLANE = [[1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]]

# One fault put into one row: a coordinate replaced by true, 2, -1 or a
# float, a row cut short, or a row that is no list
ROW_FAULTS = {
    "true": lambda row: [True, *row[1:]],
    "two": lambda row: [*row[:-1], 2],
    "minus one": lambda row: [-1, *row[1:]],
    "float": lambda row: [*row[:-1], float(row[-1])],
    "short": lambda row: row[:-1],
    "not a list": lambda row: {"row": row},
}


def read_outcome(doc):
    """The family build_from_spec returns for doc, as its graph and
    prediction, or the type and text of what it raises; and the same of
    the per-row reader."""
    out = []
    for build in (build_from_spec, build_family_by_rows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedGraphWarning)
            try:
                built = build(doc)
            except Exception as exc:  # compared by type and text
                out.append((type(exc), str(exc)))
            else:
                out.append((built.graph, built.prediction_document()))
    return out


@st.composite
def family_documents(draw):
    """A PLATEAUED_C or CUBLIKE_D document, with random slices or ones that
    build, and maybe one fault in one row of one slice."""
    if draw(st.booleans()):
        h_orders = draw(st.sampled_from([[9], [27], [3, 3], [5], [2, 4]]))
        group = fr.make_group(h_orders)
        if draw(st.booleans()):
            rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
            rows = sorted(random_unit_closed_set(group, rng))
        else:
            rows = draw(st.lists(st.sampled_from(list(group.elements())), max_size=8))
        doc = {"variant": "PLATEAUED_C", "H": h_orders, "S1": [list(r) for r in rows]}
        if draw(st.booleans()):
            doc["p"] = draw(st.sampled_from([2, 3, 5]))
    else:
        if draw(st.booleans()):
            s0 = s1 = CO_PLANE
        else:
            width = draw(st.integers(min_value=1, max_value=4))
            bits = st.lists(st.integers(min_value=0, max_value=1), min_size=width, max_size=width)
            s0, s1 = draw(st.lists(bits, max_size=8)), draw(st.lists(bits, max_size=8))
        doc = {"variant": "CUBLIKE_D", "S0": [list(r) for r in s0], "S1": [list(r) for r in s1]}
        if draw(st.booleans()):
            doc["n"] = draw(st.integers(min_value=1, max_value=5))
    key = draw(st.sampled_from([k for k in ("S0", "S1") if k in doc]))
    rows = doc[key]
    if rows and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        fault = ROW_FAULTS[draw(st.sampled_from(sorted(ROW_FAULTS)))]
        doc[key] = [*rows[:i], fault(rows[i]), *rows[i + 1:]]
    return doc


class TestFamilyReadersAgreeWithPerRowReaders:
    """build_from_spec checks each slice set of C and D once, as a whole,
    and walks it a row at a time only when that check fails."""

    @settings(max_examples=150, deadline=None)
    @given(family_documents())
    def test_same_family_or_same_fault(self, doc):
        fast, slow = read_outcome(doc)
        assert fast == slow

    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_each_fault_in_the_co_plane(self, fault):
        for key in ("S0", "S1"):
            doc = {"variant": "CUBLIKE_D", "S0": CO_PLANE, "S1": CO_PLANE}
            doc[key] = [*CO_PLANE[:2], ROW_FAULTS[fault](CO_PLANE[2]), CO_PLANE[3]]
            fast, slow = read_outcome(doc)
            assert fast == slow and isinstance(fast[0], type)

    def test_a_valid_document_builds(self):
        fast, slow = read_outcome({"variant": "CUBLIKE_D", "S0": CO_PLANE, "S1": CO_PLANE})
        assert fast == slow and isinstance(fast[0], fr.CayleyGraph)

    @pytest.mark.filterwarnings("ignore::frcayley.DisconnectedGraphWarning")
    def test_builders_take_tuples_and_check_them_once(self):
        rows = [tuple(r) for r in CO_PLANE]
        assert build_cublike_family(rows, rows).graph == build_cublike_family(CO_PLANE, CO_PLANE).graph
        with pytest.raises(ValueError, match="not a residue mod 2"):
            build_cublike_family(rows, [*rows[:3], (1, 1, 1, 2)])
        with pytest.raises(ValueError, match="not a residue mod 2"):
            build_cublike_family(rows, [*rows[:3], (1, 1, 1, True)])
        with pytest.raises(ZeroInSetError):
            build_plateaued_family([9], [(u,) for u in UNITS_9] + [(0,)])

    @pytest.mark.filterwarnings("ignore::frcayley.DisconnectedGraphWarning")
    def test_one_spectrum_on_the_construct_path(self, monkeypatch):
        # the builder's decide_fr and engine_agrees read one spectrum: one
        # Walsh transform
        calls = []
        walsh = fr.cayley.hadamard_transform
        monkeypatch.setattr(fr.cayley, "hadamard_transform", lambda v: calls.append(1) or walsh(v))
        built = build_from_spec({"variant": "CUBLIKE_D", "S0": CO_PLANE, "S1": CO_PLANE})
        assert engine_agrees(built)
        assert len(calls) == 1
