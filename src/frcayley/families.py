"""Constructors for the certified FR graph families.

Each builder assembles a Cayley graph together with an exact witness
predicting fractional revival at t = 2*pi*k/N, raising
HypothesisViolationError when the construction's arithmetic preconditions
fail (most commonly when the predicted modulus N lands in {1, 2, 4}, where
the phase gap of 2 degenerates to periodicity or perfect transfer).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .boolfn import BooleanClass, BooleanFunction, GroupFunction, classify_boolean, plateaued_level, support
# make_graph is not called here; bench/tracer.py wraps it under this name.
from .cayley import CayleyGraph, _checked_graph, _closed_set, make_graph  # noqa: F401
from .cyclotomic import _factorize
from .engine import FRWitness, decide_fr, valid_k
from .errors import HypothesisViolationError, InvalidGroupError, SpecFormatError, ZeroInSetError
from .groups import MAX_GROUP_ORDER, Element, FiniteAbelianGroup, make_group, units_mod
from .ioutil import _exact_int_rows, _json_int, _json_int_list, _json_int_rows, _json_object, _json_str


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (fine at family sizes)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def p_adic_valuation(n: int, p: int) -> int:
    """Largest r with p^r dividing n; rejects n = 0 (infinite valuation)."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if n == 0:
        raise ValueError("the zero integer has infinite valuation")
    n = abs(n)
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return r


class FamilyVariant(str, Enum):
    RAMANUJAN_A = "RAMANUJAN_A"
    MULTI_PRIME_B = "MULTI_PRIME_B"
    PLATEAUED_C = "PLATEAUED_C"
    CUBLIKE_D = "CUBLIKE_D"
    BENT_E = "BENT_E"


@dataclass(frozen=True)
class BuiltFamily:
    """A constructed graph with its predicted exact witness."""

    variant: FamilyVariant
    graph: CayleyGraph
    a: Element
    prediction: FRWitness
    label: str

    def prediction_document(self) -> dict:
        doc = {"variant": self.variant.value, "label": self.label}
        doc.update(self.prediction.to_json())
        return doc


def _fr_prediction(a: Element, modulus: int, rho0: int = 1) -> FRWitness:
    """Witness at k = 1 with plus-phase exponent rho0 and minus-phase -1."""
    rho0 %= modulus
    rho1 = (modulus - 1) % modulus
    return FRWitness(a, 1, modulus, rho0, rho1, valid_k(rho0 - rho1, modulus))


def _require_bounded_prime_power(p: int, r: int) -> None:
    """Refuse a factor Z_{p^r} above the group-order ceiling before any
    primality test or power of p runs on it."""
    if p >= 2 and r >= 1 and (p > MAX_GROUP_ORDER or r >= MAX_GROUP_ORDER.bit_length()):
        raise InvalidGroupError(
            f"the factor Z_{{{p}^{r}}} exceeds the group order ceiling of "
            f"{MAX_GROUP_ORDER} elements"
        )


def _require_fr_modulus(n: int, what: str) -> None:
    if n in (1, 2, 4):
        raise HypothesisViolationError(
            f"{what} gives phase modulus N = {n}; a phase gap of 2 then forces "
            "beta = 0 or alpha = 0, so no fractional revival is possible"
        )


_ROWS = {list, tuple}


def _checked_rows(group: FiniteAbelianGroup, rows: object) -> Optional[set[Element]]:
    """The rows as a set of elements of group, when the whole set passes
    one check: a list or tuple of rows, each exactly a list or tuple of the
    group's rank, every coordinate exactly an int, and every column in
    [0, m) for its factor's order m.  None otherwise: the caller then reads
    the rows one at a time with require_element, which alone raises, so
    the first fault keeps its type, text and order."""
    orders = group.orders
    if (
        type(rows) in _ROWS
        and _exact_int_rows(rows, _ROWS)
        and set(map(len, rows)) <= {len(orders)}
        and all(0 <= min(col) and max(col) < m for col, m in zip(zip(*rows), orders))
    ):
        return set(map(tuple, rows))
    return None


def _lift(
    h_orders: Sequence[int], s0: Iterable[Element], s1: Iterable[Element]
) -> tuple[CayleyGraph, Element]:
    """Z_2 x H connected by {0} x S0  union  {1} x S1  union  {a}, with
    a = (1, 0, ..., 0): the graph of families A, C, D and E.  S0 and S1
    hold elements of H that the builder made or checked, so only the
    set-level checks run on the lift."""
    group = make_group([2, *h_orders])
    a = (1,) + (0,) * len(h_orders)
    conn = {(0, *s) for s in s0} | {(1, *s) for s in s1}
    conn.add(a)
    return _checked_graph(group, _closed_set(group, conn)), a


def build_ramanujan_family(
    p: int, r: int, h_orders: Sequence[int] = ()
) -> BuiltFamily:
    """Family A: Z_2 x Z_{p^r} x H with connection set
    {0} x U(p^r) x H  union  {a}, where a = (1, 0, ..., 0).

    Requires p an odd prime, r >= 1, and N = p^(r-1) * |H| outside {1, 2, 4}.
    Predicts FR at t = 2*pi/N with phases (e^{it}, e^{-it})."""
    _require_bounded_prime_power(p, r)
    if not is_prime(p) or p == 2:
        raise HypothesisViolationError(f"p must be an odd prime, got {p}")
    if r < 1:
        raise HypothesisViolationError(f"r must be at least 1, got {r}")
    m = make_group(h_orders).n if h_orders else 1
    big_n = p ** (r - 1) * m
    _require_fr_modulus(big_n, f"p^(r-1) * |H| = {p}^{r - 1} * {m}")
    make_group([2, p**r, *h_orders])  # the order ceiling, before units_mod(p**r) runs
    s0 = itertools.product(units_mod(p**r), *map(range, h_orders))
    graph, a = _lift([p**r, *h_orders], s0, ())
    label = f"ramanujan p={p} r={r} H={list(h_orders)}"
    return BuiltFamily(
        FamilyVariant.RAMANUJAN_A, graph, a, _fr_prediction(a, big_n), label
    )


def build_multi_prime_family(
    prime_powers: Sequence[Sequence[int]],
) -> BuiltFamily:
    """Family B: product of Z_{p_i^{r_i}} over distinct primes with p_1 = 2,
    connected by all tuples of units plus the unique involution
    a = (2^{r_1 - 1}, 0, ..., 0).

    Requires N = prod p_i^{r_i - 1} outside {1, 2, 4}.  Predicts FR at
    t = 2*pi/N with phases (e^{it}, e^{-it})."""
    pairs = [(int(p), int(r)) for p, r in prime_powers]
    if len(pairs) < 2:
        raise HypothesisViolationError(
            f"at least two prime-power factors are required, got {len(pairs)}"
        )
    primes = [p for p, _ in pairs]
    if primes[0] != 2:
        raise HypothesisViolationError(
            f"the first factor must be the even prime 2, got {primes[0]}"
        )
    if len(set(primes)) != len(primes):
        raise HypothesisViolationError(f"primes must be distinct, got {primes}")
    for p, r in pairs:
        _require_bounded_prime_power(p, r)
        if not is_prime(p):
            raise HypothesisViolationError(f"{p} is not prime")
        if r < 1:
            raise HypothesisViolationError(f"exponent must be >= 1, got {r}")
    big_n = math.prod(p ** (r - 1) for p, r in pairs)
    _require_fr_modulus(big_n, "prod p_i^(r_i - 1)")
    group = make_group([p**r for p, r in pairs])  # the ceiling, before units_mod(p**r) runs
    conn = set(itertools.product(*(units_mod(m) for m in group.orders)))
    a = (2 ** (pairs[0][1] - 1),) + (0,) * (len(pairs) - 1)
    conn.add(a)
    graph = _checked_graph(group, _closed_set(group, conn))
    label = "multi-prime " + "*".join(f"{p}^{r}" for p, r in pairs)
    return BuiltFamily(
        FamilyVariant.MULTI_PRIME_B, graph, a, _fr_prediction(a, big_n), label
    )


def build_plateaued_family(
    h_orders: Sequence[int],
    s1: Sequence[Sequence[int]],
    p: Optional[int] = None,
) -> BuiltFamily:
    """Family C: Z_2 x H connected by {0} x S1  union  {1} x S1  union  {a},
    a = (1, 0, ..., 0), for a unit-closed S1 in H with p^r-plateaued
    indicator spectrum.

    With r0 = min(r, v_p(|S1|)) >= 1 the predicted modulus is N = 2 p^{r0};
    requires N outside {1, 2, 4}.  Predicts FR at t = pi/p^{r0}."""
    if not h_orders:
        raise HypothesisViolationError("the factor group H must be nontrivial")
    H = make_group(h_orders)
    cleaned = _checked_rows(H, s1)
    if cleaned is None or H.zero in cleaned:
        # the first fault in row order: a malformed row or the zero element
        cleaned = set()
        for coords in s1:
            g = H.require_element(tuple(coords))
            if g == H.zero:
                raise ZeroInSetError("S1 must not contain the zero element of H")
            cleaned.add(g)
    if not cleaned:
        raise HypothesisViolationError("S1 must be nonempty")
    indicator = GroupFunction.indicator(H, cleaned)
    if indicator.unit_orbits is None:
        # the first s of S1 in sorted order with a unit multiple t outside S1
        s, k = H.unit_orbits(sorted(cleaned))[1]
        t = H.scale(k, s)
        # a unit of Z_exponent that acts on s as k does
        d, e = H.element_order(s), H.exponent
        unit = next(u for u in range(k, e, d) if math.gcd(u, e) == 1)
        raise HypothesisViolationError(
            f"S1 is not closed under multiplication by the unit {unit}: "
            f"{s} is inside but {t} is not"
        )
    d1 = len(cleaned)
    # d1 % p first: it bounds p by |S1| before any trial division
    if p is not None and (p < 2 or d1 % p != 0 or not is_prime(p)):
        raise HypothesisViolationError(f"p = {p} must be a prime divisor of |S1| = {d1}")
    for q in [p] if p is not None else _factorize(d1):
        level = plateaued_level(indicator, q)
        if level is not None:
            break
        if p is not None:
            raise HypothesisViolationError(
                f"the indicator spectrum of S1 is not {q}-power plateaued"
            )
    else:
        raise HypothesisViolationError(
            "no prime divides |S1| with a plateaued indicator spectrum of "
            "positive level, so the phase modulus collapses to 2"
        )
    # q divides |S1| and a level is at least 1, so r0 >= 1
    r0 = min(level[1], p_adic_valuation(d1, q))
    big_n = 2 * q**r0
    _require_fr_modulus(big_n, f"2 * {q}^{r0}")
    graph, a = _lift(h_orders, cleaned, cleaned)
    label = f"plateaued H={list(h_orders)} |S1|={d1} p={q} r0={r0}"
    return BuiltFamily(
        FamilyVariant.PLATEAUED_C, graph, a, _fr_prediction(a, big_n), label
    )


def build_cublike_family(
    s0: Sequence[Sequence[int]],
    s1: Sequence[Sequence[int]],
    n_bits: Optional[int] = None,
) -> BuiltFamily:
    """Family D: F_2^{n+1} connected by {0} x S0  union  {1} x S1  union
    {a}, a = (1, 0, ..., 0), for S0, S1 subsets of F_2^n avoiding zero.

    Requires min(v_2(d0 + d1), v_2(d0 - d1)) >= 3 and, after computing the
    actual phase modulus M, kappa = min(v_2(M), v_2(d0 + d1), v_2(d0 - d1))
    >= 3.  Predicts FR at t = 2*pi/2^kappa with phases (e^{it}, e^{-it})."""
    if n_bits is None:
        if not (s0 or s1):
            raise SpecFormatError(
                "cannot infer the bit width from two empty slice sets"
            )
        n_bits = len((s0 or s1)[0])
    if n_bits < 1:
        raise ValueError(f"bit width must be at least 1, got {n_bits}")
    base = make_group([2] * n_bits)
    set0, set1 = _checked_rows(base, s0), _checked_rows(base, s1)
    if set0 is None or set1 is None:
        set0 = {base.require_element(tuple(r)) for r in s0}
        set1 = {base.require_element(tuple(r)) for r in s1}
    if base.zero in set0 or base.zero in set1:
        raise ZeroInSetError("the slice sets must not contain the zero vector")
    d0, d1 = len(set0), len(set1)

    def v2(x: int) -> Optional[int]:
        return None if x == 0 else p_adic_valuation(x, 2)

    vs = [v for v in (v2(d0 + d1), v2(d0 - d1)) if v is not None]
    if any(v < 3 for v in vs):
        raise HypothesisViolationError(
            f"min dyadic valuation of d0 + d1 = {d0 + d1} and d0 - d1 = "
            f"{d0 - d1} is below 3, so the phase modulus cannot reach 8"
        )
    graph, a = _lift([2] * n_bits, set0, set1)
    # This family has no closed-form modulus, so ask the engine; its
    # canonical modulus is the congruence gcd M (or the free two-eigenvalue
    # fallback, which carries the same role).
    witness = decide_fr(graph, a)
    if witness is None:
        raise ArithmeticError("decide_fr found no witness on an exponent-2 graph")
    kappa = min(v2(witness.modulus), *vs)
    if kappa < 3:
        raise HypothesisViolationError(
            f"min(v_2(M), v_2(d0 + d1), v_2(d0 - d1)) = {kappa} < 3, "
            "so the phase modulus cannot reach 8"
        )
    big_n = 2**kappa
    label = f"cublike n={n_bits} d0={d0} d1={d1} N={big_n}"
    return BuiltFamily(
        FamilyVariant.CUBLIKE_D, graph, a, _fr_prediction(a, big_n), label
    )


def build_bent_family(f: BooleanFunction) -> BuiltFamily:
    """Family E: F_2^{n+1} connected by {0} x supp(f)  union  {1} x supp(f)
    union  {a}, a = (1, 0, ..., 0), for f bent or semi-bent on n variables.

    With k = n/2 the predicted modulus is N = 2^{k+1} (required outside
    {1, 2, 4}, i.e. n >= 4) and t = pi/2^k; the plus phase is e^{it} times
    i^{±1} shifted by 2^k for bent f (degree = 2^n ± 2^k + 1) and exactly
    e^{it} for semi-bent f (degree = 1 mod 2^{k+1})."""
    cls = classify_boolean(f)
    if cls is BooleanClass.NEITHER:
        raise HypothesisViolationError(
            "the Walsh spectrum is neither flat (bent) nor three-valued "
            "{0, +-2^(n/2+1)} (semi-bent)"
        )
    k = f.n // 2
    big_n = 2 ** (k + 1)
    _require_fr_modulus(big_n, f"2^(n/2 + 1) = {big_n}")
    supp = support(f)
    graph, a = _lift([2] * f.n, supp, supp)
    rho0 = (1 + 2**k) % big_n if cls is BooleanClass.BENT else 1
    label = f"{cls.value.lower().replace('_', '-')} n={f.n} |supp|={len(supp)}"
    return BuiltFamily(
        FamilyVariant.BENT_E, graph, a, _fr_prediction(a, big_n, rho0=rho0), label
    )


def engine_agrees(built: BuiltFamily) -> bool:
    """Exact cross-check of a builder prediction against the engine.

    Requires the engine modulus M to be a multiple of the predicted N, the
    predicted k (rescaled to M) to be classified identically, and the
    predicted phase exponents to match the engine phases exactly."""
    w = decide_fr(built.graph, built.a)
    if w is None:
        return False
    pred = built.prediction
    if w.modulus % pred.modulus != 0:
        return False
    scale = w.modulus // pred.modulus
    k_scaled = pred.k * scale
    if w.k != 1:
        raise ArithmeticError(f"engine witness has k = {w.k}, not the canonical k = 1")
    # Engine phases at the predicted time: rho0/rho1 scale linearly in k.
    rho0_engine = (k_scaled * w.rho0) % w.modulus
    rho1_engine = (k_scaled * w.rho1) % w.modulus
    if rho0_engine != (scale * pred.rho0) % w.modulus:
        return False
    if rho1_engine != (scale * pred.rho1) % w.modulus:
        return False
    if pred.kind.value == "FR":
        return k_scaled in w.valid_k
    diff = (rho0_engine - rho1_engine) % w.modulus
    if pred.kind.value == "PERIODIC":
        return diff == 0
    return w.modulus % 2 == 0 and diff == w.modulus // 2


_REQUIRED_KEYS = {
    FamilyVariant.RAMANUJAN_A: ("p", "r"),
    FamilyVariant.MULTI_PRIME_B: ("prime_powers",),
    FamilyVariant.PLATEAUED_C: ("H", "S1"),
    FamilyVariant.CUBLIKE_D: ("S0", "S1"),
    FamilyVariant.BENT_E: ("f",),
}


def build_from_spec(data: object) -> BuiltFamily:
    """Dispatch a JSON family description to its builder.

    Wire forms:
      {"variant": "RAMANUJAN_A", "p": 3, "r": 2, "H": [5]}
      {"variant": "MULTI_PRIME_B", "prime_powers": [[2, 2], [3, 2]]}
      {"variant": "PLATEAUED_C", "H": [9], "S1": [[1], ...], "p": 3}
      {"variant": "CUBLIKE_D", "S0": [[...]], "S1": [[...]], "n": 4}
      {"variant": "BENT_E", "f": "7888"}
    """
    name = _json_str(_json_object(data, "family document", ("variant",))["variant"], "variant")
    try:
        variant = FamilyVariant(name)
    except ValueError as exc:
        raise SpecFormatError(f"unknown family variant {name!r}") from exc
    doc = _json_object(data, f"{variant.value} document", _REQUIRED_KEYS[variant])

    def optional_int(key: str) -> Optional[int]:
        return None if doc.get(key) is None else _json_int(doc[key], key)

    if variant is FamilyVariant.RAMANUJAN_A:
        h_orders = _json_int_list(doc.get("H", []), "H")
        return build_ramanujan_family(_json_int(doc["p"], "p"), _json_int(doc["r"], "r"), h_orders)
    if variant is FamilyVariant.MULTI_PRIME_B:
        pairs = _json_int_rows(doc["prime_powers"], "prime_powers")
        if any(len(row) != 2 for row in pairs):
            raise SpecFormatError('each "prime_powers" row must be a [p, r] pair')
        return build_multi_prime_family(pairs)
    if variant is FamilyVariant.PLATEAUED_C:
        return build_plateaued_family(
            _json_int_list(doc["H"], "H"), _json_int_rows(doc["S1"], "S1"), optional_int("p")
        )
    if variant is FamilyVariant.CUBLIKE_D:
        return build_cublike_family(
            _json_int_rows(doc["S0"], "S0"), _json_int_rows(doc["S1"], "S1"), optional_int("n")
        )
    f_hex = _json_str(doc["f"], "f")
    # 2^n bits build (Z_2)^(n+1): the order ceiling, before the table is decoded
    n = (4 * len(f_hex)).bit_length() - 1
    if f_hex and 4 * len(f_hex) == 1 << n:
        make_group([2] * (n + 1))
    return build_bent_family(BooleanFunction.from_hex(f_hex))
