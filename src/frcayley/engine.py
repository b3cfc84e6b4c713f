"""Decision engine for two-vertex state transfer on abelian Cayley graphs.

Classifies, for a chosen involution a, whether the continuous walk admits a
time t with H(t) e_0 = alpha e_0 + beta e_a, and certifies the finding with
exact rational-phase data: t = 2*pi*k/N and alpha, beta given by powers of a
primitive N-th root of unity.  Kinds: FR (alpha*beta != 0), PST (alpha = 0),
PERIODIC (beta = 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from .cayley import CayleyGraph, Spectrum, is_integral, spectrum
from .cyclotomic import _factorize
from .errors import (
    NonIntegralSpectrumError,
    NotInvolutionError,
    SpecFormatError,
)
from .groups import MAX_GROUP_ORDER, Element, FiniteAbelianGroup
from .ioutil import _json_int, _json_int_list, _json_number, _json_object, _json_str


class WitnessKind(str, Enum):
    FR = "FR"
    PST = "PST"
    PERIODIC = "PERIODIC"


@dataclass(frozen=True)
class InvolutionSplit:
    """Partition of the group by the sign of the character pairing with a:
    plus = {g : chi_a(g) = +1}, minus = {g : chi_a(g) = -1}."""

    a: Element
    plus: tuple[Element, ...]
    minus: tuple[Element, ...]


def split_by_involution(group: FiniteAbelianGroup, a: Element) -> InvolutionSplit:
    """Split the group by chi_a; a must have order exactly 2."""
    a = group.require_element(a)
    if group.element_order(a) != 2:
        raise NotInvolutionError(f"element {a} does not have order 2")
    e = group.exponent
    plus: list[Element] = []
    minus: list[Element] = []
    for g in group.elements():
        c = group.character_exponent(a, g)
        if c == 0:
            plus.append(g)
        elif 2 * c == e:
            minus.append(g)
        else:
            raise ArithmeticError(f"pairing of involution {a} with {g} is not a sign")
    if len(plus) != len(minus):
        raise ArithmeticError(f"the sign character of {a} does not split the group in half")
    return InvolutionSplit(a, tuple(plus), tuple(minus))


@dataclass(frozen=True)
class Moduli:
    """Eigenvalue congruence data for one involution.

    m0 = gcd(d - lambda_g) over the plus half, m1 = gcd(lambda_ref - lambda_g)
    over the minus half, m = gcd(m0, m1); delta = d - lambda_ref with ref the
    lexicographically smallest element of the minus half (or the supplied
    override).  m > 0 implies phase constancy on both halves exactly at the
    times 2*pi*k/m; m = 0 means constancy at every time."""

    m0: int
    m1: int
    m: int
    reference: Element
    delta: int


def compute_moduli(
    spec: Spectrum, split: InvolutionSplit, reference: Optional[Element] = None
) -> Moduli:
    """Congruence moduli of an integral spectrum relative to a split."""
    if spec.integral_values is None:
        raise NonIntegralSpectrumError(
            "the spectrum is not integral; no rational-phase times exist"
        )
    lam = spec.integral_values
    d = spec.degree
    if reference is None:
        reference = split.minus[0]
    elif reference not in split.minus:
        raise ValueError(f"reference {reference} is not in the minus half")
    lam_ref = lam[reference]
    m0 = reduce(math.gcd, (d - lam[g] for g in split.plus), 0)
    m1 = reduce(math.gcd, (lam_ref - lam[g] for g in split.minus), 0)
    m = math.gcd(m0, m1)
    if m != 0 and spec.group.n % m != 0:
        raise ArithmeticError(f"modulus {m} does not divide the group order {spec.group.n}")
    return Moduli(m0, m1, m, reference, d - lam_ref)


def _fold(spec: Spectrum) -> tuple[int, np.ndarray, np.ndarray]:
    """(t, D, F): the integral spectrum folded onto G/2G.

    With a_i = m_i / 2 on supp(a), chi_a(g) = (-1)^(sum of g_i over
    supp(a)), so the half that g lies in depends only on its parity class
    x: the bits g_i mod 2 over the t even factors, the first one most
    significant.  The mask of a sets the same bits for the factors where a
    is nonzero, so masks 1 .. 2^t - 1 run in group.involutions() order, and
    g lies in the minus half exactly when x & mask has odd popcount.  Class
    x keeps D[x] = d - L[x], with L[x] its first eigenvalue in rank order,
    and F[x] = gcd(lambda_g - L[x]) over the class.  Cost O(n) numpy, with
    at most three n-length temporaries and no coordinate array."""
    lam = spec.by_rank
    if lam is None:
        raise NonIntegralSpectrumError(
            "the spectrum is not integral; no rational-phase times exist"
        )
    # Split each even factor Z_m into (m / 2) x (parity), then move the t
    # parity axes to the front: row x of `blocks` is parity class x.
    shape: list[int] = []
    parity_axes: list[int] = []
    for m in spec.group.orders:
        if m % 2 == 0:
            shape.append(m // 2)
            parity_axes.append(len(shape))
            shape.append(2)
        else:
            shape.append(m)
    t = len(parity_axes)
    rest = [i for i in range(len(shape)) if i not in parity_axes]
    blocks = lam.reshape(shape).transpose(parity_axes + rest).reshape(1 << t, -1)
    first = blocks[:, 0]
    return t, spec.degree - first, np.gcd.reduce(blocks - first[:, None], axis=1)


def _mask_moduli(
    n: int, t: int, D: np.ndarray, F: np.ndarray, mask: Optional[int] = None
) -> tuple[int, dict[int, int]]:
    """(g0, exact): from the fold (t, D, F), m(a) is exact[a] at each
    candidate mask a and g0 at every other one, over the masks 1 .. 2^t - 1
    or over `mask` alone.

    m(a) = gcd(m0, m1) is the gcd of f = gcd(F), of D over the even classes
    of a, and of D[x] - D[r] over its odd classes, where r, the lowest set
    bit of the mask, is the class of the reference and D[r] is delta.  So
    g0 = gcd(f, g), with g = gcd(D), divides every m(a), and m(a) = f when
    g = 0.  Otherwise a prime p of m(a) beyond g0 needs q = p^(v_p(g) + 1)
    to divide f (as it does f = 0), and p is one of _candidate_primes.  The
    even classes of a form the hyperplane a^perp of G/2G, and q does not
    divide all of D, so q | m(a) forces {x : q | D[x]} = a^perp: bit i of
    a is set exactly when q does not divide D[2^i].  Likewise m(a) = 0,
    possible only when f = 0, forces {x : D[x] = 0} = a^perp.  The gcds,
    O(2^t), are taken at those few candidates alone, as one gcd of f and
    of D less delta on the odd classes.  Raises if some m(a) asked for does
    not divide n."""
    f = int(np.gcd.reduce(F))
    g = int(np.gcd.reduce(D))
    candidates = set()
    if g:
        bits = 1 << np.arange(t)
        unit = D[bits]
        if f == 0:
            candidates.add(int(bits[unit != 0].sum()))
        for p in _candidate_primes(f, D):
            q = p
            while g % q == 0:
                q *= p
            if f % q == 0:
                candidates.add(int(bits[unit % q != 0].sum()))
    masks = range(1, 1 << t) if mask is None else (mask,)
    exact = {}
    for a in sorted(a for a in candidates if a in masks):
        # D less delta on the odd classes of a
        odd = np.bitwise_count(np.arange(1 << t) & a) & 1
        exact[a] = math.gcd(f, int(np.gcd.reduce(D - D[a & -a] * odd)))
    g0 = math.gcd(f, g)
    # g0 is checked only when some mask asked for takes it
    found = list(exact.values()) + ([g0] if len(exact) < len(masks) else [])
    for m in found:
        if m != 0 and n % m != 0:
            raise ArithmeticError(f"modulus {m} does not divide the group order {n}")
    return g0, exact


def _candidate_primes(f: int, D: np.ndarray) -> list[int]:
    """Every prime that divides some m(a) > 0 (see _mask_moduli).

    They divide f when f != 0.  When f = 0, let c = D[x] be the first
    nonzero entry and e = D[y] the first outside {0, c}.  A prime p of m(a)
    makes D mod p vanish on the even classes of a and equal D[r] on the odd
    ones.  So p | c when x is even; when x is odd, p | e or p | e - c, as
    y is even or odd.  With no such y, D takes the values 0 and c only; x
    odd and p not dividing c then force D = c exactly on the odd classes,
    where m(a) = 0."""
    if f:
        return list(_factorize(f))
    nonzero = D != 0
    if not nonzero.any():
        return []
    c = int(D[nonzero.argmax()])
    others = nonzero & (D != c)
    if others.any():
        e = int(D[others.argmax()])
        values = [c, e, e - c]
    else:
        values = [c]
    return sorted({p for v in values for p in _factorize(abs(v))})


def _step(delta: int, modulus: int) -> int:
    """The s with k * delta mod modulus in {0, modulus / 2} exactly when s
    divides k: q / gcd(q, 2) for q = modulus / gcd(delta, modulus).  The
    steps that occur are the s with 2s | modulus, or with s odd and
    s | modulus."""
    q = modulus // math.gcd(delta, modulus)
    return q // math.gcd(q, 2)


def valid_k(delta: int, modulus: int) -> tuple[int, ...]:
    """Every k in [1, modulus] at which a phase gap of k * delta (mod
    modulus) is neither 0 nor modulus / 2, i.e. gives FR proper: the k
    that the step of delta does not divide."""
    s = _step(delta, modulus)
    return tuple(k for k in range(1, modulus + 1) if k % s)


def _gap_has_step(k: int, modulus: int, gap: int, s: int) -> bool:
    """True iff some delta with k * delta = gap (mod modulus) has step s.

    With g = gcd(k, modulus) dividing gap and r = modulus / g, those delta
    are the class of delta0 = (gap / g) * (k / g)^-1 mod r.  A delta has
    step s exactly when gcd(delta, modulus) = modulus / q for q = 2s, or
    q = s with s odd.  A delta of the class has gcd(delta, modulus) = h,
    for h | modulus, exactly when gcd(h, r) = gcd(delta0, r): prime by
    prime, the lift of delta0 mod r to mod modulus fixes the valuation
    when it is below that of r, and leaves it free above it otherwise."""
    g = math.gcd(k, modulus)
    if gap % g:
        return False
    r = modulus // g
    target = math.gcd(gap // g * pow(k // g, -1, r), r)
    qs = (2 * s, s) if s % 2 else (2 * s,)
    return any(modulus % q == 0 and math.gcd(modulus // q, r) == target for q in qs)


def _is_valid_k(given: tuple[int, ...], s: int, modulus: int) -> bool:
    """given == valid_k(delta, modulus) for each delta of step s, decided in
    O(len(given)): s is a step of modulus, and given is a strictly
    increasing list in [1, modulus] that avoids the multiples of s and has
    the size of their complement."""
    if not (modulus % (2 * s) == 0 or s % 2 == 1 and modulus % s == 0):
        return False
    if len(given) != modulus - modulus // s:
        return False
    previous = 0
    for k in given:
        if not previous < k <= modulus or k % s == 0:
            return False
        previous = k
    return True


@dataclass(frozen=True)
class FRWitness:
    """Certificate for the walk at t = 2*pi*k/modulus.

    rho0 and rho1 are the exponents (mod modulus) of the constant phases on
    the plus and minus halves; alpha and beta follow exactly.  valid_k lists
    every k in [1, modulus] whose time yields FR proper (alpha*beta != 0)."""

    a: Element
    k: int
    modulus: int
    rho0: int
    rho1: int
    valid_k: tuple[int, ...]

    @property
    def kind(self) -> WitnessKind:
        diff = (self.rho0 - self.rho1) % self.modulus
        if diff == 0:
            return WitnessKind.PERIODIC
        if self.modulus % 2 == 0 and diff == self.modulus // 2:
            return WitnessKind.PST
        return WitnessKind.FR

    @property
    def time(self) -> float:
        return 2.0 * math.pi * self.k / self.modulus

    @property
    def alpha(self) -> complex:
        w0 = cmath.exp(2j * cmath.pi * self.rho0 / self.modulus)
        w1 = cmath.exp(2j * cmath.pi * self.rho1 / self.modulus)
        return (w0 + w1) / 2

    @property
    def beta(self) -> complex:
        w0 = cmath.exp(2j * cmath.pi * self.rho0 / self.modulus)
        w1 = cmath.exp(2j * cmath.pi * self.rho1 / self.modulus)
        return (w0 - w1) / 2

    def to_json(self) -> dict:
        alpha, beta = self.alpha, self.beta
        return {
            "a": list(self.a),
            "kind": self.kind.value,
            "k": self.k,
            "modulus": self.modulus,
            "rho0": self.rho0,
            "rho1": self.rho1,
            "time": self.time,
            "alpha": {"re": alpha.real, "im": alpha.imag},
            "beta": {"re": beta.real, "im": beta.imag},
            "valid_k": list(self.valid_k),
        }

    @classmethod
    def from_json(cls, data: object) -> "FRWitness":
        """Read a certificate, then check each derived field it carries
        (kind, time, alpha, beta and valid_k) against its recomputation
        from k, modulus, rho0 and rho1.  When k is not invertible mod the
        modulus, valid_k is checked to be the valid set of some step s such
        that a delta of that step gives the phase gap (_gap_has_step)."""
        doc = _json_object(data, "witness document", ("a", "k", "modulus", "rho0", "rho1"))
        a = tuple(_json_int_list(doc["a"], "a"))
        k = _json_int(doc["k"], "k")
        modulus = _json_int(doc["modulus"], "modulus")
        rho0 = _json_int(doc["rho0"], "rho0")
        rho1 = _json_int(doc["rho1"], "rho1")
        if not 1 <= modulus <= _MAX_MODULUS:
            raise SpecFormatError(f"witness modulus must lie in [1, {_MAX_MODULUS}]")
        if not 1 <= k <= modulus:
            raise SpecFormatError("witness k must lie in [1, modulus]")
        given = None
        if doc.get("valid_k") is not None:
            given = tuple(_json_int_list(doc["valid_k"], "valid_k"))
        g = math.gcd(k, modulus)
        if g == 1:
            # k is invertible, so delta mod modulus can be recovered from the
            # phase-exponent gap and the valid set checked or recomputed.
            delta = (rho0 - rho1) * pow(k, -1, modulus)
            s = _step(delta, modulus)
        elif given is None:
            raise SpecFormatError(
                "witness document omits valid_k and it cannot be recovered"
            )
        else:
            # delta is ambiguous, but a valid set is fixed by its step, the
            # least k it leaves out.
            s = next((i for i, v in enumerate(given, 1) if v != i), len(given) + 1)
        if given is None:
            given = valid_k(delta, modulus)
        elif not _is_valid_k(given, s, modulus):
            raise _mismatch("valid_k")
        witness = cls(a, k, modulus, rho0 % modulus, rho1 % modulus, given)
        if g > 1:
            # Some delta of step s must give the gap k * delta = rho0 - rho1
            # (mod modulus), which needs gcd(k, modulus) | rho0 - rho1.
            if (rho0 - rho1) % g:
                raise SpecFormatError(
                    f"certificate fields 'rho0' and 'rho1' differ by no multiple of "
                    f"gcd(k, modulus) = {g}, so no phase gap k * delta gives them"
                )
            if not _gap_has_step(k, modulus, rho0 - rho1, s):
                raise _mismatch("valid_k")
        if "kind" in doc and _json_str(doc["kind"], "kind") != witness.kind.value:
            raise _mismatch("kind")
        if "time" in doc and not _close(_json_number(doc["time"], "time"), witness.time):
            raise _mismatch("time")
        for field in ("alpha", "beta"):
            if field in doc:
                z = _json_object(doc[field], repr(field), ("re", "im"))
                re = _json_number(z["re"], f"{field}.re")
                im = _json_number(z["im"], f"{field}.im")
                if not _close(complex(re, im), getattr(witness, field)):
                    raise _mismatch(field)
        return witness


# Engine and family moduli divide the group order n, or are 4 |d - lambda|
# <= 8 n in the two-eigenvalue case; a larger one comes from no accepted graph.
_MAX_MODULUS = 8 * MAX_GROUP_ORDER


def _close(given: complex, expected: complex) -> bool:
    # The float fields are rounded renderings of exact phases; written so
    # that NaN is never close.
    return abs(given - expected) <= 1e-9


def _mismatch(field: str) -> SpecFormatError:
    return SpecFormatError(
        f"certificate field {field!r} contradicts its recomputation from "
        "k, modulus, rho0 and rho1"
    )


def decide_fr(graph: CayleyGraph, a: Element) -> Optional[FRWitness]:
    """Classify the walk between 0 and the involution a.

    Returns None when the question is vacuous or no rational-phase alignment
    time exists at all: a not an involution (including every element of an
    odd-order group), non-integral spectrum (a connection set that is not a
    union of unit orbits, found before any spectrum work), or the degenerate
    edgeless case.  Otherwise returns a witness whose kind is FR, PST, or PERIODIC.
    The canonical witness uses the smallest k achieving the best available
    kind (FR when the valid set is nonempty, else PST, else PERIODIC); that
    smallest k is always 1.  m(a) and delta are read at the one mask of a
    from the fold (_mask_moduli)."""
    G = graph.group
    a = G.require_element(a)
    if G.n % 2 == 1 or G.element_order(a) != 2 or not is_integral(graph):
        return None
    spec = spectrum(graph)
    t, D, F = _fold(spec)
    evens = [c for c, m in zip(a, G.orders) if m % 2 == 0]
    mask = sum(1 << (t - 1 - bit) for bit, c in enumerate(evens) if c)
    g0, exact = _mask_moduli(G.n, t, D, F, mask)
    fields = _witness_fields(spec.degree, exact.get(mask, g0), int(D[mask & -mask]))
    return None if fields is None else FRWitness(a, *fields)


def _witness_fields(degree: int, m: int, delta: int) -> Optional[tuple]:
    """(k, modulus, rho0, rho1, valid_k) of the canonical witness of
    decide_fr, which depend on the involution only through m and delta."""
    if m > 0:
        big_n = m
    elif delta == 0:
        return None
    else:
        big_n = 4 * abs(delta)
    valid = valid_k(delta, big_n)
    # When delta lands outside {0, N/2} mod N, k = 1 itself is valid, so the
    # canonical witness always sits at k = 1 (FR exists iff 1 is in valid).
    if valid and valid[0] != 1:
        raise ArithmeticError(f"k = {valid[0]} is valid but k = 1 is not")
    k = 1
    lam_ref = degree - delta
    rho0 = (k * degree) % big_n
    rho1 = (k * lam_ref) % big_n
    return k, big_n, rho0, rho1, valid


class WitnessClasses(NamedTuple):
    """Every involution's canonical witness, grouped by its (m, delta) and
    read from the lowest set bit of its mask (masks 1 .. 2^t - 1 run in
    group.involutions() order).  fields[c] is the (k, modulus, rho0, rho1,
    valid_k) of class c, or None for no witness.  The involution of mask a
    is in class exact[a] when a is a candidate mask of _mask_moduli, and in
    class low[i] otherwise, with 2^i the lowest set bit of a."""

    fields: list[Optional[tuple]]
    low: list[int]
    exact: dict[int, int]

    def of(self, mask: int) -> int:
        """The class of the involution of mask, 1 <= mask < 2^t."""
        c = self.exact.get(mask)
        return self.low[(mask & -mask).bit_length() - 1] if c is None else c


def search_classes(graph: CayleyGraph) -> WitnessClasses:
    """Classify every involution of the group, as decide_fr does each one,
    from one spectrum and one fold of it (_mask_classes), with no array
    over every mask.  Each class's witness fields are computed once.  For
    odd group order and for non-integral spectra, decided before any
    spectrum work, every involution is in one class with no witness."""
    G = graph.group
    if G.n % 2 == 1 or not is_integral(graph):
        return WitnessClasses([None], [0] * [m % 2 for m in G.orders].count(0), {})
    spec = spectrum(graph)
    pairs, low, exact = _mask_classes(G.n, *_fold(spec))
    fields = [_witness_fields(spec.degree, m, delta) for m, delta in pairs]
    return WitnessClasses(fields, low, exact)


def _mask_classes(
    n: int, t: int, D: np.ndarray, F: np.ndarray
) -> tuple[list[tuple[int, int]], list[int], dict[int, int]]:
    """(pairs, low, exact) from the fold (t, D, F): the distinct (m, delta)
    over the masks 1 .. 2^t - 1, and the index into pairs of each lowest
    set bit and of each candidate mask, as WitnessClasses holds them.

    The witness fields depend on the involution only through (m, delta).
    m is g0 but at the candidates of _mask_moduli, and delta = D[r] with r
    the lowest set bit of the mask, so the t unit classes and the
    candidates give every pair in O(t) beyond the candidates' gcd passes.
    Raises as _mask_moduli does."""
    g0, moduli = _mask_moduli(n, t, D, F)
    pairs: dict[tuple[int, int], int] = {}
    exact = {a: pairs.setdefault((m, int(D[a & -a])), len(pairs)) for a, m in moduli.items()}
    # 2^i is the lowest set bit of 2^(t - 1 - i) masks; when each of them is
    # a candidate, low[i] is never read and takes the class of 2^i
    taken = [0] * t
    for a in exact:
        taken[(a & -a).bit_length() - 1] += 1
    low = [
        exact[1 << i] if taken[i] == 1 << (t - 1 - i)
        else pairs.setdefault((g0, int(D[1 << i])), len(pairs))
        for i in range(t)
    ]
    return list(pairs), low, exact


def search_all(graph: CayleyGraph) -> list[tuple[Element, FRWitness]]:
    """(a, decide_fr(graph, a)) for every involution a with a witness, in
    group.involutions() order, expanded from search_classes."""
    classes = search_classes(graph)
    fields = classes.fields
    return [
        (a, FRWitness(a, *f))
        for mask, a in enumerate(graph.group.involutions(), 1)
        if (f := fields[classes.of(mask)]) is not None
    ]
