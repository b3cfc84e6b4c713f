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
from typing import Optional, Sequence

import numpy as np

from .cayley import CayleyGraph, Spectrum, spectrum
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


def involution_moduli(spec: Spectrum, involutions: Sequence[Element]) -> list[Moduli]:
    """The moduli of compute_moduli(spec, split_by_involution(G, a)) for
    each involution a, from one fold of the spectrum onto G/2G.

    With a_i = m_i / 2 on supp(a), chi_a(g) = (-1)^(sum of g_i over
    supp(a)), so the half that g lies in depends only on the parity class
    x of g over the t even factors.  Each class keeps G0[x] = gcd(d -
    lambda_g), its first eigenvalue L[x] in rank order and F[x] =
    gcd(lambda_g - L[x]).  Then m0 is the gcd of G0 over the even classes
    of a, and m1 that of F and of L[x] - L[x'] over its odd classes.  The
    reference is the unit vector at the last coordinate of supp(a), the
    lexicographically smallest element of the minus half, as in
    compute_moduli.  Cost O(n) numpy for the fold, O(2^t) per involution."""
    lam = spec.by_rank
    if lam is None:
        raise NonIntegralSpectrumError(
            "the spectrum is not integral; no rational-phase times exist"
        )
    G = spec.group
    d = spec.degree
    # Split each even factor Z_m into (m / 2) x (parity), then move the t
    # parity axes to the front: row x of `blocks` is parity class x, with
    # the first even factor as its most significant bit, listed in rank
    # order.  At most three n-length temporaries; no coordinate array.
    shape: list[int] = []
    parity_axes: list[int] = []
    for m in G.orders:
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
    plus_gcd = np.gcd.reduce(d - blocks, axis=1)
    spread = np.gcd.reduce(blocks - first[:, None], axis=1)
    # parity[x] = popcount(x) mod 2
    parity = np.zeros(1 << t, dtype=bool)
    for i in range(t):
        parity[1 << i : 2 << i] = ~parity[: 1 << i]
    classes = np.arange(1 << t)
    even_orders = [(i, m) for i, m in enumerate(G.orders) if m % 2 == 0]

    out = []
    for a in involutions:
        a = G.require_element(a)
        if G.element_order(a) != 2:
            raise NotInvolutionError(f"element {a} does not have order 2")
        mask = 0
        last = 0
        for bit, (i, m) in enumerate(even_orders):
            if a[i] == m // 2:
                mask |= 1 << (t - 1 - bit)
                last = i
        odd = parity[classes & mask]
        reference = tuple(int(i == last) for i in range(len(G.orders)))
        lam_ref = int(lam[G.rank(reference)])
        m0 = int(np.gcd.reduce(plus_gcd[~odd]))
        m1 = math.gcd(int(np.gcd.reduce(spread[odd])), int(np.gcd.reduce(first[odd] - lam_ref)))
        m = math.gcd(m0, m1)
        if m != 0 and G.n % m != 0:
            raise ArithmeticError(f"modulus {m} does not divide the group order {G.n}")
        out.append(Moduli(m0, m1, m, reference, d - lam_ref))
    return out


def valid_k(delta: int, modulus: int) -> tuple[int, ...]:
    """Every k in [1, modulus] at which a phase gap of k * delta (mod
    modulus) is neither 0 nor modulus / 2, i.e. gives FR proper."""
    delta %= modulus
    half = modulus // 2 if modulus % 2 == 0 else None
    return tuple(
        k for k in range(1, modulus + 1) if (k * delta) % modulus not in {0, half}
    )


def _is_valid_k(given: tuple[int, ...], delta: int, modulus: int) -> bool:
    """given == valid_k(delta, modulus), decided in O(len(given)): a strictly
    increasing list in [1, modulus] that avoids both excluded progressions
    and has the size of their complement."""
    delta %= modulus
    half = modulus // 2 if modulus % 2 == 0 else None
    g = math.gcd(delta, modulus)
    # g values of k give k * delta = 0, and g more give modulus / 2 when g
    # divides it
    size = modulus - g - (g if half is not None and half % g == 0 else 0)
    if len(given) != size:
        return False
    previous = 0
    for k in given:
        if not previous < k <= modulus or (k * delta) % modulus in (0, half):
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
        return {
            "a": list(self.a),
            "kind": self.kind.value,
            "k": self.k,
            "modulus": self.modulus,
            "rho0": self.rho0,
            "rho1": self.rho1,
            "time": self.time,
            "alpha": {"re": self.alpha.real, "im": self.alpha.imag},
            "beta": {"re": self.beta.real, "im": self.beta.imag},
            "valid_k": list(self.valid_k),
        }

    @classmethod
    def from_json(cls, data: object) -> "FRWitness":
        """Read a certificate, then check each derived field it carries
        (kind, time, alpha, beta, and valid_k when k is invertible mod the
        modulus) against its recomputation from k, modulus, rho0 and rho1."""
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
        if math.gcd(k, modulus) == 1:
            # k is invertible, so delta mod modulus can be recovered from the
            # phase-exponent gap and the valid set checked or recomputed.
            delta = (rho0 - rho1) * pow(k, -1, modulus)
            if given is None:
                valid = valid_k(delta, modulus)
            elif _is_valid_k(given, delta, modulus):
                valid = given
            else:
                raise _mismatch("valid_k")
        elif given is None:
            raise SpecFormatError(
                "witness document omits valid_k and it cannot be recovered"
            )
        else:
            valid = given
        witness = cls(a, k, modulus, rho0 % modulus, rho1 % modulus, valid)
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


def decide_fr(
    graph: CayleyGraph, a: Element, spec: Optional[Spectrum] = None
) -> Optional[FRWitness]:
    """Classify the walk between 0 and the involution a.

    Returns None when the question is vacuous or no rational-phase alignment
    time exists at all: a not an involution (including every element of an
    odd-order group), non-integral spectrum (a connection set that is not a
    union of unit orbits, found before any spectrum work), or the degenerate
    edgeless case.  Otherwise returns a witness whose kind is FR, PST, or PERIODIC.
    The canonical witness uses the smallest k achieving the best available
    kind (FR when the valid set is nonempty, else PST, else PERIODIC); that
    smallest k is always 1."""
    G = graph.group
    a = G.require_element(a)
    if G.n % 2 == 1 or G.element_order(a) != 2 or graph.unit_orbits is None:
        return None
    if spec is None:
        spec = spectrum(graph)
    (mod,) = involution_moduli(spec, [a])
    return _witness(a, spec.degree, mod)


def _witness(a: Element, degree: int, mod: Moduli) -> Optional[FRWitness]:
    """The canonical witness of decide_fr from the moduli of a."""
    if mod.m > 0:
        big_n = mod.m
    elif mod.delta == 0:
        return None
    else:
        big_n = 4 * abs(mod.delta)
    valid = valid_k(mod.delta, big_n)
    # When delta lands outside {0, N/2} mod N, k = 1 itself is valid, so the
    # canonical witness always sits at k = 1 (FR exists iff 1 is in valid).
    if valid and valid[0] != 1:
        raise ArithmeticError(f"k = {valid[0]} is valid but k = 1 is not")
    k = 1
    lam_ref = degree - mod.delta
    rho0 = (k * degree) % big_n
    rho1 = (k * lam_ref) % big_n
    return FRWitness(a, k, big_n, rho0, rho1, valid)


def search_all(graph: CayleyGraph) -> list[tuple[Element, FRWitness]]:
    """Classify every involution of the group, as decide_fr does each one,
    from one spectrum and one fold of it (involution_moduli).

    Empty for odd group order (no involutions) and for non-integral spectra;
    both are decided before any spectrum work.
    """
    involutions = graph.group.involutions()
    if not involutions or graph.unit_orbits is None:
        return []
    spec = spectrum(graph)
    out: list[tuple[Element, FRWitness]] = []
    for a, mod in zip(involutions, involution_moduli(spec, involutions)):
        w = _witness(a, spec.degree, mod)
        if w is not None:
            out.append((a, w))
    return out
