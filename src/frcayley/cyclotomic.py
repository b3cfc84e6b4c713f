"""Exact integer arithmetic on sums of roots of unity.

A :class:`RootOfUnitySum` of modulus e stores one integer coefficient per
power of w = exp(2*pi*i/e).  Whether such a sum is a rational integer is
decided by reduction modulo the e-th cyclotomic polynomial — never by
floating-point rounding.  Coefficients are plain Python integers, so no
magnitude can overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence


def _divide_monic(num: Sequence[int], monic: Sequence[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of num by a monic polynomial, both integer
    coefficient lists with the constant term first.  The divisor's leading
    term is 1, so each step clears one top entry of the remainder and
    subtracts that multiple of the divisor's nonzero lower terms only.  The
    remainder keeps len(num) entries, zero from the divisor's degree on."""
    deg = len(monic) - 1
    terms = [(j, b) for j, b in enumerate(monic[:deg]) if b]
    rem = list(num)
    quot = [0] * (len(rem) - deg)
    for base in range(len(rem) - 1 - deg, -1, -1):
        c = rem[base + deg]
        if c:
            quot[base] = c
            rem[base + deg] = 0
            for j, b in terms:
                rem[base + j] -= c * b
    return quot, rem


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _totient(n: int) -> int:
    out = n
    for p in _factorize(n):
        out = out // p * (p - 1)
    return out


def _mobius(n: int) -> int:
    mult = _factorize(n).values()
    return 0 if any(k > 1 for k in mult) else (-1) ** len(mult)


@lru_cache(maxsize=None)
def _von_sterneck(d: int, g: int) -> int:
    # c_d(j) for every j with gcd(d, j) = g.
    q = d // g
    return _mobius(q) * (_totient(d) // _totient(q))


@lru_cache(maxsize=None)
def ramanujan_row(d: int) -> tuple[int, ...]:
    """Ramanujan sums c_d(j) for j = 0, ..., d - 1: the sum of the j-th
    powers of the primitive d-th roots of unity, an integer given exactly by
    von Sterneck's formula mu(d/g) phi(d) / phi(d/g) with g = gcd(d, j)."""
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    return tuple(_von_sterneck(d, math.gcd(d, j)) for j in range(d))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients, constant term first, of the minimal polynomial of a
    primitive e-th root of unity.

    Computed from x^e - 1 by exact division by the cyclotomic polynomial of
    each proper divisor of e in turn.
    """
    if e < 1:
        raise ValueError(f"order must be >= 1, got {e}")
    phi = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            phi, rem = _divide_monic(phi, cyclotomic_polynomial(d))
            if any(rem):  # impossible for a correct divisor
                raise ArithmeticError(f"inexact cyclotomic division at order {e}")
    return tuple(phi)


def approx_terms(modulus: int, terms: Iterable[tuple[int, int]]) -> complex:
    """Float value of the sum of c * w^k, w = exp(2*pi*i/modulus), over
    the (k, c) in `terms`, added in the order given."""
    total = 0j
    for k, c in terms:
        total += c * cmath.exp(2j * cmath.pi * k / modulus)
    return total


@dataclass(frozen=True, eq=False)
class RootOfUnitySum:
    """Integer combination sum_k counts[k] * w^k with w = exp(2*pi*i/modulus).

    ``counts`` always has length exactly ``modulus``.  Two sums compare equal
    when they represent the same algebraic number (same modulus, equal
    reductions); representations are not canonical until :meth:`reduced`.
    """

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if len(self.counts) != self.modulus:
            raise ValueError(
                f"counts has length {len(self.counts)}, expected modulus {self.modulus}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, modulus: int) -> "RootOfUnitySum":
        return cls(modulus, (0,) * modulus)

    @classmethod
    def root(cls, modulus: int, k: int, mult: int = 1) -> "RootOfUnitySum":
        counts = [0] * modulus
        counts[k % modulus] = mult
        return cls(modulus, tuple(counts))

    @classmethod
    def integer(cls, modulus: int, value: int) -> "RootOfUnitySum":
        counts = [0] * modulus
        counts[0] = value
        return cls(modulus, tuple(counts))

    # -- ring operations -------------------------------------------------

    def _match(self, other: "RootOfUnitySum") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")

    def __add__(self, other: "RootOfUnitySum") -> "RootOfUnitySum":
        self._match(other)
        return RootOfUnitySum(self.modulus, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "RootOfUnitySum") -> "RootOfUnitySum":
        self._match(other)
        return RootOfUnitySum(self.modulus, tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __neg__(self) -> "RootOfUnitySum":
        return RootOfUnitySum(self.modulus, tuple(-a for a in self.counts))

    # -- canonicalization -------------------------------------------------

    def reduced(self) -> "RootOfUnitySum":
        """Canonical representative: the remainder of the counts by the
        cyclotomic polynomial of the modulus.

        After reduction only the first phi(modulus) entries may be nonzero,
        and the value is an integer iff all non-constant entries vanish.
        """
        rem = _divide_monic(self.counts, cyclotomic_polynomial(self.modulus))[1]
        return RootOfUnitySum(self.modulus, tuple(rem))

    def as_integer(self) -> Optional[int]:
        """The integer value of this sum, or None when it is irrational."""
        red = self.reduced()
        if any(red.counts[1:]):
            return None
        return red.counts[0]

    def approx(self) -> complex:
        """Floating-point value, for display and numeric cross-checks only."""
        return approx_terms(self.modulus, ((k, c) for k, c in enumerate(self.counts) if c))

    # -- comparison -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootOfUnitySum):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        return self.reduced().counts == other.reduced().counts

    def __repr__(self) -> str:
        return f"RootOfUnitySum(modulus={self.modulus}, counts={self.counts})"
