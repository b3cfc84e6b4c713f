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


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; little-endian coefficients with no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs: Sequence[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @staticmethod
    def x_pow_minus_one(e: int) -> "IntPolynomial":
        return IntPolynomial((-1,) + (0,) * (e - 1) + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.of(out)

    def divmod_by(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor; quotient and remainder stay integral."""
        if not divisor.is_monic:
            raise ValueError("division is only supported by monic divisors")
        rem = list(self.coeffs)
        d = divisor.degree
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                quot[i - d] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i - d + j] -= c * b
        return IntPolynomial.of(quot), IntPolynomial.of(rem)


def _divisors(e: int) -> list[int]:
    return [d for d in range(1, e + 1) if e % d == 0]


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
def cyclotomic_polynomial(e: int) -> IntPolynomial:
    """Minimal polynomial of a primitive e-th root of unity.

    Computed by exact division of x^e - 1 by the product of the cyclotomic
    polynomials of the proper divisors of e.
    """
    if e < 1:
        raise ValueError(f"order must be >= 1, got {e}")
    if e == 1:
        return IntPolynomial((-1, 1))
    den = IntPolynomial((1,))
    for d in _divisors(e)[:-1]:
        den = den * cyclotomic_polynomial(d)
    quot, rem = IntPolynomial.x_pow_minus_one(e).divmod_by(den)
    if not rem.is_zero:  # impossible for a correct divisor product
        raise ArithmeticError(f"inexact cyclotomic division at order {e}")
    return quot


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
        """Canonical representative modulo the cyclotomic polynomial.

        After reduction only the first phi(modulus) entries may be nonzero,
        and the value is an integer iff all non-constant entries vanish.
        """
        phi = cyclotomic_polynomial(self.modulus).coeffs
        deg = len(phi) - 1
        rem = list(self.counts)
        for i in range(len(rem) - 1, deg - 1, -1):
            c = rem[i]
            if c:
                rem[i] = 0
                base = i - deg
                for j in range(deg):
                    rem[base + j] -= c * phi[j]
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
