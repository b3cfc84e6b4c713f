"""Boolean functions on bit vectors and integer functions on abelian groups.

Covers the Walsh side (fast transform, bent / semi-bent classification,
eigenvalues of the associated Cayley graph) and the group-Fourier side
(exact transforms of integer-valued functions, unit-orbit class functions,
prime-power plateaued structure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclotomic import ramanujan_row
from .errors import NotClassFunctionError, SpecFormatError
from .groups import Element, FiniteAbelianGroup, make_group


def hadamard_transform(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Butterfly Walsh–Hadamard transform of an integer vector.

    Length must be a power of two; index j pairs with index x through the
    bit-wise dot product of their binary expansions.
    """
    out = np.array(values, dtype=np.int64, copy=True)
    if out.ndim != 1:
        raise ValueError(f"input must be one-dimensional, got {out.ndim} dimensions")
    m = out.size
    if m == 0 or m & (m - 1):
        raise ValueError(f"length must be a power of two, got {m}")
    h = 1
    while h < m:
        # every block of 2h at once: rows (a, b) become (a + b, a - b)
        blocks = out.reshape(-1, 2, h)
        a = blocks[:, 0].copy()
        blocks[:, 0] += blocks[:, 1]
        blocks[:, 1] = a - blocks[:, 1]
        h *= 2
    return out


def ramanujan_transform(
    group: FiniteAbelianGroup,
    orbits: Iterable[tuple[Element, int, int]],
    dtype: type = np.int64,
) -> np.ndarray:
    """Integer Fourier transform, in rank order, of a class function given
    as one (s, d, w) per unit orbit: s in the orbit, d = ord(s), w the value
    on it.  The orbit adds w * c_d(j) at z, where the character pairing of z
    and s is j * (e / d) mod e and c_d is the Ramanujan sum, which is real,
    so the sign of the pairing does not matter.

    The pairings are exact in int64: they stay below len(orders) * e, and
    row * c below the square of a factor order.  The sums are exact in
    `dtype` when it holds the sum over orbits of |w| * |orbit|."""
    G = group
    e = G.exponent
    out = np.zeros(G.n, dtype=dtype)
    for s, d, w in orbits:
        # each factor's term broadcast along its own axis: no coordinate array
        pairing = np.zeros(G.orders, dtype=np.int64)
        for i, (c, m) in enumerate(zip(s, G.orders)):
            if c:
                row = (e // m) * (np.arange(m, dtype=np.int64) * c % m)
                pairing += row.reshape((m,) + (1,) * (len(G.orders) - 1 - i))
        pairing //= e // d
        pairing %= d
        out += (w * np.asarray(ramanujan_row(d), dtype=dtype))[pairing.reshape(-1)]
    return out


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: F_2^n -> F_2, indexed in lexicographic bit order.

    Index i corresponds to the coordinate tuple whose first bit is the most
    significant bit of i (the same ranking the group modules use).
    """

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"arity must be >= 1, got {self.n}")
        if len(self.table) != 1 << self.n:
            raise ValueError(f"table length {len(self.table)} != 2^{self.n}")
        if any(v not in (0, 1) for v in self.table):
            raise ValueError("table entries must be bits")

    @classmethod
    def from_hex(cls, hex_table: str) -> "BooleanFunction":
        """Parse a truth table from hex; bit j of the value is f at index j."""
        bits = 4 * len(hex_table)
        n = bits.bit_length() - 1
        if bits == 0 or (1 << n) != bits:
            raise SpecFormatError(
                f"hex table must encode a power-of-two bit count, got {bits} bits"
            )
        try:
            value = int(hex_table, 16)
        except ValueError:
            raise SpecFormatError(f"not a hex string: {hex_table!r}") from None
        # the binary digits, most significant first, read backwards; the
        # mask keeps the low bits of a negative value in two's complement
        digits = format(value & ((1 << bits) - 1), f"0{bits}b")
        return cls(n, tuple(map(int, reversed(digits))))

    def to_hex(self) -> str:
        value = int(bytes(reversed(self.table)).translate(_BIT_DIGITS), 2)
        width = max(1, (1 << self.n) // 4)
        return f"{value:0{width}x}"

    @classmethod
    def from_support(cls, n: int, support: Iterable[Sequence[int]]) -> "BooleanFunction":
        table = [0] * (1 << n)
        for coords in support:
            table[_bits_to_index(coords, n)] = 1
        return cls(n, tuple(table))

    @cached_property
    def group(self) -> FiniteAbelianGroup:
        return make_group([2] * self.n)

    @property
    def weight(self) -> int:
        return sum(self.table)

    def __call__(self, coords: Sequence[int]) -> int:
        return self.table[_bits_to_index(coords, self.n)]


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_to_index(coords: Sequence[int], n: int) -> int:
    if len(coords) != n:
        raise ValueError(f"expected {n} bits, got {len(coords)}")
    idx = 0
    for c in coords:
        idx = 2 * idx + (c & 1)
    return idx


def _index_to_bits(idx: int, n: int) -> Element:
    return tuple((idx >> (n - 1 - s)) & 1 for s in range(n))


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Integer Walsh coefficients W[a] = sum_x (-1)^(f(x) + a.x), by index."""

    n: int
    values: np.ndarray

    def distinct(self) -> set[int]:
        return set(int(v) for v in self.values)


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """Walsh spectrum of f via the sign vector (-1)^f."""
    signs = np.array([1 - 2 * v for v in f.table], dtype=np.int64)
    return WalshSpectrum(f.n, hadamard_transform(signs))


def support(f: BooleanFunction) -> list[Element]:
    """Coordinates where f is 1, in lexicographic order."""
    return [_index_to_bits(i, f.n) for i, v in enumerate(f.table) if v]


class BooleanClass(str, Enum):
    BENT = "BENT"
    SEMI_BENT = "SEMI_BENT"
    NEITHER = "NEITHER"


def classify_boolean(f: BooleanFunction) -> BooleanClass:
    """Bent iff the Walsh spectrum is {±2^(n/2)}; semi-bent iff it is a
    subset of {0, ±2^(n/2+1)} with both zero and a nonzero value present.
    Odd arity is always NEITHER."""
    if f.n % 2 == 1:
        return BooleanClass.NEITHER
    half = f.n // 2
    vals = walsh_transform(f).distinct()
    flat = 1 << half
    if vals <= {flat, -flat}:
        return BooleanClass.BENT
    high = flat << 1
    if vals <= {0, high, -high} and 0 in vals and vals != {0}:
        return BooleanClass.SEMI_BENT
    return BooleanClass.NEITHER


def support_size_check(f: BooleanFunction) -> int:
    """Support size of a bent function; raises ValueError unless
    |supp| = 2^(n-1) ± 2^(n/2-1)."""
    size = f.weight
    half = f.n // 2
    allowed = {(1 << (f.n - 1)) - (1 << (half - 1)), (1 << (f.n - 1)) + (1 << (half - 1))}
    if size not in allowed:
        raise ValueError(f"bent support size {size} outside {sorted(allowed)}")
    return size


def eigenvalues_from_walsh(f: BooleanFunction) -> np.ndarray:
    """Eigenvalues of the Cayley graph on F_2^n connected by supp(f).

    Entry 0 is the degree |supp(f)|; entry x != 0 is -W[x]/2.
    """
    w = walsh_transform(f).values
    lam = -(w // 2)
    lam[0] = f.weight
    return lam


def mm_bent(n: int) -> BooleanFunction:
    """Inner-product bent function pairing adjacent coordinates:
    f(x) = x_1 x_2 + x_3 x_4 + ... + x_{n-1} x_n."""
    if n < 2 or n % 2 == 1:
        raise ValueError(f"arity must be even and >= 2, got {n}")
    table = []
    for i in range(1 << n):
        bits = _index_to_bits(i, n)
        acc = 0
        for j in range(0, n, 2):
            acc ^= bits[j] & bits[j + 1]
        table.append(acc)
    return BooleanFunction(n, tuple(table))


@dataclass(frozen=True)
class GroupFunction:
    """Integer-valued function on a finite abelian group, stored by rank."""

    group: FiniteAbelianGroup
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.group.n:
            raise ValueError(f"value table length {len(self.values)} != group order {self.group.n}")

    @classmethod
    def indicator(cls, group: FiniteAbelianGroup, subset: Iterable[Element]) -> "GroupFunction":
        values = [0] * group.n
        for g in subset:
            values[group.rank(group.require_element(g))] = 1
        return cls(group, tuple(values))

    def __call__(self, g: Element) -> int:
        return self.values[self.group.rank(g)]

    @cached_property
    def unit_orbits(self) -> Optional[tuple[tuple[Element, int, int], ...]]:
        """One (x, ord(x), f(x)) per unit orbit {k x : k a unit mod ord(x)}
        on which f is nonzero, x the orbit's first element in rank order;
        None as soon as f takes two values on one orbit.  One walk over the
        group, each element visited once."""
        G = self.group
        values = self.values
        seen = bytearray(G.n)
        out = []
        for i, x in enumerate(G.elements()):
            if seen[i]:
                continue
            v = values[i]
            for _, y in G.unit_multiples(x):
                j = G.rank(y)
                if values[j] != v:
                    return None
                seen[j] = 1
            if v:
                out.append((x, G.element_order(x), v))
        return tuple(out)


def fourier_integers(f: GroupFunction) -> Optional[list[int]]:
    """Integer Fourier spectrum in element order, or None if any
    coefficient is irrational.

    The unit u of Z_exponent acts on the coefficients as a Galois
    automorphism, taking the transform of f to that of x -> f(u^-1 x).  So
    every coefficient is rational exactly when f is a class function, and a
    class function gets exact integers without cyclotomic arithmetic: the
    Walsh transform when the exponent is 2, else one Ramanujan row per unit
    orbit.  The tests check both against one cyclotomic count vector per
    element."""
    orbits = f.unit_orbits
    if orbits is None:
        return None
    # every partial sum of either transform is bounded by the sum of |f|
    fits = sum(abs(v) for v in f.values) < 1 << 62
    if f.group.exponent == 2 and fits:
        return hadamard_transform(f.values).tolist()
    return ramanujan_transform(f.group, orbits, np.int64 if fits else object).tolist()


def is_class_function(f: GroupFunction) -> bool:
    """True iff f(l*x) = f(x) for every unit l of Z_exponent, i.e. f is
    constant on every unit orbit."""
    return f.unit_orbits is not None


def plateaued_level(f: GroupFunction, p: int) -> Optional[tuple[int, int]]:
    """Largest r >= 1 with the integer Fourier spectrum constant mod p^r.

    Returns (k, r) with k the common residue in [0, p^r), or None when no
    such r exists — including the degenerate constant-spectrum case, where
    no maximal exponent is defined.  Requires a class function (those have
    an integer spectrum by Galois stability of unit orbits).
    """
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    if not is_class_function(f):
        raise NotClassFunctionError(
            "the function is not constant on unit-multiplication orbits"
        )
    ints = fourier_integers(f)
    if ints is None:
        raise ArithmeticError("a class function has an irrational Fourier coefficient")
    base = ints[0]
    spread = 0
    for v in ints[1:]:
        spread = math.gcd(spread, v - base)
    if spread == 0:
        return None
    r = 0
    while spread % p == 0:
        spread //= p
        r += 1
    if r == 0:
        return None
    return (base % p**r, r)
