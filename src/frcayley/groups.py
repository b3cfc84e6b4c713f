"""Finite abelian groups presented as direct sums of cyclic groups.

Elements are tuples of reduced residues, one per cyclic factor, iterated in
lexicographic order.  Characters are never materialized as complex numbers
here: pairing two elements yields the integer exponent k such that
chi_g(h) = w^k for w the primitive root of unity of order ``exponent``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .cyclotomic import _factorize
from .errors import InvalidGroupError

Element = tuple[int, ...]


def units_mod(e: int) -> list[int]:
    """Units of Z_e in increasing order; units_mod(1) is empty by convention."""
    if e < 1:
        raise ValueError(f"modulus must be >= 1, got {e}")
    return [k for k in range(1, e) if math.gcd(k, e) == 1]


# A spectrum, and the fold of it onto G/2G that decides the involutions,
# hold one value per group element, so a larger order is refused up front
# instead of running unbounded.
MAX_GROUP_ORDER = 1 << 20


def _has_full_rank_mod(rows: Iterable[Sequence[int]], cols: Sequence[int], p: int) -> bool:
    """True iff the given columns of rows, reduced mod the prime p, span
    F_p^len(cols).  Gaussian elimination over the rows in order, each
    distinct reduced vector tried once, that stops at full rank."""
    return _rank_mod(_reduced_rows(rows, cols, p), len(cols), p)[0]


def _reduced_rows(
    rows: Iterable[Sequence[int]], cols: Sequence[int], p: int
) -> Iterator[tuple[int, ...]]:
    """The given columns of each row, mod p, each row taken when reached."""
    if len(cols) == 1:  # itemgetter of one index gives the entry, not a tuple
        return zip(map(p.__rmod__, map(operator.itemgetter(*cols), rows)))
    mod_p = itertools.repeat(p.__rmod__)
    return map(tuple, map(map, mod_p, map(operator.itemgetter(*cols), rows)))


def _rank_mod(vectors: Iterable[tuple[int, ...]], width: int, p: int) -> tuple[bool, int, int]:
    """(full rank, vectors read, reductions) of _has_full_rank_mod's
    elimination over vectors of F_p^width; a reduction is one subtraction
    of a pivot row."""
    basis: dict[int, list[int]] = {}  # pivot position -> row, pivot 1, zero before it
    tried: set[tuple[int, ...]] = set()
    read = reductions = 0
    for read, v in enumerate(vectors, 1):
        if v in tried:
            continue
        tried.add(v)
        for j in range(width):
            c = v[j]
            if c == 0:
                continue
            pivot_row = basis.get(j)
            if pivot_row is None:
                inv = pow(c, -1, p)
                basis[j] = [x * inv % p for x in v]
                if len(basis) == width:
                    return True, read, reductions
                break
            v = [(x - c * y) % p for x, y in zip(v, pivot_row)]
            reductions += 1
    return len(basis) == width, read, reductions


# 1/phi, phi the golden ratio, the hardest number to approximate by
# fractions: the multiples of a step near n/phi mod n leave gaps of at most
# three lengths, close to one another (the three-distance theorem).
_INV_PHI = (math.sqrt(5) - 1) / 2


def _coprime_stride(n: int) -> int:
    """The integer nearest n/phi that is coprime to n; 1 when n <= 2."""
    if n <= 2:
        return 1
    x = n * _INV_PHI
    q = round(x)
    # the candidates by distance from x: q, q + step, q - step, q + 2 step, ...
    step = 1 if x > q else -1
    while math.gcd(q, n) != 1:
        q += step
        step = -step - (1 if step > 0 else -1)
    return q


def _stride_order(rows: Sequence[Element], q: int) -> Iterator[Element]:
    """rows[k q mod n] for k = 0, ..., n - 1, with n = len(rows) and q
    coprime to n, each looked up when it is reached: with q from
    _coprime_stride, a permutation of rows whose every run of consecutive
    entries samples the whole list."""
    n = len(rows)
    return map(rows.__getitem__, map(operator.mod, range(0, q * n, q), itertools.repeat(n)))


def make_group(orders: Sequence[int]) -> "FiniteAbelianGroup":
    """Build the direct sum of cyclic groups of the given orders (each >= 2),
    of total order at most MAX_GROUP_ORDER."""
    if not orders:
        raise InvalidGroupError("a group needs at least one cyclic factor")
    n = 1
    for m in orders:
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise InvalidGroupError(f"cyclic factor order must be an integer >= 2, got {m!r}")
        n *= m
        if n > MAX_GROUP_ORDER:
            raise InvalidGroupError(
                f"group order exceeds the ceiling of {MAX_GROUP_ORDER} elements"
            )
    return FiniteAbelianGroup(tuple(orders))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum Z_{n_1} + ... + Z_{n_r} with tuple-of-residue elements."""

    orders: tuple[int, ...]

    @cached_property
    def n(self) -> int:
        """Group order (product of the factor orders)."""
        return math.prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        """Largest element order: lcm of the factor orders."""
        return math.lcm(*self.orders)

    @cached_property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    @cached_property
    def _char_weights(self) -> tuple[int, ...]:
        # embed each factor's root of unity into the one of order `exponent`
        return tuple(self.exponent // m for m in self.orders)

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(m) for m in self.orders))

    def rank(self, g: Element) -> int:
        """Mixed-radix index of g, consistent with elements() order."""
        idx = 0
        for c, m in zip(g, self.orders):
            idx = idx * m + c
        return idx

    def unrank(self, idx: int) -> Element:
        coords = []
        for m in reversed(self.orders):
            idx, c = divmod(idx, m)
            coords.append(c)
        return tuple(reversed(coords))

    def require_element(self, g: Sequence[int]) -> Element:
        """Validate g and return it as a canonical tuple."""
        if len(g) != len(self.orders):
            raise ValueError(
                f"element {tuple(g)!r} has {len(g)} coordinates, group has {len(self.orders)} factors"
            )
        for c, m in zip(g, self.orders):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < m:
                raise ValueError(f"coordinate {c!r} of {tuple(g)!r} is not a residue mod {m}")
        return tuple(g)

    def add(self, g: Element, h: Element) -> Element:
        return tuple((a + b) % m for a, b, m in zip(g, h, self.orders))

    def neg(self, g: Element) -> Element:
        return tuple((-a) % m for a, m in zip(g, self.orders))

    def scale(self, c: int, g: Element) -> Element:
        return tuple((c * a) % m for a, m in zip(g, self.orders))

    def character_exponent(self, g: Element, h: Element) -> int:
        """k in [0, exponent) with chi_g(h) = w^k; symmetric and biadditive."""
        e = self.exponent
        total = 0
        for w, m, a, b in zip(self._char_weights, self.orders, g, h):
            total += w * ((a * b) % m)
        return total % e

    def element_order(self, g: Element) -> int:
        """Order of g: e // gcd(e, w_1 c_1, ..., w_r c_r) with e the exponent
        and w_i = e / m_i, as c -> w_i c embeds Z_{m_i} in Z_e."""
        e = self.exponent
        return e // math.gcd(e, *map(operator.mul, self._char_weights, g))

    def unit_orbits(self, members: Sequence[Element]) -> tuple[Optional[tuple], Optional[tuple]]:
        """(orbits, None) when the distinct elements `members`, listed in
        increasing order, are a union of unit orbits {k s : k in U(d)},
        d = ord(s), with one (s, d) per orbit, s its least element; else
        (None, (s, k)) for the first s with a multiple outside members and
        the least unit k of Z_d with k s outside.  The units of each d are
        listed once per call, after one multiple is found in members: a set
        that is no union of orbits is most often refused on that one."""
        if self.exponent == 2:
            # U(2) = {1}: each element is an orbit; the zero, first if listed, has order 1
            zero = int(bool(members) and not any(members[0]))
            return tuple(zip(members, itertools.chain([1] * zero, itertools.repeat(2)))), None
        inside = set(members)
        seen: set[Element] = set()
        units_of: dict[int, list[int]] = {}
        reps = []
        for s in members:
            if s in seen:
                continue
            d = self.element_order(s)
            if d in (3, 4, 6):  # U(d) = {1, -1}; a level set need not hold -s
                t = self.neg(s)
                if t not in inside:
                    return None, (s, d - 1)
                seen.add(t)
            elif d > 2:  # else the orbit is {s}
                units = units_of.get(d)
                if units is None:
                    k = next(k for k in range(2, d) if math.gcd(k, d) == 1)
                    if self.scale(k, s) not in inside:
                        return None, (s, k)
                    units = units_of[d] = units_mod(d)
                # k s for every unit k, built one coordinate at a time
                orbit = set(zip(*([k * c % m for k in units] for c, m in zip(s, self.orders))))
                if not orbit <= inside:
                    return None, (s, next(k for k in units if self.scale(k, s) not in inside))
                seen |= orbit
            reps.append((s, d))
        return tuple(reps), None

    def involution_choices(self) -> list[tuple[int, ...]]:
        """Per factor, the coordinates of the g with g + g = 0: 0 and m/2
        on a factor of even order m, 0 alone on an odd one."""
        return [(0, m // 2) if m % 2 == 0 else (0,) for m in self.orders]

    def involutions(self) -> list[Element]:
        """Nonzero g with g + g = 0, lexicographic; empty iff the order is odd."""
        return [g for g in itertools.product(*self.involution_choices()) if any(g)]

    @cached_property
    def _frattini_columns(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        # each prime p | n with the factors i such that p | m_i
        primes = sorted({p for m in self.orders for p in _factorize(m)})
        return tuple(
            (p, tuple(i for i, m in enumerate(self.orders) if m % p == 0)) for p in primes
        )

    def is_generated_by(self, gens: Iterable[Element]) -> bool:
        """True iff gens generate the whole group, without enumerating it.

        Frattini criterion: every proper subgroup lies in one of prime index
        p, which contains pG, and G/pG is F_p^r_p with r_p the number of
        factors whose order p divides.  So gens generate G exactly when, for
        every prime p | n, their coordinates on those factors, mod p, have
        rank r_p.  Cost O(|gens| * r^2) per prime.

        A prime whose columns are one factor is decided by one scan of that
        column, in the order given: rank 1 holds exactly when some row is
        nonzero there mod p.  For the others, rank does not depend on the
        order of the rows, so they are read in a coprime-stride order (see
        _stride_order), not as given: a sorted set that lists a hyperplane
        first, such as the lift {0} x S0 before {1} x S1, then reaches full
        rank in a few rows, not past the half."""
        return self._rank_test(gens)[0]

    def rank_test_counts(self, gens: Iterable[Element]) -> tuple[int, int]:
        """(rows read, reductions) of is_generated_by(gens), summed over the
        primes it tests, up to the first without full rank."""
        return self._rank_test(gens)[1:]

    def _rank_test(self, gens: Iterable[Element]) -> tuple[bool, int, int]:
        # is_generated_by with its work: (generated, rows read, reductions)
        rows = tuple(gens)
        q = _coprime_stride(len(rows))
        read = reductions = 0
        for p, cols in self._frattini_columns:
            if len(cols) == 1:
                # any() draws the rows from `left` one at a time, so what it
                # leaves there is the rows it did not read
                left = iter(rows)
                full = any(map(p.__rmod__, map(operator.itemgetter(*cols), left)))
                read += len(rows) - operator.length_hint(left)
            else:
                vectors = _reduced_rows(_stride_order(rows, q), cols, p)
                full, r, k = _rank_mod(vectors, len(cols), p)
                read, reductions = read + r, reductions + k
            if not full:
                return False, read, reductions
        return True, read, reductions

    def subgroup_generated(self, gens: Iterable[Element]) -> set[Element]:
        """Closure of gens together with 0 under addition: a breadth-first
        walk over the subgroup, kept as the reference for is_generated_by."""
        gen_list = [tuple(g) for g in gens]
        found = {self.zero}
        frontier = [self.zero]
        while frontier:
            fresh = []
            for x in frontier:
                for s in gen_list:
                    y = self.add(x, s)
                    if y not in found:
                        found.add(y)
                        fresh.append(y)
            frontier = fresh
        return found
