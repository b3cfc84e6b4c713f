"""Cayley graphs over finite abelian groups: connection sets, exact spectra,
integrality, adjacency matrices, and JSON (de)serialization."""

from __future__ import annotations

import itertools
import json
import math
import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .boolfn import hadamard_transform, ramanujan_transform
from .cyclotomic import RootOfUnitySum, approx_terms
from .errors import (
    AsymmetricSetError,
    DisconnectedGraphWarning,
    InvalidGroupError,
    SpecFormatError,
    ZeroInSetError,
)
from .groups import Element, FiniteAbelianGroup, make_group, units_mod
from .ioutil import _LISTS, _exact_int_rows, _json_int_list, _json_int_rows, _json_list, _json_object


@dataclass(frozen=True)
class ConnectionSet:
    """Sorted inverse-closed subset of nonzero group elements."""

    elements: tuple[Element, ...]

    @property
    def d(self) -> int:
        """Degree of the Cayley graph (size of the set)."""
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def validate_connection_set(
    raw: Iterable[Sequence[int]], group: FiniteAbelianGroup
) -> ConnectionSet:
    """Validate, deduplicate, and sort a connection set of reduced elements.

    Rejects a coordinate out of range, the zero element and any element
    whose inverse is missing."""
    zero = group.zero
    seen: set[Element] = set()
    for coords in raw:
        g = group.require_element(tuple(coords))
        seen.add(g)
        if g == zero:
            break  # refused below, before any later row is read
    return _closed_set(group, seen)


def _closed_set(group: FiniteAbelianGroup, seen: set[Element]) -> ConnectionSet:
    # The set-level checks of a set of reduced elements, then the sort.
    if group.zero in seen:
        raise ZeroInSetError("the connection set must not contain the identity")
    if group.exponent == 2:
        return ConnectionSet(tuple(sorted(seen)))  # every element is its own inverse
    # the inverses of the whole set, negated one coordinate at a time
    cols = zip(zip(*seen), group.orders)
    if set(zip(*([-c % m for c in col] for col, m in cols))) != seen:
        neg = group.neg
        for g in seen:
            if neg(g) not in seen:
                raise AsymmetricSetError(
                    f"element {g} is in the set but its inverse {neg(g)} is not"
                )
    return ConnectionSet(tuple(sorted(seen)))


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph of a finite abelian group with an inverse-closed set."""

    group: FiniteAbelianGroup
    connection: ConnectionSet

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def degree(self) -> int:
        return self.connection.d

    @cached_property
    def connected(self) -> bool:
        return self.group.is_generated_by(self.connection.elements)

    @cached_property
    def unit_orbits(self) -> Optional[tuple[tuple[Element, int], ...]]:
        """The connection set as a union of unit orbits {k s : k in U(d)},
        d = ord(s): one (s, d) per orbit, s its smallest element; None as
        soon as some k s is missing from the set.

        By Bridges-Mena (1982) the graph is integral exactly when this is
        not None; each orbit then adds the Ramanujan sum c_d to the
        spectrum.

        When d is 1, 2, 3, 4 or 6, phi(d) <= 2 and the units of Z_d are +-1,
        so the orbit is {s, -s}, already in the set by
        validate_connection_set: it is recorded without a walk.  The units
        of each other d are listed once per call."""
        G = self.group
        if G.exponent == 2:
            # U(2) = {1}: every element of the set is an orbit of order 2
            return tuple(zip(self.connection.elements, itertools.repeat(2)))
        members = set(self.connection.elements)
        seen: set[Element] = set()
        units_of: dict[int, list[int]] = {}
        reps = []
        for s in self.connection:
            if s in seen:
                continue
            d = G.element_order(s)
            if d in (1, 2, 3, 4, 6):
                if d > 2:
                    seen.add(G.neg(s))
            else:
                units = units_of.get(d)
                if units is None:
                    # A set that is no union of orbits is most often refused
                    # here, on one multiple, before the units are listed.
                    k = next(k for k in range(2, d) if math.gcd(k, d) == 1)
                    if G.scale(k, s) not in members:
                        return None
                    units = units_of[d] = units_mod(d)
                orbit = set(G.scale_all(units, s))
                if not orbit <= members:
                    return None
                seen |= orbit
            reps.append((s, d))
        return tuple(reps)

    @cached_property
    def _spectrum(self) -> "Spectrum":
        # spectrum(self), computed on its first call
        G = self.group
        if self.unit_orbits is None:
            return Spectrum(G, self.degree, None, self.connection)
        if G.exponent == 2:
            # the ranks of the set at once: its 0/1 rows times the place values
            r = len(G.orders)
            rows = np.array(self.connection.elements, dtype=np.int64).reshape(-1, r)
            indicator = np.zeros(G.n, dtype=np.int64)
            indicator[rows @ (1 << np.arange(r - 1, -1, -1, dtype=np.int64))] = 1
            by_rank = hadamard_transform(indicator)
        else:
            orbits = [(s, d, 1) for s, d in self.unit_orbits]
            by_rank = ramanujan_transform(G, orbits)
        by_rank.flags.writeable = False
        return Spectrum(G, self.degree, by_rank)


def make_graph(
    orders: Sequence[int], connection: Iterable[Sequence[int]]
) -> CayleyGraph:
    """Build a Cayley graph, warning when the connection set does not
    generate the whole group."""
    group = make_group(orders)
    return _checked_graph(group, validate_connection_set(connection, group))


def _checked_graph(group: FiniteAbelianGroup, conn: ConnectionSet) -> CayleyGraph:
    # The warning names the line that called this function's caller: the
    # user's line for make_graph, graph_from_json and
    # families.build_multi_prime_family, and for a lift (families._lift)
    # the line of the family builder that called it.
    graph = CayleyGraph(group, conn)
    if not graph.connected:
        warnings.warn(
            "connection set does not generate the group; the graph is disconnected",
            DisconnectedGraphWarning,
            stacklevel=3,
        )
    return graph


class ElementMap(Mapping):
    """Read-only map from the elements of a group, in elements() order, to
    read(z), computed when z is read; a non-element key raises KeyError."""

    def __init__(self, group: FiniteAbelianGroup, read: Callable[[Element], object]):
        self._group = group
        self._read = read

    def __getitem__(self, z: Element):
        try:
            z = self._group.require_element(z)
        except (TypeError, ValueError):
            raise KeyError(z) from None
        return self._read(z)

    def __iter__(self) -> Iterator[Element]:
        return self._group.elements()

    def __len__(self) -> int:
        return self._group.n


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Exact eigenvalues of a Cayley graph: `by_rank` as int64 in rank
    order, or None exactly when some eigenvalue is irrational, and then the
    connection set, to compute each eigenvalue when it is read.  `values`
    (RootOfUnitySum) and `integral_values` (int; None unless integral) are
    read-only views of them keyed by element."""

    group: FiniteAbelianGroup
    degree: int
    by_rank: Optional[np.ndarray]
    connection: Optional[ConnectionSet] = None

    @property
    def is_integral(self) -> bool:
        return self.by_rank is not None

    @property
    def integral_values(self) -> Optional[Mapping[Element, int]]:
        if self.by_rank is None:
            return None
        return ElementMap(self.group, lambda z: int(self.by_rank[self.group.rank(z)]))

    @property
    def values(self) -> Mapping[Element, RootOfUnitySum]:
        return ElementMap(self.group, self._value)

    def _value(self, z: Element) -> RootOfUnitySum:
        counts = [0] * self.group.exponent
        for k, c in self._terms(z):
            counts[k] = c
        return RootOfUnitySum(len(counts), tuple(counts))

    def approx(self, z: Element) -> complex:
        """values[z].approx() from the terms of z, without its count vector."""
        return approx_terms(self.group.exponent, self._terms(z))

    def _terms(self, z: Element) -> list[tuple[int, int]]:
        # (k, c) with c != 0 in increasing k: the eigenvalue is sum c w^k
        if self.by_rank is not None:
            v = int(self.by_rank[self.group.rank(z)])
            return [(0, v)] if v else []
        G = self.group
        return sorted(Counter(G.character_exponent(z, s) for s in self.connection).items())


def spectrum(graph: CayleyGraph) -> Spectrum:
    """Exact spectrum: the eigenvalue at z is the sum over s in S of the
    root of unity with exponent the pairing of z and s.  It is integral iff
    S is a union of unit orbits (Bridges-Mena), else returned at once.  It
    is then the Walsh transform of S (exponent 2) or one Ramanujan row per
    unit orbit.  The tests check both against one cyclotomic count vector
    per element.

    It is computed once per graph object and kept on it, as unit_orbits
    and connected are, so every caller on one graph shares one Spectrum;
    its by_rank is read-only."""
    return graph._spectrum


def is_integral(graph: CayleyGraph) -> bool:
    """True iff every eigenvalue of the graph is an integer; by
    Bridges-Mena, iff the connection set is a union of unit orbits."""
    return graph.unit_orbits is not None


def graph_to_json(graph: CayleyGraph) -> dict:
    """Wire form: {"group": [orders...], "set": [[coords...]...]}."""
    return {
        "group": list(graph.group.orders),
        "set": [list(g) for g in graph.connection],
    }


def graph_from_json(data: dict | str) -> CayleyGraph:
    """Parse the wire form; coordinates are reduced into canonical range.

    The whole set is checked at once: every row exactly a list, of the
    group's rank, of exact ints.  It is then reduced a column at a time
    into the set.  Only a set that fails that check is walked a row at a
    time, to find its first fault.  A document with several faults is
    refused for the first of: a wrong-typed row, the group, a short or long
    row (the first), the zero element, an asymmetric element."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # ValueError: a JSONDecodeError, or an integer literal past the
            # interpreter's digit limit
            raise SpecFormatError(f"invalid JSON: {exc}") from exc
    doc = _json_object(data, "graph document", ("group", "set"))
    orders = _json_int_list(doc["group"], "group")
    rows = _json_list(doc["set"], "set")
    try:
        group = make_group(orders)
    except InvalidGroupError:
        _json_int_rows(rows, "set")  # a wrong-typed row is reported first
        raise
    orders = group.orders
    if _exact_int_rows(rows, _LISTS) and set(map(len, rows)) <= {len(orders)}:
        columns = [map(int.__mod__, col, itertools.repeat(m)) for col, m in zip(zip(*rows), orders)]
        return _checked_graph(group, _closed_set(group, set(zip(*columns))))
    ints = (int,) * len(orders)
    seen: set[Element] = set()
    add = seen.add
    bad = None
    for row in rows:
        if type(row) is not list or tuple(map(type, row)) != ints:
            row = _json_int_list(row, "set")  # raises unless a list of ints
            if len(row) != len(orders):
                if bad is None:
                    bad = row
                continue
        add(tuple(map(int.__mod__, row, orders)))
    if bad is not None:
        raise SpecFormatError(
            f"coordinate row {bad} has {len(bad)} entries, expected {len(orders)}"
        )
    return _checked_graph(group, _closed_set(group, seen))
