"""Cayley graphs over finite abelian groups: connection sets, exact spectra,
integrality, adjacency matrices, and JSON (de)serialization."""

from __future__ import annotations

import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Literal, Optional, Sequence

import numpy as np

from .boolfn import hadamard_transform, ramanujan_transform
from .cyclotomic import RootOfUnitySum
from .errors import (
    AsymmetricSetError,
    DisconnectedGraphWarning,
    SpecFormatError,
    ZeroInSetError,
)
from .groups import Element, FiniteAbelianGroup, make_group
from .ioutil import _json_int_list, _json_int_rows, _json_object


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
    """Validate, reduce, deduplicate, and sort a connection set.

    Rejects the zero element and any element whose inverse is missing."""
    seen: set[Element] = set()
    for coords in raw:
        g = group.require_element(tuple(coords))
        if g == group.zero:
            raise ZeroInSetError("the connection set must not contain the identity")
        seen.add(g)
    for g in seen:
        if group.neg(g) not in seen:
            raise AsymmetricSetError(
                f"element {g} is in the set but its inverse {group.neg(g)} is not"
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
        spectrum."""
        G = self.group
        members = set(self.connection.elements)
        seen: set[Element] = set()
        reps = []
        for s in self.connection:
            if s in seen:
                continue
            for _, t in G.unit_multiples(s):
                if t not in members:
                    return None
                seen.add(t)
            reps.append((s, G.element_order(s)))
        return tuple(reps)


def make_graph(
    orders: Sequence[int], connection: Iterable[Sequence[int]]
) -> CayleyGraph:
    """Build a Cayley graph, warning when the connection set does not
    generate the whole group."""
    group = make_group(orders)
    conn = validate_connection_set(connection, group)
    graph = CayleyGraph(group, conn)
    if not graph.connected:
        warnings.warn(
            "connection set does not generate the group; the graph is disconnected",
            DisconnectedGraphWarning,
            stacklevel=2,
        )
    return graph


class IntegerSpectrumView(Mapping):
    """Read-only tuple-keyed view of integer eigenvalues as RootOfUnitySum
    values of a given modulus, each built only when its key is read."""

    def __init__(self, modulus: int, ints: dict[Element, int]):
        self._modulus = modulus
        self._ints = ints

    def __getitem__(self, z: Element) -> RootOfUnitySum:
        return RootOfUnitySum.integer(self._modulus, self._ints[z])

    def __iter__(self) -> Iterator[Element]:
        return iter(self._ints)

    def __len__(self) -> int:
        return len(self._ints)


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvalues of a Cayley graph, indexed by group element.

    `values[z]` is the exact cyclotomic sum over the connection set;
    `integral_values` is the same data as plain integers when every
    eigenvalue is rational (hence an integer), otherwise None.  `by_rank`
    holds those integers as an int64 array in rank order, as the spectrum
    methods compute them; the engine reads that array."""

    group: FiniteAbelianGroup
    degree: int
    values: Mapping[Element, RootOfUnitySum]
    integral_values: Optional[dict[Element, int]]
    by_rank: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def is_integral(self) -> bool:
        return self.integral_values is not None


SpectrumMethod = Literal["auto", "generic", "walsh", "ramanujan"]


def spectrum(graph: CayleyGraph, method: SpectrumMethod = "auto") -> Spectrum:
    """Exact spectrum; eigenvalue at z is sum over s in S of the root of
    unity with exponent the character pairing of z and s.

    "walsh" is the butterfly fast path, valid only when every group factor
    has order 2.  "ramanujan" sums one Ramanujan sum per unit orbit of S,
    valid only when S is a union of unit orbits.  "generic" reduces one
    cyclotomic count vector per element and always works; it is the
    reference for the other two.  "auto" picks walsh, then ramanujan, then
    generic.  The fast paths give integers; `values` then reads them as
    RootOfUnitySum on demand."""
    G = graph.group
    if method == "auto":
        if G.exponent == 2:
            method = "walsh"
        elif graph.unit_orbits is not None:
            method = "ramanujan"
        else:
            method = "generic"
    if method == "walsh":
        if G.exponent != 2:
            raise ValueError("the butterfly method requires a group of exponent 2")
        indicator = np.zeros(G.n, dtype=np.int64)
        for s in graph.connection:
            indicator[G.rank(s)] = 1
        return _integer_spectrum(graph, hadamard_transform(indicator))
    if method == "ramanujan":
        if graph.unit_orbits is None:
            raise ValueError("the Ramanujan method requires a unit-closed connection set")
        orbits = [(s, d, 1) for s, d in graph.unit_orbits]
        return _integer_spectrum(graph, ramanujan_transform(G, orbits))

    e = G.exponent
    values = {}
    ranked: Optional[list[int]] = []
    for z in G.elements():
        counts = [0] * e
        for s in graph.connection:
            counts[G.character_exponent(z, s)] += 1
        coeff = RootOfUnitySum(e, tuple(counts))
        values[z] = coeff
        if ranked is not None:
            as_int = coeff.as_integer()
            if as_int is None:
                ranked = None
            else:
                ranked.append(as_int)
    if ranked is None:
        return Spectrum(G, graph.degree, values, None)
    lam = np.array(ranked, dtype=np.int64)
    return Spectrum(G, graph.degree, values, dict(zip(G.elements(), ranked)), lam)


def _integer_spectrum(graph: CayleyGraph, lam: np.ndarray) -> Spectrum:
    G = graph.group
    ints = dict(zip(G.elements(), lam.tolist()))
    view = IntegerSpectrumView(G.exponent, ints)
    return Spectrum(G, graph.degree, view, ints, lam)


def is_integral(graph: CayleyGraph) -> bool:
    """True iff every eigenvalue of the graph is an integer; by
    Bridges-Mena, iff the connection set is a union of unit orbits."""
    return graph.unit_orbits is not None


def unit_closed(graph: CayleyGraph) -> bool:
    """True iff the connection set is closed under multiplication by every
    unit of Z_exponent (equivalent to an integral spectrum)."""
    return graph.unit_orbits is not None


def adjacency_matrix(graph: CayleyGraph) -> np.ndarray:
    """Dense 0/1 adjacency matrix in element-rank order."""
    G = graph.group
    n = G.n
    A = np.zeros((n, n), dtype=np.int64)
    for i, g in enumerate(G.elements()):
        for s in graph.connection:
            A[i, G.rank(G.add(g, s))] = 1
    return A


def graph_to_json(graph: CayleyGraph) -> dict:
    """Wire form: {"group": [orders...], "set": [[coords...]...]}."""
    return {
        "group": list(graph.group.orders),
        "set": [list(g) for g in graph.connection],
    }


def graph_from_json(data: dict | str) -> CayleyGraph:
    """Parse the wire form; coordinates are reduced into canonical range."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON: {exc}") from exc
    doc = _json_object(data, "graph document", ("group", "set"))
    orders = _json_int_list(doc["group"], "group")
    rows = _json_int_rows(doc["set"], "set")
    group = make_group(orders)
    for row in rows:
        if len(row) != len(orders):
            raise SpecFormatError(
                f"coordinate row {row} has {len(row)} entries, expected {len(orders)}"
            )
    return make_graph(orders, [group.reduce_coords(row) for row in rows])
