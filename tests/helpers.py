"""Shared test utilities: independent oracles and random generators.

Every oracle here is deliberately written against the definitions (direct
summation, dense enumeration) rather than reusing the library's fast paths,
so tests cross-validate two independent computations.
"""

from __future__ import annotations

import cmath
import random
import warnings
from typing import Sequence

import numpy as np

from frcayley import (
    BooleanFunction,
    CayleyGraph,
    DisconnectedGraphWarning,
    FiniteAbelianGroup,
    make_graph,
    support,
    units_mod,
    validate_connection_set,
)


def naive_walsh(f: BooleanFunction) -> list[int]:
    """O(4^n) Walsh transform straight from the definition
    W(a) = sum_x (-1)^(f(x) + a.x).  Index order matches the library's."""
    n = f.n
    size = 1 << n
    out = []
    for a_idx in range(size):
        total = 0
        for x_idx in range(size):
            dot = bin(a_idx & x_idx).count("1") & 1
            total += -1 if (f.table[x_idx] ^ dot) else 1
        out.append(total)
    return out


def naive_spectrum_complex(graph: CayleyGraph) -> np.ndarray:
    """Eigenvalues by direct per-coordinate complex summation, avoiding the
    shared character_exponent helper entirely."""
    G = graph.group
    out = np.zeros(G.n, dtype=complex)
    for i, z in enumerate(G.elements()):
        total = 0j
        for s in graph.connection:
            phase = sum(zc * sc / m for zc, sc, m in zip(z, s, G.orders))
            total += cmath.exp(2j * cmath.pi * phase)
        out[i] = total
    return out


def random_symmetric_set(
    group: FiniteAbelianGroup, rng: random.Random, prob: float = 0.4
) -> list[tuple[int, ...]]:
    """Random inverse-closed subset of the nonzero elements (maybe empty)."""
    chosen: set[tuple[int, ...]] = set()
    for g in group.elements():
        if g == group.zero or g in chosen:
            continue
        if rng.random() < prob:
            chosen.add(g)
            chosen.add(group.neg(g))
    return sorted(chosen)


def random_unit_closed_set(
    group: FiniteAbelianGroup, rng: random.Random, prob: float = 0.35
) -> list[tuple[int, ...]]:
    """Random union of unit-multiplication orbits (always integral spectrum,
    and automatically inverse-closed since -1 is a unit)."""
    chosen: set[tuple[int, ...]] = set()
    units = units_mod(group.exponent) or [1]
    for g in group.elements():
        if g == group.zero or g in chosen:
            continue
        if rng.random() < prob:
            for u in units:
                chosen.add(group.scale(u, g))
            chosen.add(g)
            chosen.add(group.neg(g))
    return sorted(chosen)


def quiet_graph(orders: Sequence[int], connection) -> CayleyGraph:
    """make_graph with the disconnectedness warning silenced (for bulk
    random generation where connectivity is irrelevant)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedGraphWarning)
        return make_graph(orders, connection)


def graph_from_set(group: FiniteAbelianGroup, conn) -> CayleyGraph:
    """CayleyGraph directly from a validated set, skipping connectivity talk."""
    return CayleyGraph(group, validate_connection_set(conn, group))


def random_invertible_gf2(rng: random.Random, n: int) -> list[list[int]]:
    """Uniform-ish random invertible matrix over GF(2) by rejection."""
    while True:
        mat = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        if _gf2_rank(mat) == n:
            return mat


def _gf2_rank(rows: list[list[int]]) -> int:
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def transform_boolean(
    f: BooleanFunction, mat: list[list[int]], shift: Sequence[int], const: int
) -> BooleanFunction:
    """g(x) = f(M x) + shift . x + const — preserves bentness for invertible
    M (affine equivalence plus linear-term addition)."""
    n = f.n
    table = []
    for idx in range(1 << n):
        x = [(idx >> (n - 1 - s)) & 1 for s in range(n)]
        mx = tuple(sum(row[j] * x[j] for j in range(n)) & 1 for row in mat)
        dot = sum(a * b for a, b in zip(shift, x)) & 1
        table.append(f(mx) ^ dot ^ (const & 1))
    return BooleanFunction(n, tuple(table))


def boolean_from_support(n: int, supp) -> BooleanFunction:
    """The Boolean function on n bits that is 1 exactly on the bit tuples
    of supp, each ranked with its first bit most significant."""
    table = [0] * (1 << n)
    for bits in supp:
        table[int("".join(map(str, bits)), 2)] = 1
    return BooleanFunction(n, tuple(table))


def graph_of_support(f: BooleanFunction) -> CayleyGraph:
    """Cay(F_2^n, supp(f)); requires f(0) = 0."""
    return quiet_graph([2] * f.n, support(f))


# Graph specs with several faults, as (id, document, exit code, stderr
# line): each is refused for the first of a wrong-typed row (2), the group
# (3), a short or long row (2), the zero element (3), an asymmetric element
# (3).
GRAPH_SPEC_FAULTS = [
    (
        "bad-group-then-bool",
        {"group": [1, 3], "set": [[0, 1], [2, 2], [0, True]]},
        2,
        "error: field 'set' must hold integers, got True",
    ),
    (
        "ceiling-then-short",
        {"group": [2048, 1024], "set": [[0, 1], [0]]},
        3,
        "error: group order exceeds the ceiling of 1048576 elements",
    ),
    (
        "short-then-bool",
        {"group": [2, 3], "set": [[0, 1], [1], [0, 2], [False, 1]]},
        2,
        "error: field 'set' must hold integers, got False",
    ),
    (
        "long-then-short",
        {"group": [2, 3], "set": [[0, 1], [1, 0, 0], [0, 2], [1]]},
        2,
        "error: coordinate row [1, 0, 0] has 3 entries, expected 2",
    ),
    (
        "zero-among-asymmetric",
        {"group": [2, 5], "set": [[0, 1], [0, 2], [2, -5], [0, 4]]},
        3,
        "error: the connection set must not contain the identity",
    ),
    (
        "two-asymmetric",
        {"group": [4, 9], "set": [[1, 2], [3, 7], [0, 4], [2, 0]]},
        3,
        "error: element (0, 4) is in the set but its inverse (0, 5) is not",
    ),
    (
        "two-asymmetric-cyclic",
        {"group": [100], "set": [[37], [3]]},
        3,
        "error: element (3,) is in the set but its inverse (97,) is not",
    ),
]
