"""Slow reference paths that only the tests call.

Each one is the straightforward dense computation that a faster library
routine replaced or that no library caller needs; the tests compare the
library against these.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Optional

import numpy as np

import frcayley as fr
from frcayley import (
    CayleyGraph,
    FiniteAbelianGroup,
    FRWitness,
    GroupFunction,
    RootOfUnitySum,
    TransferMatrix,
    VerificationReport,
)
from frcayley.cayley import _checked_graph, _closed_set
from frcayley.errors import HypothesisViolationError, InvalidGroupError, SpecFormatError, ZeroInSetError
from frcayley.families import BuiltFamily
from frcayley.groups import make_group, units_mod
from frcayley.ioutil import _json_int, _json_int_list, _json_int_rows, _json_list, _json_object, _json_str
from frcayley.oracle import _require_dense


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Schoolbook long division by a monic den, its leading term included:
    (quotient, remainder), the remainder of len(num) entries."""
    rem = list(num)
    d = len(den) - 1
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        quot[i - d] = c
        for j, b in enumerate(den):
            rem[i - d + j] -= c * b
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_product(e: int) -> tuple[int, ...]:
    """Phi_e as x^e - 1 divided once by the product of Phi_d over the
    proper divisors d of e, each Phi_d from this function too: the
    reference for `cyclotomic_polynomial`."""
    den = [1]
    for d in range(1, e):
        if e % d == 0:
            den = poly_mul(den, list(cyclotomic_polynomial_by_product(d)))
    quot, rem = poly_divmod([-1] + [0] * (e - 1) + [1], den)
    if any(rem):
        raise ArithmeticError(f"inexact cyclotomic division at order {e}")
    return tuple(quot)


def cyclotomic_spectrum(graph: CayleyGraph) -> list[RootOfUnitySum]:
    """Eigenvalues in element order, each a count vector reduced modulo the
    cyclotomic polynomial: the reference for the transforms of `spectrum`."""
    G = graph.group
    e = G.exponent
    out = []
    for z in G.elements():
        counts = [0] * e
        for s in graph.connection:
            counts[G.character_exponent(z, s)] += 1
        out.append(RootOfUnitySum(e, tuple(counts)).reduced())
    return out


def group_fourier(f: GroupFunction) -> list[RootOfUnitySum]:
    """Exact Fourier coefficients fhat(chi_z) = sum_x f(x) * conj(chi_z(x)),
    listed in element order of z: the reference for `fourier_integers`."""
    G = f.group
    e = G.exponent
    out = []
    elements = list(G.elements())
    for z in elements:
        counts = [0] * e
        for x, v in zip(elements, f.values):
            if v:
                counts[(-G.character_exponent(z, x)) % e] += v
        out.append(RootOfUnitySum(e, tuple(counts)))
    return out


def unit_orbits_by_elements(f: GroupFunction) -> Optional[tuple[tuple[tuple[int, ...], int, int], ...]]:
    """GroupFunction.unit_orbits by one walk over the whole group, each
    element visited once: every k x with k a unit mod ord(x), read by rank,
    must carry the value of x."""
    G = f.group
    seen = bytearray(G.n)
    out = []
    for i, x in enumerate(G.elements()):
        if seen[i]:
            continue
        d = G.element_order(x)
        v = f.values[i]
        for k in units_mod(d) if d > 1 else [1]:
            j = G.rank(G.scale(k, x))
            if f.values[j] != v:
                return None
            seen[j] = 1
        if v:
            out.append((x, d, v))
    return tuple(out)


def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """X[i, j] = chi_{g_i}(g_j), factor by factor with the new factor on the
    inner axis and the exponents reduced mod e at every step."""
    e = group.exponent
    expo = np.zeros((1, 1), dtype=np.int64)
    for m in group.orders:
        c = np.arange(m, dtype=np.int64)
        block = (e // m) * (np.outer(c, c) % m)
        k = expo.shape[0]
        expo = ((expo[:, None, :, None] + block[None, :, None, :]) % e).reshape(k * m, k * m)
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    return roots[expo]


def eigenvalue_array(graph: CayleyGraph, table: Optional[np.ndarray] = None) -> np.ndarray:
    """lambda_z = sum_{s in S} chi_z(s) from the rows of the whole table."""
    G = graph.group
    if table is None:
        table = character_table(G)
    rows = [table[G.rank(s), :] for s in graph.connection]
    lam = np.sum(rows, axis=0) if rows else np.zeros(G.n, dtype=complex)
    if not np.max(np.abs(lam.imag)) < 1e-9:
        raise ArithmeticError("eigenvalues are not real; the connection set is not symmetric")
    return lam.real


def difference_rank_table(group: FiniteAbelianGroup) -> np.ndarray:
    """D[i, j] = rank(g_i - g_j), factor by factor with the new digit on the
    inner axis."""
    D = np.zeros((1, 1), dtype=np.int64)
    for m in group.orders:
        c = np.arange(m, dtype=np.int64)
        digit = (c[:, None] - c[None, :]) % m
        k = D.shape[0]
        D = (D[:, None, :, None] * m + digit[None, :, None, :]).reshape(k * m, k * m)
    return D


def transfer_matrix(graph: CayleyGraph, t: float) -> TransferMatrix:
    """H(t) from the whole character table and its conjugate copy."""
    G = graph.group
    _require_dense(G)
    table = character_table(G)
    lam = eigenvalue_array(graph, table)
    phases = np.exp(1j * t * lam)
    row0 = phases @ table.conj() / G.n
    entries = row0[difference_rank_table(G)]
    return TransferMatrix(G.n, t, entries)


def adjacency_matrix(graph: CayleyGraph) -> np.ndarray:
    """Dense 0/1 adjacency matrix in element-rank order."""
    G = graph.group
    n = G.n
    A = np.zeros((n, n), dtype=np.int64)
    for i, g in enumerate(G.elements()):
        for s in graph.connection:
            A[i, G.rank(G.add(g, s))] = 1
    return A


def series_walk_matrix(graph: CayleyGraph, t: float, terms: int = 25) -> np.ndarray:
    """Second, eigenbasis-free oracle: scaling-and-squaring Taylor series
    for exp(i t A) straight from the adjacency matrix."""
    G = graph.group
    _require_dense(G)
    if terms < 20:
        raise ValueError("at least 20 series terms are required for full precision")
    A = adjacency_matrix(graph).astype(np.complex128)
    B = 1j * t * A
    norm = float(np.max(np.sum(np.abs(B), axis=0))) if G.n else 0.0
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    B /= 2.0**squarings
    H = np.eye(G.n, dtype=np.complex128)
    term = np.eye(G.n, dtype=np.complex128)
    for j in range(1, terms + 1):
        term = term @ B / j
        H = H + term
    for _ in range(squarings):
        H = H @ H
    return H


def dense_expm_check(graph: CayleyGraph, t: float, terms: int = 25) -> float:
    """Max entrywise difference between the eigenbasis walk matrix and the
    Taylor-series one.  Small values certify both computations at once."""
    spectral = fr.transfer_matrix(graph, t).entries
    series = series_walk_matrix(graph, t, terms=terms)
    return float(np.max(np.abs(spectral - series)))


def gram_defect(entries: np.ndarray) -> float:
    """max |H^H H - I| from the full n x n Gram matrix."""
    gram = entries.conj().T @ entries
    return float(np.max(np.abs(gram - np.eye(entries.shape[0]))))


def verify_fr(graph: CayleyGraph, witness: FRWitness, tol: float = 1e-9) -> VerificationReport:
    """The dense verifier: builds the translation matrix Q, the target
    alpha*I + beta*Q and the full Gram matrix of H(t), with H(t) from the
    reference tables above."""
    G = graph.group
    _require_dense(G)
    a = G.require_element(witness.a)
    n = G.n
    image = np.array([G.rank(G.add(g, a)) for g in G.elements()], dtype=np.int64)
    ranks = np.arange(n)
    Q = np.zeros((n, n), dtype=np.int64)
    Q[ranks, image] = 1
    # Q is a permutation matrix, so Q = Q^T and Q^2 = I both say that image
    # is an involution, and trace(Q) = 0 that it has no fixed point.
    permutation_ok = np.array_equal(image[image], ranks) and not np.any(image == ranks)
    H = transfer_matrix(graph, witness.time)
    target = witness.alpha * np.eye(n) + witness.beta * Q
    max_dev = float(np.max(np.abs(H.entries - target)))
    defect = gram_defect(H.entries)
    passed = permutation_ok and max_dev <= tol and defect <= tol
    return VerificationReport(passed, max_dev, tol, defect, permutation_ok)


def graph_from_json_by_rows(data: dict | str) -> CayleyGraph:
    """graph_from_json one row at a time: each row type-checked,
    length-checked and reduced straight into the set, with the faults
    reported in the same order."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
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
    ints = (int,) * len(orders)
    seen = set()
    bad = None
    for row in rows:
        if type(row) is not list or tuple(map(type, row)) != ints:
            row = _json_int_list(row, "set")  # raises unless a list of ints
            if len(row) != len(orders):
                if bad is None:
                    bad = row
                continue
        seen.add(tuple(map(int.__mod__, row, orders)))
    if bad is not None:
        raise SpecFormatError(
            f"coordinate row {bad} has {len(bad)} entries, expected {len(orders)}"
        )
    return _checked_graph(group, _closed_set(group, seen))


def build_family_by_rows(data: dict) -> BuiltFamily:
    """build_from_spec for a PLATEAUED_C or CUBLIKE_D document, with S0 and
    S1 read one coordinate at a time (_json_int per entry) and each row
    then checked by require_element, in the order of faults that
    build_from_spec reports.  The checked rows go to the builder."""
    variant = _json_str(_json_object(data, "family document", ("variant",))["variant"], "variant")

    def int_rows(key: str) -> list[list[int]]:
        return [_json_int_list(row, key) for row in _json_list(doc[key], key)]

    def optional_int(key: str) -> Optional[int]:
        return None if doc.get(key) is None else _json_int(doc[key], key)

    if variant == "PLATEAUED_C":
        doc = _json_object(data, "PLATEAUED_C document", ("H", "S1"))
        h_orders, s1, p = _json_int_list(doc["H"], "H"), int_rows("S1"), optional_int("p")
        if not h_orders:
            raise HypothesisViolationError("the factor group H must be nontrivial")
        H = make_group(h_orders)
        rows = []
        for coords in s1:
            g = H.require_element(tuple(coords))
            if g == H.zero:
                raise ZeroInSetError("S1 must not contain the zero element of H")
            rows.append(g)
        return fr.build_plateaued_family(h_orders, rows, p)
    if variant != "CUBLIKE_D":
        raise ValueError(f"no per-row reader for {variant!r}")
    doc = _json_object(data, "CUBLIKE_D document", ("S0", "S1"))
    s0, s1, n_bits = int_rows("S0"), int_rows("S1"), optional_int("n")
    if n_bits is None:
        if not (s0 or s1):
            raise SpecFormatError("cannot infer the bit width from two empty slice sets")
        n_bits = len((s0 or s1)[0])
    if n_bits < 1:
        raise ValueError(f"bit width must be at least 1, got {n_bits}")
    base = make_group([2] * n_bits)
    rows0 = [base.require_element(tuple(r)) for r in s0]
    rows1 = [base.require_element(tuple(r)) for r in s1]
    return fr.build_cublike_family(rows0, rows1, n_bits)
