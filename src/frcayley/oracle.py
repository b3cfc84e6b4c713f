"""Independent floating-point checks for the exact engine.

Everything here recomputes from first principles with numpy — character
tables, walk matrices and a dense time grid scan — deliberately avoiding the
exact cyclotomic code paths so the two sides can cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .cayley import CayleyGraph
from .engine import FRWitness
from .errors import OracleDimensionError
from .groups import Element, FiniteAbelianGroup

_MAX_DENSE_ORDER = 256


def _require_dense(group: FiniteAbelianGroup) -> None:
    if group.n > _MAX_DENSE_ORDER:
        raise OracleDimensionError(
            f"dense oracle limited to order {_MAX_DENSE_ORDER}, got {group.n}"
        )


def _exponent_table(group: FiniteAbelianGroup) -> tuple[np.ndarray, np.ndarray]:
    """(expo, roots) with X = roots[expo].

    expo is the Kronecker sum of one m x m block per cyclic factor,
    block[c, c'] = (exponent / m) * (c c' mod m), built from the last factor
    to the first so that each broadcast runs along the table built so far.
    Its entries are left unreduced: each block entry is below the exponent
    e, so with r factors every sum is below r * e, and roots repeats the e
    roots of unity exp(2 pi i k / e) r times (entry k is the root at k mod e,
    the same float)."""
    e = group.exponent
    expo = np.zeros((1, 1), dtype=np.int64)
    for m in reversed(group.orders):
        c = np.arange(m, dtype=np.int64)
        block = (e // m) * (np.outer(c, c) % m)
        k = expo.shape[0]
        expo = (block[:, None, :, None] + expo[None, :, None, :]).reshape(m * k, m * k)
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    return expo, np.tile(roots, len(group.orders))


def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """Dense table X[i, j] = chi_{g_i}(g_j) in element-rank order."""
    expo, roots = _exponent_table(group)
    return roots[expo]


def _connection_ranks(graph: CayleyGraph) -> np.ndarray:
    """rank(s) for s in S, in S order: one product with the mixed-radix
    strides (the last factor is the lowest digit)."""
    orders = graph.group.orders
    strides = np.cumprod((1,) + orders[:0:-1], dtype=np.int64)[::-1]
    return np.array(graph.connection.elements, dtype=np.int64).reshape(-1, len(orders)) @ strides


def _real_sum(rows: np.ndarray) -> np.ndarray:
    """The eigenvalues sum_{s in S} chi_z(s) from the |S| rows of X, added
    one row at a time in S order."""
    lam = rows.sum(axis=0)
    if not np.max(np.abs(lam.imag)) < 1e-9:
        raise ArithmeticError("eigenvalues are not real; the connection set is not symmetric")
    return lam.real


def eigenvalue_array(graph: CayleyGraph, table: Optional[np.ndarray] = None) -> np.ndarray:
    """Real eigenvalues lambda_z = sum_{s in S} chi_z(s), in rank order.
    Only the |S| rows of X that S names are read (or gathered)."""
    ranks = _connection_ranks(graph)
    if table is not None:
        return _real_sum(table[ranks])
    expo, roots = _exponent_table(graph.group)
    return _real_sum(roots[expo[ranks]])


def difference_rank_table(group: FiniteAbelianGroup) -> np.ndarray:
    """D[i, j] = rank(g_i - g_j), so any function of differences can be
    broadcast from its value on row zero.  Built from the last factor to
    the first: the ranks are mixed-radix, so each factor puts its digit
    (c - c') mod m in front of both indices, above the k ranks so far."""
    D = np.zeros((1, 1), dtype=np.int64)
    for m in reversed(group.orders):
        c = np.arange(m, dtype=np.int64)
        digit = (c[:, None] - c[None, :]) % m
        k = D.shape[0]
        D = (digit[:, None, :, None] * k + D[None, :, None, :]).reshape(m * k, m * k)
    return D


@dataclass(frozen=True)
class TransferMatrix:
    """Dense walk matrix H(t) = exp(i t A)."""

    n: int
    t: float
    entries: np.ndarray

    def unitarity_defect(self) -> float:
        """max |H^H H - I| over every entry.  H[i, j] depends only on
        g_i - g_j, so (H^H H)[i, j] does too, and its row 0 holds every
        entry of the Gram matrix: one mat-vec over all of H."""
        row = self.entries[:, 0].conj() @ self.entries
        row[0] -= 1.0
        return float(np.max(np.abs(row)))


def transfer_matrix(graph: CayleyGraph, t: float) -> TransferMatrix:
    """H(t) via the character eigenbasis: the walk is a function of vertex
    differences, so one row determines the whole matrix."""
    G = graph.group
    _require_dense(G)
    entries = _walk_row(graph, t)[difference_rank_table(G)]
    return TransferMatrix(G.n, t, entries)


def _walk_row(graph: CayleyGraph, t: float) -> np.ndarray:
    """Row 0 of H(t), sum_z exp(i t lambda_z) conj(X[z, :]) / n.  conj(X)
    is gathered straight from the conjugate roots (conj only flips a sign,
    so it is the same float), and the tables are gone when it returns."""
    expo, roots = _exponent_table(graph.group)
    lam = _real_sum(roots[expo[_connection_ranks(graph)]])
    return np.exp(1j * t * lam) @ roots.conj()[expo] / graph.group.n


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a witness against the dense walk matrix."""

    passed: bool
    max_deviation: float
    tolerance: float
    unitarity_defect: float
    permutation_ok: bool

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "unitarity_defect": self.unitarity_defect,
            "permutation_ok": self.permutation_ok,
        }


def require_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not positive and finite: an infinite or
    NaN one would pass any deviation and could not be written as JSON, and
    no deviation is below zero."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def verify_fr(
    graph: CayleyGraph, witness: FRWitness, tol: float = 1e-9
) -> VerificationReport:
    """Check H(t) = alpha*I + beta*Q entrywise at the witness time, where Q
    is the translation permutation by the witness element.

    Also checks structurally (in exact integers, on the rank permutation
    that Q represents) that Q is a symmetric fixed-point-free involution,
    and numerically that H(t) is unitary.
    The tolerance and the order cap are checked before any n x n array is
    built."""
    require_tolerance(tol)
    G = graph.group
    _require_dense(G)
    a = G.require_element(witness.a)
    n = G.n
    # image[i] = rank(g_i + a), one mixed-radix digit per factor
    image = np.zeros(1, dtype=np.int64)
    for m, c in zip(G.orders, a):
        image = (image[:, None] * m + (np.arange(m, dtype=np.int64) + c) % m).reshape(-1)
    ranks = np.arange(n)
    # image is an involution exactly when the permutation matrix Q is
    # symmetric with Q^2 = I, and trace(Q) = 0 says it has no fixed point.
    fixed = image == ranks
    permutation_ok = np.array_equal(image[image], ranks) and not np.any(fixed)
    H = transfer_matrix(graph, witness.time)
    # |H - (alpha*I + beta*Q)| without building the target.  H is row[D]
    # with D[i, j] = rank(g_i - g_j), and the target is alpha where
    # g_j - g_i = 0 and beta where g_j - g_i = a, so every row of the
    # difference holds the values of its row 0, float for float: |H[0]| off
    # columns 0 and image[0], and on them the sums the dense target holds
    # (alpha*I[0, j] + beta*Q[0, j], with both 1 where image[0] = 0).
    alpha, beta, row = witness.alpha, witness.beta, H.entries[0]
    at = image[:1]
    dev = np.abs(row)
    dev[:1] = np.abs(row[:1] - (alpha * 1.0 + beta * fixed[:1]))
    dev[at] = np.abs(row[at] - (alpha * fixed[:1] + beta * 1))
    max_dev = float(np.max(dev))
    defect = H.unitarity_defect()
    passed = permutation_ok and max_dev <= tol and defect <= tol
    return VerificationReport(passed, max_dev, tol, defect, permutation_ok)


def fr_grid_scan(
    graph: CayleyGraph,
    targets: Optional[Iterable[Element]] = None,
    concentration_tol: float = 1e-6,
    amplitude_tol: float = 1e-3,
) -> dict[Element, bool]:
    """Brute-force FR detector on the time grid t = 2*pi*j/(4*n^2) for
    j = 1..4*n^3.

    An involution a is flagged when some grid row of H(t) puts all its mass
    on columns 0 and rank(a) (residual below concentration_tol) with both
    amplitudes above amplitude_tol.  The grid contains every admissible
    rational time because the phase modulus divides the group order, and in
    the free two-eigenvalue case the very first grid point already works."""
    G = graph.group
    _require_dense(G)
    if targets is None:
        targets = list(G.involutions())
    else:
        targets = [G.require_element(a) for a in targets]
    result: dict[Element, bool] = {a: False for a in targets}
    if not targets:
        return result
    n = G.n
    table = character_table(G)
    lam = eigenvalue_array(graph, table)
    conj_over_n = table.conj() / n
    target_ranks = {a: G.rank(a) for a in targets}
    total = 4 * n**3
    base = 2.0 * math.pi / (4 * n**2)
    chunk = 4096
    pending = set(targets)
    for start in range(1, total + 1, chunk):
        if not pending:
            break
        js = np.arange(start, min(start + chunk, total + 1), dtype=np.float64)
        phases = np.exp(1j * np.outer(js * base, lam))
        rows = phases @ conj_over_n
        mags = np.abs(rows)
        for a in list(pending):
            r = target_ranks[a]
            others = np.delete(mags, [0, r] if r != 0 else [0], axis=1)
            if others.shape[1] == 0:
                residual = np.zeros(mags.shape[0])
            else:
                residual = others.max(axis=1)
            hit = (
                (residual < concentration_tol)
                & (mags[:, 0] > amplitude_tol)
                & (mags[:, r] > amplitude_tol)
            )
            if bool(hit.any()):
                result[a] = True
                pending.discard(a)
    return result
