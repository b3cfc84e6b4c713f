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


def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """Dense table X[i, j] = chi_{g_i}(g_j) in element-rank order.

    The exponent table is the Kronecker sum of one m x m block per cyclic
    factor, block[c, c'] = (exponent / m) * (c c' mod m), reduced mod the
    exponent; each entry then reads its root of unity from one table."""
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
    """Real eigenvalues lambda_z = sum_{s in S} chi_z(s), in rank order."""
    G = graph.group
    if table is None:
        table = character_table(G)
    rows = [table[G.rank(s), :] for s in graph.connection]
    lam = np.sum(rows, axis=0) if rows else np.zeros(G.n, dtype=complex)
    if not np.max(np.abs(lam.imag)) < 1e-9:
        raise ArithmeticError("eigenvalues are not real; the connection set is not symmetric")
    return lam.real


def difference_rank_table(group: FiniteAbelianGroup) -> np.ndarray:
    """D[i, j] = rank(g_i - g_j), so any function of differences can be
    broadcast from its value on row zero.  Built factor by factor: the
    ranks are mixed-radix, so each factor appends its own digit
    (c - c') mod m to both indices."""
    D = np.zeros((1, 1), dtype=np.int64)
    for m in group.orders:
        c = np.arange(m, dtype=np.int64)
        digit = (c[:, None] - c[None, :]) % m
        k = D.shape[0]
        D = (D[:, None, :, None] * m + digit[None, :, None, :]).reshape(k * m, k * m)
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
    table = character_table(G)
    lam = eigenvalue_array(graph, table)
    phases = np.exp(1j * t * lam)
    row0 = phases @ table.conj() / G.n
    entries = row0[difference_rank_table(G)]
    return TransferMatrix(G.n, t, entries)


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


def verify_fr(
    graph: CayleyGraph, witness: FRWitness, tol: float = 1e-9
) -> VerificationReport:
    """Check H(t) = alpha*I + beta*Q entrywise at the witness time, where Q
    is the translation permutation by the witness element.

    Also checks structurally (in exact integers, on the rank permutation
    that Q represents) that Q is a symmetric fixed-point-free involution,
    and numerically that H(t) is unitary.
    The order cap is checked before any n x n array is built."""
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
    # |H - (alpha*I + beta*Q)| entrywise without building the target: |H|
    # off the support of I + Q, and on it the same sums the dense target
    # holds (alpha*I[i, j] + beta*Q[i, j], with both 1 where image[i] = i).
    alpha, beta, entries = witness.alpha, witness.beta, H.entries
    dev = np.abs(entries)
    dev[ranks, ranks] = np.abs(entries[ranks, ranks] - (alpha * 1.0 + beta * fixed))
    dev[ranks, image] = np.abs(entries[ranks, image] - (alpha * fixed + beta * 1))
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
