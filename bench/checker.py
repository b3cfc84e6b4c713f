"""Output checker that shares no code with ``frcayley``.

The program decides fractional revival exactly, with cyclotomic integers.
This module recomputes every answer another way:

* eigenvalues are the n-dimensional FFT of the connection-set indicator,
  reshaped to the group's factor orders;
* integrality is read off those floats and cross-checked against the
  Bridges-Mena criterion (the set is a union of unit orbits), tested here
  by its own loop;
* the walk column H(t) e_0 is the inverse FFT of exp(i t lambda), from which
  a certificate's kind, time, amplitudes, phase exponents and valid_k are
  recomputed and compared;
* for constructed families, the dense matrix exponential of i t A, with A
  built from the emitted graph, is compared as well.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

TOL = 1e-8
# valid_k is read from the walk columns at every k when modulus * n is at
# most this many FFT points; above it, from the checker's own integer
# eigenvalues.
VALID_K_BUDGET = 1_000_000

CERT_KEYS = {"a", "kind", "k", "modulus", "rho0", "rho1", "time", "alpha", "beta", "valid_k"}


def eigenvalues(orders, connection) -> np.ndarray:
    """lambda_z = sum_{s in S} chi_z(s), as floats shaped like the group."""
    indicator = np.zeros(tuple(orders))
    for s in connection:
        indicator[tuple(s)] = 1.0
    lam = np.fft.fftn(indicator)
    if np.max(np.abs(lam.imag), initial=0.0) > TOL:
        raise ValueError("the connection set is not inverse-closed")
    return lam.real


def integer_eigenvalues(lam: np.ndarray) -> Optional[np.ndarray]:
    """The eigenvalues as exact integers, or None if any is irrational."""
    rounded = np.rint(lam)
    if np.max(np.abs(lam - rounded), initial=0.0) > 1e-6:
        return None
    return rounded.astype(np.int64)


def unit_closed(orders, connection) -> bool:
    """Bridges-Mena: S is closed under multiplication by every unit of the
    exponent iff the Cayley graph is integral."""
    e = math.lcm(*orders)
    members = {tuple(s) for s in connection}
    for u in range(2, e):
        if math.gcd(u, e) != 1:
            continue
        for s in members:
            if tuple((u * c) % m for c, m in zip(s, orders)) not in members:
                return False
    return True


def involutions(orders) -> list[tuple[int, ...]]:
    cands = [(0, m // 2) if m % 2 == 0 else (0,) for m in orders]
    return [g for g in itertools.product(*cands) if any(g)]


def sign_mask(orders, a) -> np.ndarray:
    """True where chi_a = -1: for an involution a, chi_a(g) is -1 to the sum
    of g's coordinates on the factors where a is nonzero."""
    grids = np.indices(tuple(orders))
    parity = sum(grids[i] for i, c in enumerate(a) if c)
    return parity % 2 == 1


def canonical_modulus(orders, lam_int: np.ndarray, a) -> int:
    """The phase modulus N of the certificate for a: the walk is confined to
    {0, a} exactly at the times 2*pi*k/m, m = gcd of the eigenvalue gaps on
    each half (N = m); when every time confines (m = 0), N = 4|delta| puts
    the phase gap at pi/2.  Returns 0 when no certificate exists (m = 0 and
    delta = 0)."""
    minus = sign_mask(orders, a)
    d = int(lam_int.flat[0])
    lam_ref = int(lam_int[minus].flat[0])
    m0 = int(np.gcd.reduce(np.abs(d - lam_int[~minus])))
    m1 = int(np.gcd.reduce(np.abs(lam_ref - lam_int[minus])))
    m = math.gcd(m0, m1)
    return m if m else 4 * abs(d - lam_ref)


class Walk:
    """Walk columns H(t) e_0 of one graph, cached by the time 2*pi*k/N."""

    def __init__(self, orders, lam: np.ndarray):
        self.orders = tuple(orders)
        self.lam = lam
        self._cache: dict[tuple[int, int], np.ndarray] = {}
        self._stacks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def column(self, k: int, modulus: int) -> np.ndarray:
        g = math.gcd(k, modulus)
        key = (k // g, modulus // g)
        if key not in self._cache:
            t = 2 * math.pi * key[0] / key[1]
            self._cache[key] = np.fft.ifftn(np.exp(1j * t * self.lam))
        return self._cache[key]

    def fr_times(self, modulus: int, a) -> list[int]:
        """Every k in 1..modulus at which the column is alpha e_0 + beta e_a
        with alpha * beta != 0."""
        if modulus not in self._stacks:
            t = 2 * math.pi * np.arange(1, modulus + 1) / modulus
            phases = np.exp(1j * t.reshape((-1,) + (1,) * self.lam.ndim) * self.lam)
            cols = np.fft.ifftn(phases, axes=tuple(range(1, self.lam.ndim + 1)))
            mags = np.abs(cols.reshape(modulus, -1))
            top = np.argsort(-mags, axis=1)[:, :3]
            self._stacks[modulus] = (mags, top, np.take_along_axis(mags, top, axis=1))
        mags, top, top_mags = self._stacks[modulus]
        rank_a = int(np.ravel_multi_index(tuple(a), self.orders))
        # At most two of the three largest entries sit on {0, a}, so the
        # largest of the others is the largest amplitude off {0, a}.
        rest = np.where((top != 0) & (top != rank_a), top_mags, 0.0).max(axis=1)
        ok = (rest <= TOL) & (mags[:, 0] > TOL) & (mags[:, rank_a] > TOL)
        return [int(j) + 1 for j in np.flatnonzero(ok)]


def amplitudes(column: np.ndarray, a) -> tuple[complex, complex, float]:
    """(alpha, beta, largest amplitude off {0, a}) of one walk column."""
    zero = (0,) * column.ndim
    alpha, beta = complex(column[zero]), complex(column[tuple(a)])
    rest = np.abs(column).copy()
    rest[zero] = rest[tuple(a)] = 0.0
    return alpha, beta, float(rest.max())


def kind_of(alpha: complex, beta: complex) -> str:
    if abs(beta) <= TOL:
        return "PERIODIC"
    if abs(alpha) <= TOL:
        return "PST"
    return "FR"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_certificate(
    orders, walk: Walk, lam_int: np.ndarray, cert, expected_modulus: int, label: str
) -> list[str]:
    """Every field of one certificate against the walk and the spectrum."""
    if not isinstance(cert, dict) or not CERT_KEYS <= set(cert):
        return [f"{label}: not a certificate: {cert!r}"]
    a, k, big_n = tuple(cert["a"]), cert["k"], cert["modulus"]
    rho0, rho1 = cert["rho0"], cert["rho1"]
    if not all(_is_int(x) for x in (k, big_n, rho0, rho1, *a)):
        return [f"{label}: non-integer exact field"]
    problems = []
    if a not in involutions(orders):
        problems.append(f"{label}: a={list(a)} is not an involution")
        return problems
    if big_n != expected_modulus:
        problems.append(f"{label}: modulus {big_n}, expected {expected_modulus}")
    if k != 1:
        problems.append(f"{label}: k={k}, the canonical certificate has k=1")
    if big_n < 1 or not (0 <= rho0 < big_n and 0 <= rho1 < big_n):
        return problems + [f"{label}: phase exponents out of range"]
    t = 2 * math.pi * k / big_n
    if not isinstance(cert["time"], float) or abs(cert["time"] - t) > 1e-12 * max(1.0, t):
        problems.append(f"{label}: time {cert['time']!r}, expected {t!r}")
    alpha, beta, rest = amplitudes(walk.column(k, big_n), a)
    if rest > TOL:
        problems.append(f"{label}: walk leaks {rest:.3g} outside {{0, a}} at t={t}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        got = cert[name]
        if not isinstance(got, dict) or abs(complex(got["re"], got["im"]) - value) > TOL:
            problems.append(f"{label}: {name} {got!r}, walk gives {value}")
    w0 = np.exp(2j * np.pi * rho0 / big_n)
    w1 = np.exp(2j * np.pi * rho1 / big_n)
    if abs((w0 + w1) / 2 - alpha) > TOL or abs((w0 - w1) / 2 - beta) > TOL:
        problems.append(f"{label}: rho0={rho0}, rho1={rho1} disagree with the walk")
    if cert["kind"] != kind_of(alpha, beta):
        problems.append(f"{label}: kind {cert['kind']!r}, walk gives {kind_of(alpha, beta)}")
    if cert["valid_k"] != valid_k(orders, walk, lam_int, a, big_n):
        problems.append(f"{label}: valid_k {cert['valid_k']!r} is wrong")
    return problems


def valid_k(orders, walk: Walk, lam_int: np.ndarray, a, big_n: int) -> list[int]:
    """Every k in 1..N whose time 2*pi*k/N gives FR proper.

    Read from the walk columns when affordable; otherwise from the phase
    gap: at k the two halves carry phases k*d and k*lambda_ref (mod N), and
    FR needs their difference outside {0, N/2}."""
    if big_n * math.prod(orders) <= VALID_K_BUDGET:
        return walk.fr_times(big_n, a)
    delta = int(lam_int.flat[0]) - int(lam_int[sign_mask(orders, a)].flat[0])
    return [
        j for j in range(1, big_n + 1)
        if (j * delta) % big_n != 0 and 2 * ((j * delta) % big_n) != big_n
    ]


class Graph:
    """The checker's view of one input graph: spectrum and integrality."""

    def __init__(self, orders, connection):
        self.orders = tuple(orders)
        self.connection = sorted(tuple(s) for s in connection)
        self.lam = eigenvalues(self.orders, self.connection)
        self.lam_int = integer_eigenvalues(self.lam)
        self.walk = Walk(self.orders, self.lam)
        self.problems = []
        if (self.lam_int is not None) != unit_closed(self.orders, self.connection):
            self.problems.append(
                "checker: FFT integrality disagrees with Bridges-Mena unit closure"
            )

    @property
    def n(self) -> int:
        return math.prod(self.orders)

    def spec_document(self) -> dict:
        return {"group": list(self.orders), "set": [list(s) for s in self.connection]}

    def expected_involutions(self) -> list[tuple[int, ...]]:
        """Involutions the search must certify: none for odd order or a
        non-integral spectrum, else every one with a certificate."""
        if self.lam_int is None:
            return []
        return [
            a for a in involutions(self.orders)
            if canonical_modulus(self.orders, self.lam_int, a)
        ]

    def check(self, cert, label: str, expected_modulus: Optional[int] = None) -> list[str]:
        if self.lam_int is None:
            return [f"{label}: certificate for a non-integral graph"]
        if expected_modulus is None:
            a = tuple(cert.get("a", ())) if isinstance(cert, dict) else ()
            if a not in involutions(self.orders):
                return [f"{label}: a={list(a)} is not an involution"]
            expected_modulus = canonical_modulus(self.orders, self.lam_int, a)
        return check_certificate(
            self.orders, self.walk, self.lam_int, cert, expected_modulus, label
        )

    def predicted_fr(self, a, predicted: dict, label: str) -> list[str]:
        """The family theorem's claim: FR between 0 and a at 2*pi/N."""
        alpha, beta, rest = amplitudes(self.walk.column(1, predicted["modulus"]), a)
        if rest > TOL or kind_of(alpha, beta) != "FR":
            return [f"{label}: no FR at the predicted time 2*pi/{predicted['modulus']}"]
        return []


def check_search(graph: Graph, doc, code: int, a=None, predicted=None) -> list[str]:
    """`fr search` output: one certificate per certifiable involution."""
    problems = list(graph.problems)
    if not isinstance(doc, dict) or set(doc) != {"group", "set", "fr_found", "certificates"}:
        return problems + [f"search: unexpected document keys {sorted(doc)!r}"]
    if {"group": doc["group"], "set": doc["set"]} != graph.spec_document():
        problems.append("search: echoed group/set differ from the input")
    certs = doc["certificates"]
    got = [tuple(c.get("a", ())) for c in certs]
    want = graph.expected_involutions()
    if got != want:
        problems.append(f"search: certificates for {got}, expected {want}")
    for cert in certs:
        problems += graph.check(cert, f"search a={cert.get('a')}")
    found = any(c.get("kind") == "FR" for c in certs)
    if doc["fr_found"] is not found:
        problems.append(f"search: fr_found={doc['fr_found']!r}, certificates say {found}")
    if code != (0 if found else 1):
        problems.append(f"search: exit code {code} for fr_found={found}")
    if predicted is not None:
        problems += graph.predicted_fr(a, predicted, "search")
        mine = [c for c in certs if tuple(c.get("a", ())) == tuple(a)]
        if not mine or mine[0].get("kind") != "FR":
            problems.append(f"search: family involution {list(a)} not certified FR")
        else:
            scale, rem = divmod(mine[0]["modulus"], predicted["modulus"])
            if rem or scale not in mine[0]["valid_k"]:
                problems.append("search: predicted FR time missing from valid_k")
    return problems


def check_check(graph: Graph, doc, code: int, a) -> list[str]:
    """`fr check --a` output: ABSENT exactly when the spectrum is not integral."""
    problems = list(graph.problems)
    if graph.lam_int is None:
        if doc != {"a": list(a), "kind": "ABSENT"}:
            problems.append(f"check: expected ABSENT for a non-integral graph, got {doc!r}")
        if code != 1:
            problems.append(f"check: exit code {code} for ABSENT")
        return problems
    problems += graph.check(doc, "check")
    if isinstance(doc, dict) and code != (0 if doc.get("kind") == "FR" else 1):
        problems.append(f"check: exit code {code} for kind {doc.get('kind')!r}")
    return problems


def check_construct(
    graph: Graph, doc, code: int, report, report_code: int, a, predicted, variant: str
) -> list[str]:
    """`fr construct --verify` output and the `fr verify` report on it."""
    problems = list(graph.problems)
    keys = {"graph", "prediction", "verification", "engine_agrees"}
    if not isinstance(doc, dict) or set(doc) != keys:
        return problems + [f"construct: unexpected document keys {sorted(doc)!r}"]
    if doc["graph"] != graph.spec_document():
        problems.append("construct: emitted graph differs from the family definition")
    pred = doc["prediction"]
    if set(pred) != CERT_KEYS | {"variant", "label"} or pred["variant"] != variant:
        return problems + [f"construct: malformed prediction {pred!r}"]
    if tuple(pred["a"]) != tuple(a) or pred["kind"] != "FR":
        problems.append(f"construct: prediction is {pred['kind']} at {pred['a']}")
    if (pred["rho0"], pred["rho1"]) != (predicted["rho0"], predicted["rho1"]):
        problems.append("construct: predicted phases differ from the family theorem")
    problems += graph.check(pred, "construct", expected_modulus=predicted["modulus"])
    problems += graph.predicted_fr(a, predicted, "construct")
    problems += dense_expm_problems(graph, pred, a)
    verification = doc["verification"]
    if not (
        isinstance(verification, dict)
        and verification.get("pass") is True
        and verification.get("permutation_ok") is True
        and verification.get("max_deviation", 1.0) <= verification.get("tolerance", 0.0)
    ):
        problems.append(f"construct: oracle report {verification!r}")
    if doc["engine_agrees"] is not True:
        problems.append("construct: engine disagrees with the prediction")
    if code != 0:
        problems.append(f"construct: exit code {code}")
    if report != verification or report_code != 0:
        problems.append(f"verify: report {report!r} (exit {report_code}) differs from construct's")
    return problems


def dense_expm_problems(graph: Graph, cert, a) -> list[str]:
    """H(t) e_0 from scipy's dense expm of i t A against the FFT walk."""
    from scipy.linalg import expm  # noqa: PLC0415 - only construct-verify needs it

    n, orders = graph.n, graph.orders
    strides = np.array([math.prod(orders[i + 1 :]) for i in range(len(orders))])
    coords = np.array(list(itertools.product(*(range(m) for m in orders))))
    adjacency = np.zeros((n, n))
    for s in graph.connection:
        adjacency[np.arange(n), ((coords + np.array(s)) % np.array(orders)) @ strides] = 1.0
    column = expm(1j * (2 * math.pi * cert["k"] / cert["modulus"]) * adjacency)[:, 0]
    fft_column = graph.walk.column(cert["k"], cert["modulus"]).ravel()
    problems = []
    if np.max(np.abs(column - fft_column)) > TOL:
        problems.append("construct: dense expm and FFT walk columns differ")
    rank_a = int(np.array(a) @ strides)
    alpha = complex(cert["alpha"]["re"], cert["alpha"]["im"])
    beta = complex(cert["beta"]["re"], cert["beta"]["im"])
    if abs(column[0] - alpha) > TOL or abs(column[rank_a] - beta) > TOL:
        problems.append("construct: certificate amplitudes disagree with dense expm")
    return problems
