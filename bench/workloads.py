"""Seeded inputs for the four benchmark workloads.

Everything here is computed without importing ``frcayley``: the program
under test sees only the JSON files that :func:`write_inputs` leaves on
disk.  The same (workload, seed) pair always yields the same instances, in
the same order, with the same bytes.

Each workload mixes fixed instances (family members whose cost does not
depend on the seed, including the workload's largest instance) with seeded
random ones whose group and set size are fixed per slot, so that the work in
one pass varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from checker import canonical_modulus, eigenvalues, involutions, unit_closed

Element = tuple[int, ...]

@dataclass
class Instance:
    """One unit of work: a CLI invocation (two for construct-verify).

    ``orders``/``connection`` describe the graph the program should see (for
    construct-verify, the graph the builder is expected to emit).  Family
    members carry the involution ``a`` and the phase data the family's
    theorem predicts at t = 2*pi/modulus."""

    name: str
    command: str  # "search", "check" or "construct"
    orders: tuple[int, ...]
    connection: list[Element]
    a: Optional[Element] = None
    predicted: Optional[dict] = None
    family: Optional[dict] = None
    largest: bool = False
    argv: list[list[str]] = field(default_factory=list)


# -- group helpers -------------------------------------------------------


def elements(orders) -> list[Element]:
    return list(itertools.product(*(range(m) for m in orders)))


def units(e: int) -> list[int]:
    return [u for u in range(1, e) if math.gcd(u, e) == 1]


def scale(u: int, g: Element, orders) -> Element:
    return tuple((u * c) % m for c, m in zip(g, orders))


def neg(g: Element, orders) -> Element:
    return tuple((-c) % m for c, m in zip(g, orders))


def generates(orders, gens) -> bool:
    """True iff gens generate the whole group (breadth-first closure on ranks)."""
    n = math.prod(orders)
    strides = [math.prod(orders[i + 1 :]) for i in range(len(orders))]
    coords = np.array(elements(orders), dtype=np.int64)
    orders_arr = np.array(orders, dtype=np.int64)
    shifts = [((coords + np.array(g)) % orders_arr) @ np.array(strides) for g in gens]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        nxt = np.unique(np.concatenate([s[frontier] for s in shifts]))
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return bool(seen.all())


def unit_orbits(orders) -> list[list[Element]]:
    """Orbits of the nonzero elements under multiplication by units of the
    exponent; a connection set is integral iff it is a union of these."""
    e = math.lcm(*orders)
    us = units(e)
    seen: set[Element] = set()
    out = []
    for g in elements(orders)[1:]:
        if g not in seen:
            orbit = sorted({scale(u, g, orders) for u in us})
            seen.update(orbit)
            out.append(orbit)
    return out


def random_unit_closed(rng: random.Random, orders, size: int) -> list[Element]:
    """A connected union of randomly chosen unit orbits with exactly `size`
    elements: orbits are taken in random order while they still fit."""
    orbits = unit_orbits(orders)
    while True:
        rng.shuffle(orbits)
        conn: list[Element] = []
        for orbit in orbits:
            if len(conn) + len(orbit) <= size:
                conn += orbit
        if len(conn) == size and generates(orders, conn):
            return sorted(conn)


def random_symmetric(
    rng: random.Random, orders, pairs: int, integral_ok: bool = False
) -> list[Element]:
    """A connected inverse-closed set made of `pairs` random classes {g, -g}
    that is not a union of unit orbits, so its spectrum is not integral,
    unless integral_ok.  Involutions (g = -g) are drawn only in exponent-2
    groups, where they are all there is; elsewhere |S| = 2 * pairs."""
    n = math.prod(orders)
    while True:
        conn: set[Element] = set()
        while len({frozenset((g, neg(g, orders))) for g in conn}) < pairs:
            g = elements_at(orders, rng.randrange(1, n))
            if g != neg(g, orders) or max(orders) == 2:
                conn.update((g, neg(g, orders)))
        out = sorted(conn)
        if generates(orders, out) and (integral_ok or not unit_closed(orders, out)):
            return out


def elements_at(orders, idx: int) -> Element:
    coords = []
    for m in reversed(orders):
        idx, c = divmod(idx, m)
        coords.append(c)
    return tuple(reversed(coords))


# -- Boolean functions ---------------------------------------------------


def bits(idx: int, n: int) -> Element:
    return tuple((idx >> (n - 1 - s)) & 1 for s in range(n))


def mm_bent_support(rng: Optional[random.Random], m: int, high: bool) -> list[Element]:
    """Support of a Maiorana-McFarland bent function x.pi(y) + g(y) on 2m
    bits (x the first m bits, y the last m).  With rng None, pi is the
    identity and g vanishes (the inner-product function up to a coordinate
    permutation).  The weight is 2^(2m-1) - 2^(m-1), or + 2^(m-1) when
    `high`: it is fixed by g at pi^-1(0).  The support avoids zero."""
    size = 1 << m
    perm = list(range(size))
    g = [0] * size
    if rng is not None:
        rng.shuffle(perm)
        g = [rng.randrange(2) for _ in range(size)]
    g[perm.index(0)] = int(high)
    table = [
        (bin(x & perm[y]).count("1") + g[y]) % 2 for x in range(size) for y in range(size)
    ]
    # A connection set may not hold zero: translate by a zero of f, which
    # keeps f bent and its weight unchanged.
    shift = table.index(0)
    return [bits(i, 2 * m) for i in range(size * size) if table[i ^ shift]]


def _cube_pair(s0: list[Element], s1: list[Element]) -> list[Element]:
    """{0} x S0  union  {1} x S1  union  {a}, a = (1, 0, ..., 0)."""
    width = len((s0 or s1)[0])
    a = (1,) + (0,) * width
    return sorted([(0, *s) for s in s0] + [(1, *s) for s in s1] + [a])


# -- families (closed forms from the paper's constructions) --------------


# F_2^4 minus the plane spanned by 1000 and 0100: 12 elements, every
# nonzero x meets an even number of them with x.s = 1, so the cube-like
# construction on it has phase modulus 8.
CO_PLANE = [bits(i, 4) for i in range(16) if i & 3]


def family_a(p: int, r: int, h: list[int]) -> Instance:
    orders = (2, p**r, *h)
    h_elems = elements(h) if h else [()]
    conn = [(0, u, *x) for u in units(p**r) for x in h_elems]
    a = (1,) + (0,) * (len(orders) - 1)
    big_n = p ** (r - 1) * math.prod(h)
    return Instance(
        f"A p={p} r={r} H={h}",
        "search",
        orders,
        sorted(conn + [a]),
        a=a,
        predicted=_two_phase(big_n),
        family={"variant": "RAMANUJAN_A", "p": p, "r": r, "H": h},
    )


def family_b(prime_powers: list[list[int]]) -> Instance:
    orders = tuple(p**r for p, r in prime_powers)
    conn = [tuple(t) for t in itertools.product(*(units(m) for m in orders))]
    a = (2 ** (prime_powers[0][1] - 1),) + (0,) * (len(orders) - 1)
    big_n = math.prod(p ** (r - 1) for p, r in prime_powers)
    return Instance(
        f"B {prime_powers}",
        "search",
        orders,
        sorted(conn + [a]),
        a=a,
        predicted=_two_phase(big_n),
        family={"variant": "MULTI_PRIME_B", "prime_powers": prime_powers},
    )


def family_c(h: list[int], s1: list[Element]) -> Instance:
    orders = (2, *h)
    a = (1,) + (0,) * len(h)
    conn = sorted([(eps, *s) for eps in (0, 1) for s in s1] + [a])
    return Instance(
        f"C H={h} |S1|={len(s1)}",
        "search",
        orders,
        conn,
        a=a,
        predicted=_two_phase(_plateau_modulus(h, s1)),
        family={"variant": "PLATEAUED_C", "H": h, "S1": [list(s) for s in s1]},
    )


def family_d(label: str, s0: list[Element], s1: list[Element]) -> Instance:
    conn = _cube_pair(s0, s1)
    orders = (2,) * (len(s0[0]) + 1)
    a = (1,) + (0,) * len(s0[0])
    return Instance(
        f"D {label}",
        "search",
        orders,
        conn,
        a=a,
        predicted=_two_phase(_cublike_modulus(orders, conn, a, len(s0), len(s1))),
        family={
            "variant": "CUBLIKE_D",
            "S0": [list(s) for s in s0],
            "S1": [list(s) for s in s1],
        },
    )


def family_e(label: str, supp: list[Element]) -> Instance:
    width = len(supp[0])
    conn = _cube_pair(supp, supp)
    orders = (2,) * (width + 1)
    a = (1,) + (0,) * width
    k = width // 2
    big_n = 2 ** (k + 1)
    table = 0
    for s in supp:
        table |= 1 << int("".join(map(str, s)), 2)
    hex_table = f"{table:0{max(1, (1 << width) // 4)}x}"
    return Instance(
        f"E {label}",
        "search",
        orders,
        conn,
        a=a,
        predicted={"modulus": big_n, "rho0": (1 + 2**k) % big_n, "rho1": big_n - 1},
        family={"variant": "BENT_E", "f": hex_table},
    )


def _two_phase(big_n: int) -> dict:
    """Phases (e^{it}, e^{-it}) at t = 2*pi/N, the prediction of A-D."""
    return {"modulus": big_n, "rho0": 1 % big_n, "rho1": (big_n - 1) % big_n}


def _plateau_modulus(h: list[int], s1: list[Element]) -> int:
    """N = 2 p^r0 for the first prime p | |S1| whose indicator spectrum is
    constant mod p^r with r0 = min(r, v_p(|S1|)) >= 1."""
    lam = np.rint(eigenvalues(h, s1).ravel()).astype(np.int64)
    spread = math.gcd(*(int(v) for v in lam[1:] - lam[0]))
    d1 = len(s1)
    for p in range(2, d1 + 1):
        if d1 % p or any(p % q == 0 for q in range(2, p)):
            continue
        r0 = min(_valuation(spread, p), _valuation(d1, p))
        if r0 >= 1:
            return 2 * p**r0
    raise ValueError(f"no plateau prime for H={h}")


def _cublike_modulus(orders, conn, a, d0: int, d1: int) -> int:
    """N = 2^kappa, kappa = min(v2(M), v2(d0 + d1), v2(d0 - d1)), with M the
    phase modulus of the involution a computed from the spectrum."""
    lam = np.rint(eigenvalues(orders, conn)).astype(np.int64)
    m = canonical_modulus(orders, lam, a)
    vals = [_valuation(x, 2) for x in (m, d0 + d1, d0 - d1) if x]
    return 2 ** min(vals)


def _valuation(x: int, p: int) -> int:
    x, r = abs(x), 0
    while x and x % p == 0:
        x //= p
        r += 1
    return r


# -- the workloads -------------------------------------------------------


def ring_search(rng: random.Random) -> list[Instance]:
    """Integral graphs on groups of exponent > 2, through `fr search`."""
    out = [
        family_a(3, 2, []),
        family_a(5, 1, [3]),
        family_a(5, 2, []),
        family_a(3, 3, []),
        family_a(3, 2, [5]),
        family_b([[2, 2], [3, 2]]),
        family_b([[2, 1], [5, 2]]),
        family_b([[2, 3], [3, 2]]),
        family_b([[2, 2], [5, 2]]),
        family_c([9], [(u,) for u in units(9)]),
        family_c([27], [(u,) for u in units(27)]),
        family_c([3, 3], [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2)]),
    ]
    for orders, size in [
        ((4, 6), 7),
        ((2, 2, 9), 10),
        ((6, 10), 14),
        ((4, 12), 11),
        ((8, 9), 34),
        ((2, 4, 15), 28),
        ((12, 20), 38),
        ((6, 42), 36),
    ]:
        conn = random_unit_closed(rng, orders, size)
        out.append(Instance(f"unit-closed {list(orders)}", "search", orders, conn))
    largest = family_a(7, 2, [5])
    largest.largest = True
    out.append(largest)
    return out


def ring_reject(rng: random.Random) -> list[Instance]:
    """Non-integral graphs through `fr check --a`, and odd-order graphs
    (integral and not) through `fr search`: every verdict is negative."""
    out = []
    for orders, pairs in [
        ((1000,), 3),
        ((2, 500), 3),
        ((4, 250), 3),
        ((6, 300), 4),
        ((2, 2, 250), 4),
        ((1536,), 3),
        ((2, 1000), 3),
    ]:
        conn = random_symmetric(rng, orders, pairs)
        a = rng.choice(involutions(orders))
        out.append(
            Instance(f"non-integral {list(orders)}", "check", orders, conn, a=a)
        )
    for orders, size in [((5, 25), 44), ((9, 27), 48), ((3, 3, 3, 3, 3), 12), ((7, 49), 96)]:
        conn = random_unit_closed(rng, orders, size)
        out.append(Instance(f"odd unit-closed {list(orders)}", "search", orders, conn))
    for orders, pairs in [((5, 5, 5), 4), ((3, 81), 3), ((15, 45), 4), ((13, 169), 3)]:
        conn = random_symmetric(rng, orders, pairs)
        out.append(Instance(f"odd non-integral {list(orders)}", "search", orders, conn))
    largest = Instance(
        "non-integral [2000]", "check", (2000,), random_symmetric(rng, (2000,), 3), a=(1000,)
    )
    largest.largest = True
    out.append(largest)
    return out


def cube_search(rng: random.Random) -> list[Instance]:
    """Exponent-2 groups through `fr search`: every nonzero element is an
    involution, so each instance yields n - 1 certificates."""
    bent6 = mm_bent_support(rng, 3, high=False)
    out = [
        family_e("inner-product n=4", mm_bent_support(None, 2, high=False)),
        family_e("random bent n=6", bent6),
        family_d("co-plane n=4", CO_PLANE, CO_PLANE),
        family_d("random bent n=6", bent6, bent6),
    ]
    for width, size in [(8, 24), (9, 32)]:
        conn = random_symmetric(rng, (2,) * width, size, integral_ok=True)
        out.append(Instance(f"random (Z2)^{width}", "search", (2,) * width, conn))
    out.append(family_e("random bent n=8", mm_bent_support(rng, 4, high=True)))
    largest = Instance(
        "random (Z2)^10",
        "search",
        (2,) * 10,
        random_symmetric(rng, (2,) * 10, 40, integral_ok=True),
    )
    largest.largest = True
    out.append(largest)
    return out


def construct_verify(rng: random.Random) -> list[Instance]:
    """Family specs A-E of order <= 256 through `fr construct --verify`,
    then `fr verify` on the emitted certificate."""
    bent6 = mm_bent_support(rng, 3, high=False)
    lifted = sorted([(0, *s) for s in bent6] + [(1, *s) for s in bent6])
    members = [
        family_a(3, 2, []),
        family_a(5, 1, [3]),
        family_a(3, 2, [5]),
        family_a(5, 2, [2]),
        family_b([[2, 2], [3, 2]]),
        family_b([[2, 3], [3, 2]]),
        family_b([[2, 2], [5, 2]]),
        family_c([9], [(u,) for u in units(9)]),
        family_c([27], [(u,) for u in units(27)]),
        family_c([3, 3], [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2)]),
        family_d("co-plane n=4", CO_PLANE, CO_PLANE),
        family_d("random bent n=6", bent6, bent6),
        family_e("random bent n=4", mm_bent_support(rng, 2, high=False)),
        family_e("random bent n=6", bent6),
        family_e("random bent n=6 high", mm_bent_support(rng, 3, high=True)),
        family_b([[2, 3], [3, 3]]),
    ]
    largest = family_d("lifted random bent n=7", lifted, lifted)
    largest.largest = True
    members.append(largest)
    for inst in members:
        inst.command = "construct"
    return members


_BUILDERS = {
    "ring-search": ring_search,
    "ring-reject": ring_reject,
    "cube-search": cube_search,
    "construct-verify": construct_verify,
}
WORKLOADS = tuple(_BUILDERS)


def make_instances(workload: str, seed: int) -> list[Instance]:
    """The seeded instance list of one workload, largest instance last."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def write_inputs(instances: list[Instance], directory: Path) -> None:
    """Write each instance's input file and fill in its CLI argument lists."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, inst in enumerate(instances):
        stem = directory / f"{i:02d}"
        if inst.command == "construct":
            src = stem.with_suffix(".family.json")
            src.write_text(json.dumps(inst.family), encoding="utf-8")
            inst.argv = [
                ["construct", str(src), "--verify", "-o", f"{stem}.out.json"],
                ["verify", f"{stem}.graph.json", f"{stem}.cert.json", "-o", f"{stem}.report.json"],
            ]
            continue
        src = stem.with_suffix(".graph.json")
        doc = {"group": list(inst.orders), "set": [list(g) for g in inst.connection]}
        src.write_text(json.dumps(doc), encoding="utf-8")
        argv = [inst.command, str(src), "-o", f"{stem}.out.json"]
        if inst.command == "check":
            argv += ["--a", ",".join(map(str, inst.a))]
        inst.argv = [argv]
