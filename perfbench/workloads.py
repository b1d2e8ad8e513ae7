"""Seeded input generators for the four benchmark workloads.

Every input is valid by construction: the generators never run the
program to filter what they produce.  Each workload has a fixed pool of
cases; case ``i`` is generated from ``random.Random("<workload>/<i>")``,
so its bytes never change and its stdout digest can be pinned in
``goldens.json``.  The run seed only chooses which pool cases form each
round, so the same seed gives byte-identical inputs.

A case carries what the generator knows about the right answer
(``expect``); ``checks.py`` compares the program's output against it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Case:
    """One CLI invocation: argument list, input files and expected facts.

    ``args`` refers to input files as ``{name}``; the runner substitutes
    the path it wrote the file to.
    """

    workload: str
    index: int
    args: tuple[str, ...]
    files: dict[str, bytes]
    expect: dict[str, Any]

    @property
    def key(self) -> str:
        """Digest of everything the program sees; keys ``goldens.json``."""
        h = hashlib.sha256(json.dumps(self.args).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()[:32]

    def argv(self, paths: dict[str, str]) -> list[str]:
        out = []
        for a in self.args:
            if a.startswith("{") and a.endswith("}"):
                a = paths[a[1:-1]]
            out.append(a)
        return out


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# present-deep: 2-adic points, deep nearly binary cluster forest

PRESENT_D = 96


def present_case(i: int) -> Case:
    rng = random.Random(f"present-deep/{i}")
    points = rng.sample(range(1 << 16), PRESENT_D)
    doc = {"mode": "padic", "p": 2, "points": points}
    return Case(
        "present-deep",
        i,
        ("present", "--input", "{input}"),
        {"input": _json_bytes(doc)},
        {"d": PRESENT_D, "labels": sorted(str(x) for x in points)},
    )


# ---------------------------------------------------------------------------
# clusters-flat: shuffled matrix of a planted ultrametric tree of depth <= 2

CLUSTERS_D = 160


def _cuts(rng: random.Random, n: int, parts: int) -> list[tuple[int, int]]:
    """Split range(n) into ``parts`` nonempty consecutive (lo, hi) blocks."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return list(zip([0] + cuts, cuts + [n]))


def clusters_case(i: int) -> Case:
    rng = random.Random(f"clusters-flat/{i}")
    d = CLUSTERS_D
    block_of = [0] * d
    sub_of = [0] * d
    planted: list[tuple[list[int], int]] = []  # (strands, depth)
    for b, (lo, hi) in enumerate(_cuts(rng, d, rng.randint(8, 16))):
        if hi - lo >= 2:
            planted.append((list(range(lo, hi)), 1))
        for s, (slo, shi) in enumerate(_cuts(rng, hi - lo, rng.randint(1, min(hi - lo, 6)))):
            members = list(range(lo + slo, lo + shi))
            for x in members:
                block_of[x], sub_of[x] = b, s
            if len(members) >= 2:
                planted.append((members, 2))

    def e(x: int, y: int) -> int:
        if x == y or block_of[x] != block_of[y]:
            return 0
        return 2 if sub_of[x] == sub_of[y] else 1

    perm = list(range(d))  # input row a holds planted strand perm[a]
    rng.shuffle(perm)
    matrix = [[e(perm[a], perm[b]) for b in range(d)] for a in range(d)]
    row_of = {x: a + 1 for a, x in enumerate(perm)}
    clusters = sorted(
        [sorted(row_of[x] for x in members), depth] for members, depth in planted
    )
    return Case(
        "clusters-flat",
        i,
        ("clusters", "--input", "{input}"),
        {"input": _json_bytes({"mode": "matrix", "matrix": matrix})},
        {"d": d, "clusters": clusters},
    )


# ---------------------------------------------------------------------------
# orbits: builtin non-abelian groups on 7-adic configurations

ORBIT_GROUPS = (("s3", "S3", 6, 7), ("d5", "D5", 10, 6), ("a4", "A4", 12, 5),
                ("s4", "S4", 24, 4), ("a5", "A5", 60, 3))
ORBIT_P = 7
ORBIT_POOL = 40


def orbits_case(i: int) -> Case:
    rng = random.Random(f"orbits/{i}")
    spec, name, order, d = ORBIT_GROUPS[i % len(ORBIT_GROUPS)]
    points = rng.sample(range(ORBIT_P ** 3), d)
    doc = {"mode": "padic", "p": ORBIT_P, "points": points}
    return Case(
        "orbits",
        i,
        ("orbits", "--group", spec, "--input", "{input}", "--p", str(ORBIT_P),
         "--threads", "1", "--format", "json"),
        {"input": _json_bytes(doc)},
        {"group": name, "order": order, "d": d, "p": ORBIT_P},
    )


# ---------------------------------------------------------------------------
# verify-topology: witness families realising planted cluster trees
#
# a_i(z) = sum_k c_ik z^k.  Strands in one block of the planted tree share
# the coefficients below the block's split index; at the split each child
# gets its own integer, increasing left to right.  Past a strand's last
# split its tail is generic (random rationals) or zero; zero tails leave
# sibling strands collinear for every z, as in the paper's examples.

ETA = Fraction(1, 8)
R = Fraction(1, 64)
MAX_SPLIT = 3
TAIL = 2
SAMPLES = 1024
FAMILY_POOL = 64


def _plant(rng: random.Random, strands: list[int], split: int, coeffs: list[list[Fraction]]) -> None:
    """Assign coefficient ``split`` (and the shared ones above it) to a block."""
    n = len(strands)
    if split >= MAX_SPLIT:
        parts = [[s] for s in strands]
    else:
        k = rng.randint(2, min(n, 4))
        parts = [strands[lo:hi] for lo, hi in _cuts(rng, n, k)]
    values = sorted(rng.sample(range(-6, 7), len(parts)))
    for part, v in zip(parts, values):
        for s in part:
            coeffs[s][split] = Fraction(v)
        if len(part) >= 2:
            nxt = min(MAX_SPLIT, split + rng.choice((1, 1, 2)))
            shared = Fraction(rng.randint(-3, 3))
            for skipped in range(split + 1, nxt):
                for s in part:
                    coeffs[s][skipped] = shared
            _plant(rng, part, nxt, coeffs)


def _split_index(a: list[Fraction], b: list[Fraction]) -> int:
    """First coefficient where two strands differ: their intersection depth."""
    return next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)


def _clusters(coeffs: list[list[Fraction]]) -> list[tuple[int, int, int]]:
    """(start, length, depth) of every cluster, 1-based: maximal runs of
    neighbouring strands that agree on the coefficients below depth."""
    adjacent = [_split_index(a, b) for a, b in zip(coeffs, coeffs[1:])]
    out = []
    for n in range(1, MAX_SPLIT + 1):
        i = 0
        while i < len(coeffs):
            j = i
            while j < len(adjacent) and adjacent[j] >= n:
                j += 1
            if j > i:
                out.append((i + 1, j - i + 1, n))
            i = j + 1
    return out


def _check_margins(coeffs: list[list[Fraction]], z0: Fraction) -> None:
    """Exact sufficient conditions for the separation and cluster-bound
    checks at a real z0 in (r/2, r); raises if the generator is wrong."""
    if not R / 2 < z0 < R:
        raise ValueError("z0 outside (r/2, r)")
    value = [sum(c * z0 ** k for k, c in enumerate(cs)) for cs in coeffs]
    if sorted(value) != value or len(set(value)) != len(value):
        raise ValueError("labels are not in real-part order at z0")
    circles = []
    for start, length, n in _clusters(coeffs):
        members = range(start - 1, start - 1 + length)
        centre = sum(coeffs[start - 1][k] * z0 ** k for k in range(n))
        radius = ETA * R ** (n - 1)
        for s in range(len(coeffs)):
            if s in members:
                tail = sum(abs(c) * z0 ** k for k, c in enumerate(coeffs[s]) if k >= n)
                if not tail < ETA * z0 ** (n - 1):
                    raise ValueError(f"strand {s + 1} breaks the cluster bound at depth {n}")
            elif not abs(value[s] - centre) > radius:
                raise ValueError(f"strand {s + 1} falls inside a foreign circle")
        circles.append((members, n, centre, radius))
    for a, (m1, n1, w1, r1) in enumerate(circles):
        for m2, n2, w2, r2 in circles[a + 1:]:
            inside = set(m2) <= set(m1) and n1 <= n2 or set(m1) <= set(m2) and n2 <= n1
            ok = abs(w1 - w2) < abs(r1 - r2) and r1 != r2 if inside else abs(w1 - w2) > r1 + r2
            if not ok:
                raise ValueError("separating circles overlap")


def family_case(i: int) -> Case:
    rng = random.Random(f"verify-topology/{i}")
    sparse = i % 4 == 0
    d = rng.randint(8, 12) if sparse else 8 + (i // 4) % 5
    coeffs = [[Fraction(0)] * (MAX_SPLIT + 1 + TAIL) for _ in range(d)]
    _plant(rng, list(range(d)), 0, coeffs)
    adjacent = [_split_index(a, b) for a, b in zip(coeffs, coeffs[1:])]
    for s in range(d):
        # Strands are in tree order, so a strand's last split is with a neighbour.
        last = max(adjacent[max(s - 1, 0) : s + 1])
        for k in range(last + 1, len(coeffs[s])):
            coeffs[s][k] = (
                Fraction(0) if sparse else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            )
    z0 = Fraction(rng.randint(9, 15), 1024)
    _check_margins(coeffs, z0)
    trimmed = []
    for cs in coeffs:
        cs = list(cs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        trimmed.append([str(c) for c in cs])
    doc = {"coefficients": trimmed, "eta": str(ETA), "r": str(R),
           "z0": [str(z0), "0"], "samples": SAMPLES}
    return Case(
        "verify-topology",
        i,
        ("verify-topology", "--family", "{family}", "--format", "json"),
        {"family": _json_bytes(doc)},
        {"d": d, "sparse": sparse, "clusters": _clusters(coeffs), "collinear": _collinear(coeffs)},
    )


def _collinear(coeffs: list[list[Fraction]]) -> int:
    """Size of the largest set of strands that differ in one coefficient
    only.  Such strands stay on one line for every z, so three or more of
    them cross at a single point at the same time."""
    best = 1
    for k in range(len(coeffs[0])):
        groups: dict[tuple, int] = {}
        for cs in coeffs:
            rest = tuple(cs[:k] + cs[k + 1 :])
            groups[rest] = groups.get(rest, 0) + 1
        best = max(best, *groups.values())
    return best


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Case]
    pool: int
    rounds: Callable[[random.Random], list[int]]


def _sample(k: int, pool: int) -> Callable[[random.Random], list[int]]:
    return lambda rng: rng.sample(range(pool), k)


def _orbit_round(rng: random.Random) -> list[int]:
    """One configuration of every group, in seeded order."""
    n = len(ORBIT_GROUPS)
    picks = [g + n * rng.randrange(ORBIT_POOL // n) for g in range(n)]
    rng.shuffle(picks)
    return picks


@functools.cache
def _family_strata() -> tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Pool indices of sparse families with three or more collinear
    strands, of the other sparse families, and of generic families by d;
    read from the generator's own data."""
    crossing, sparse, generic = [], [], {}
    for i in range(FAMILY_POOL):
        expect = family_case(i).expect
        if not expect["sparse"]:
            generic.setdefault(expect["d"], []).append(i)
        elif expect["collinear"] >= 3:
            crossing.append(i)
        else:
            sparse.append(i)
    return tuple(crossing), tuple(sparse), {d: tuple(v) for d, v in sorted(generic.items())}


def _family_round(rng: random.Random) -> list[int]:
    """Eight families in a fixed mix, so that every round has the same
    share of crossings of three or more strands at one point (which the
    braid tracker cannot resolve yet) and the same sizes:
    two sparse families with three or more collinear strands, one other
    sparse family, and one generic family for each d from 8 to 12."""
    crossing, sparse, generic = _family_strata()
    picks = rng.sample(crossing, 2) + rng.sample(sparse, 1) + [rng.choice(v) for v in generic.values()]
    rng.shuffle(picks)
    return picks


# Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("present-deep", present_case, 48, _sample(2, 48)),
        Workload("clusters-flat", clusters_case, 48, _sample(2, 48)),
        Workload("orbits", orbits_case, ORBIT_POOL, _orbit_round),
        Workload("verify-topology", family_case, FAMILY_POOL, _family_round),
    )
}


def rounds(workload: Workload, seed: int) -> Iterator[list[Case]]:
    """Endless seeded sequence of rounds of cases."""
    rng = random.Random(f"run:{workload.name}:{seed}")
    while True:
        yield [workload.make(i) for i in workload.rounds(rng)]
