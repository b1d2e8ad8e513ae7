"""Finite-group engine: cover classes, the delta action on them, and the
field-of-moduli degree bound checked by exhaustion.

A cover class is a d-tuple of group elements with product 1, up to
simultaneous conjugation; its canonical form is the lexicographically
least tuple in the orbit.  The classes are generated directly in
canonical form, one coordinate at a time under the centraliser of the
prefix (orderly generation), so enumeration costs about (number of
classes) × |G|.  The monodromy automorphism acts by evaluating its image
words at the tuple, and the moduli degree of a class is the length of its
orbit under that action, which the corollary under test bounds by the
exponent of G/Z(G).  The generation filter computes subgroup closures by
a breadth-first search over the generators.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence, Union

from . import _kernels
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotAGroup,
    PrimeToPViolation,
    SizeLimit,
    UnknownBuiltin,
    UnsupportedForm,
    read_json,
)
from .freegroup import FreeAutomorphism

DEFAULT_TUPLE_CAP = 10_000_000
# Largest group order accepted.  Validating a Cayley table checks
# associativity on all n^3 triples: about 3.5 s at the cap (order 400) and
# 0.5 s for the built-in d100 (order 200), on Python 3.11 on one core.
MAX_GROUP_ORDER = 400


def check_group_order(n: int) -> None:
    """SizeLimit for an order past MAX_GROUP_ORDER, before any table exists."""
    if n > MAX_GROUP_ORDER:
        raise SizeLimit(
            f"group order {n} is past the cap of {MAX_GROUP_ORDER}", cap=MAX_GROUP_ORDER
        )


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a Cayley table over 0..n-1 with 0 the identity.

    The table is fully validated on construction (identity, latin square,
    inverses, associativity); anything else raises NotAGroup.
    """

    name: str
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.table)
        check_group_order(n)
        if n == 0:
            raise NotAGroup("empty table")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise NotAGroup(f"entry {v!r} in row {i} out of range")
            if sorted(row) != list(range(n)):
                raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
        for g in range(n):
            if self.table[0][g] != g or self.table[g][0] != g:
                raise NotAGroup("0 is not a two-sided identity")
        inv = [-1] * n
        for g in range(n):
            for h in range(n):
                if self.table[g][h] == 0:
                    inv[g] = h
                    break
            if inv[g] < 0 or self.table[inv[g]][g] != 0:
                raise NotAGroup(f"element {g} has no two-sided inverse")
        for a in range(n):
            ta = self.table[a]
            for b in range(n):
                tab = ta[b]
                tb = self.table[b]
                for c in range(n):
                    if self.table[tab][c] != ta[tb[c]]:
                        raise NotAGroup(f"associativity fails at ({a},{b},{c})")
        object.__setattr__(self, "inverse", tuple(inv))

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != 0:
            acc = self.table[acc][g]
            k += 1
        return k

    def conjugate(self, g: int, h: int) -> int:
        """h^-1 g h."""
        return self.table[self.table[self.inverse[h]][g]][h]

    def closure(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by ``gens``: a breadth-first search from
        the identity that multiplies by the generators only, in
        O(|G|·|gens|).  In a finite group every inverse is a positive
        power, so positive words reach the whole subgroup."""
        gens = tuple(set(gens))
        seen = {0}
        queue = [0]
        for a in queue:  # the queue grows while it is read
            row = self.table[a]
            for b in gens:
                c = row[b]
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return frozenset(seen)

    def generates(self, gens: Iterable[int]) -> bool:
        return len(self.closure(gens)) == self.order


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownBuiltin(f"cyclic {n} undefined")
    check_group_order(n)
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(f"C{n}", table)


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n: rotations r^a and reflections r^a s, index a + n*b."""
    if n < 1:
        raise UnknownBuiltin(f"dihedral {n} undefined")
    check_group_order(2 * n)

    def mul(x: int, y: int) -> int:
        a1, b1 = x % n, x // n
        a2, b2 = y % n, y // n
        if b1 == 0:
            return (a1 + a2) % n + n * b2
        return (a1 - a2) % n + n * (1 - b2)

    table = tuple(tuple(mul(i, j) for j in range(2 * n)) for i in range(2 * n))
    return FiniteGroup(f"D{n}", table)


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    perms.sort()
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(len(p)))] for q in perms)
        for p in perms
    )
    return FiniteGroup(name, table)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnknownBuiltin(f"symmetric {n} not available (need 1 <= n <= 5)")
    return _perm_group([tuple(p) for p in itertools.permutations(range(n))], f"S{n}")


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def alternating_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnknownBuiltin(f"alternating {n} not available (need 1 <= n <= 5)")
    perms = [tuple(p) for p in itertools.permutations(range(n)) if _perm_sign(tuple(p)) == 1]
    return _perm_group(perms, f"A{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 with elements +-1, +-i, +-j, +-k; index 2*basis + sign."""
    base = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def mul(x: int, y: int) -> int:
        e1, s1 = x // 2, x % 2
        e2, s2 = y // 2, y % 2
        s, e = base[(e1, e2)]
        return 2 * e + (s1 ^ s2 ^ s)

    table = tuple(tuple(mul(i, j) for j in range(8)) for i in range(8))
    return FiniteGroup("Q8", table)


_BUILTIN_PREFIXES = {
    "c": cyclic_group,
    "z": cyclic_group,
    "cyclic": cyclic_group,
    "d": dihedral_group,
    "dihedral": dihedral_group,
    "s": symmetric_group,
    "symmetric": symmetric_group,
    "a": alternating_group,
    "alternating": alternating_group,
    "q": None,
    "quaternion": None,
}


def builtin_group(name: str) -> FiniteGroup:
    """Resolve names like ``s3``, ``cyclic 7``, ``d4``, ``q8``, ``a4``."""
    text = name.strip().lower().replace("_", " ")
    for sep in (" ", ""):
        for prefix, ctor in _BUILTIN_PREFIXES.items():
            if sep == " " and text.startswith(prefix + " "):
                digits = text[len(prefix) + 1 :].strip()
            elif sep == "" and text.startswith(prefix) and text[len(prefix) :].isdigit():
                digits = text[len(prefix) :]
            else:
                continue
            if not digits.isdigit():
                continue
            if len(digits.lstrip("0")) > len(str(MAX_GROUP_ORDER)):
                # Past the cap in every family, and maybe past what int() parses.
                raise SizeLimit(
                    f"builtin group {prefix}{digits[:12]}... is past the order cap of "
                    f"{MAX_GROUP_ORDER}",
                    cap=MAX_GROUP_ORDER,
                )
            n = int(digits)
            if prefix in ("q", "quaternion"):
                if n != 8:
                    raise UnknownBuiltin("only quaternion 8 is built in")
                return quaternion_group()
            assert ctor is not None
            return ctor(n)
    raise UnknownBuiltin(f"unknown builtin group {name!r}")


def load_group(spec: Union[str, Mapping[str, Any]]) -> FiniteGroup:
    """A builtin name, a path to a Cayley-table JSON file, or a parsed
    JSON object {"name": ..., "table": [[...]]}."""
    if isinstance(spec, Mapping):
        table = spec.get("table")
        if isinstance(table, (list, tuple)):
            check_group_order(len(table))
        if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table
        ):
            raise InvalidInput("group JSON needs a 'table' array of arrays")
        return FiniteGroup(str(spec.get("name", "G")), tuple(tuple(row) for row in table))
    if os.path.exists(spec):
        doc = read_json(spec)
        if not isinstance(doc, Mapping):
            raise InvalidInput(f"{spec} is not a JSON object")
        return load_group(doc)
    return builtin_group(spec)


def center(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(
        z
        for z in range(g.order)
        if all(g.table[z][h] == g.table[h][z] for h in range(g.order))
    )


def exponent_mod_center(g: FiniteGroup) -> int:
    """Exponent of G/Z(G): lcm over g of the least k with g^k central."""
    z = set(center(g))
    exp = 1
    for a in range(g.order):
        k, acc = 1, a
        while acc not in z:
            acc = g.table[acc][a]
            k += 1
        exp = exp * k // math.gcd(exp, k)
    return exp


def center_and_exponent(g: FiniteGroup) -> tuple[tuple[int, ...], int]:
    return center(g), exponent_mod_center(g)


@dataclass(frozen=True)
class CoverClass:
    """Canonical representative of a product-one tuple up to simultaneous
    conjugation."""

    rep: tuple[int, ...]

    @property
    def representative(self) -> tuple[int, ...]:
        return self.rep

    @property
    def d(self) -> int:
        return len(self.rep)


def canonical_class(g: FiniteGroup, tup: Sequence[int]) -> CoverClass:
    return CoverClass(_kernels.canonical_tuple(g.table, g.inverse, tuple(tup)))


def enumerate_classes(
    g: FiniteGroup,
    d: int,
    surjective_only: bool = False,
    cap: int = DEFAULT_TUPLE_CAP,
    threads: int = 1,
) -> tuple[CoverClass, ...]:
    """All product-one d-tuple classes, optionally only generating ones.

    The classes are produced by orderly generation (see
    ``product_one_classes_chunk``), so the work grows with the number of
    classes times |G|, not with the |G|^(d-1) product-one tuples.  The cap
    still bounds |G|^(d-1): SizeLimit is raised when it is exceeded, so the
    same inputs are refused as by an exhaustive walk.

    ``threads`` is accepted for compatibility and ignored: the walk's cost
    is about the size of its output, so worker processes spend as much on
    sending their class sets back as they save (measured slower with two
    processes even on evenly split 10^6-class inputs).
    """
    if d < 2:
        raise InvalidInput(f"need d >= 2, got {d}")
    total = g.order ** (d - 1)
    if total > cap:
        raise SizeLimit(
            f"|G|^(d-1) = {total} exceeds cap {cap}", total=total, cap=cap
        )
    reps = _kernels.product_one_classes_chunk(g.table, g.inverse, d, 0, g.order)
    if surjective_only:
        cache: dict[tuple[int, ...], bool] = {}

        def gen_ok(rep: tuple[int, ...]) -> bool:
            key = tuple(sorted(set(rep)))
            if key not in cache:
                cache[key] = g.generates(key)
            return cache[key]

        reps = {rep for rep in reps if gen_ok(rep)}
    return tuple(CoverClass(rep) for rep in sorted(reps))


def delta_on_class(c: CoverClass, a: FreeAutomorphism, g: FiniteGroup) -> CoverClass:
    """Evaluate the automorphism's image words at the tuple and re-canonicalize."""
    if a.d != c.d:
        raise DimensionMismatch(f"automorphism rank {a.d} != tuple length {c.d}")
    new = tuple(
        _kernels.evaluate_word(g.table, g.inverse, c.rep, w.letters) for w in a.images
    )
    return canonical_class(g, new)


def moduli_degree(c: CoverClass, a: FreeAutomorphism, g: FiniteGroup) -> int:
    """Least N >= 1 with delta^N fixing the class; finite because the class
    set is finite and the action permutes it."""
    current = delta_on_class(c, a, g)
    n = 1
    while current != c:
        current = delta_on_class(current, a, g)
        n += 1
    return n


@dataclass(frozen=True)
class OrbitReport:
    group_name: str
    group_order: int
    d: int
    p: int
    surjective_only: bool
    center_size: int
    exponent: int
    degrees: tuple[tuple[CoverClass, int], ...]

    @property
    def class_count(self) -> int:
        return len(self.degrees)

    @property
    def max_degree(self) -> int:
        return max((deg for _, deg in self.degrees), default=1)

    @property
    def all_divide(self) -> bool:
        return all(self.exponent % deg == 0 for _, deg in self.degrees)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": "branchmono/1",
            "kind": "orbits",
            "group": self.group_name,
            "order": self.group_order,
            "d": self.d,
            "p": self.p,
            "surjective_only": self.surjective_only,
            "center_size": self.center_size,
            "exponent_mod_center": self.exponent,
            "class_count": self.class_count,
            "max_degree": self.max_degree,
            "all_degrees_divide_exponent": self.all_divide,
            "classes": [
                {"rep": list(c.rep), "degree": deg} for c, deg in self.degrees
            ],
        }

    def to_csv_lines(self) -> list[str]:
        lines = ["class,representative,degree"]
        for idx, (c, deg) in enumerate(self.degrees):
            rep = ".".join(str(x) for x in c.rep)
            lines.append(f"{idx},{rep},{deg}")
        return lines


def moduli_report(
    g: FiniteGroup,
    a: FreeAutomorphism,
    p: int = 0,
    surjective_only: bool = True,
    cap: int = DEFAULT_TUPLE_CAP,
    threads: int = 1,
) -> OrbitReport:
    """Per-class moduli degrees plus the divisibility verdict.

    Degrees are read off the cycle structure of the delta permutation, so
    the cost is one delta evaluation per class.  Groups whose order shares
    a factor with p are refused.
    """
    if p and math.gcd(g.order, p) != 1:
        raise PrimeToPViolation(
            f"|{g.name}| = {g.order} is not prime to p = {p}", group=g.name, p=p
        )
    classes = enumerate_classes(g, a.d, surjective_only=surjective_only, cap=cap, threads=threads)
    index = {c.rep: i for i, c in enumerate(classes)}
    succ = []
    for c in classes:
        image = delta_on_class(c, a, g)
        if image.rep not in index:
            raise UnsupportedForm(
                "delta image left the enumerated class set; the automorphism "
                "does not preserve the product-one/generation constraints"
            )
        succ.append(index[image.rep])
    degrees = [0] * len(classes)
    seen = [False] * len(classes)
    for start in range(len(classes)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = succ[start]
        while cur != start:
            seen[cur] = True
            cycle.append(cur)
            cur = succ[cur]
        for member in cycle:
            degrees[member] = len(cycle)
    zc, exp = center_and_exponent(g)
    return OrbitReport(
        group_name=g.name,
        group_order=g.order,
        d=a.d,
        p=p,
        surjective_only=surjective_only,
        center_size=len(zc),
        exponent=exp,
        degrees=tuple(zip(classes, degrees)),
    )
