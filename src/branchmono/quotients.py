"""Finite-group engine: cover classes, the delta action on them, and the
field-of-moduli degree bound checked by exhaustion.

A cover class is a d-tuple of group elements with product 1, up to
simultaneous conjugation; its canonical form is the lexicographically
least tuple in the orbit, and that tuple stands for the class.  The
classes are generated directly in canonical form and in sorted order, one
coordinate at a time under the centraliser of the prefix (orderly
generation), so enumeration costs about (number of classes) × |G|.  The
same walk decides generation: each prefix carries the subgroup it
generates, and ``FiniteGroup.generates`` is asked once per distinct
(subgroup, last free coordinate); ``_kernels`` holds the walk and the
closure.  The forest's delta acts on a class by its clusters' twists:
strand i is conjugated by W_i, the product of P_C over the clusters
containing i, outermost first; ``forest_twists`` reshapes the forest's
parent and innermost-cluster tables once per forest, so per class each
P_C is one pair of lookups in the tuple's prefix products, each W_C is
W_parent * P_C, each strand is one conjugation, and the image tuple is
re-canonicalised from the conjugations that take its first coordinate
to its least conjugate, which the group precomputes.  The moduli degree
of a class is the length of its orbit under delta, which the corollary
under test bounds by the exponent of G/Z(G).  Delta permutes the
classes, so ``moduli_report`` finds each image by bisection in the
sorted classes and reads the degrees off one walk per cycle, holding
beside the classes only their degrees; the report is written a block of
classes at a time.
The benchmark's tracer times ``generates`` and ``delta_on_class`` by
name, so the walk asks the one and ``moduli_report`` calls the other
once per class.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from bisect import bisect_left
from operator import itemgetter
from typing import Any, Iterable, Mapping, Optional, Sequence, TextIO, Union

from . import _kernels
from ._value import Value
from .clusters import ClusterForest
from .errors import (
    InvalidInput,
    NotAGroup,
    PrimeToPViolation,
    SizeLimit,
    UnknownBuiltin,
    UnsupportedForm,
    read_json,
)
from .intersection import _echo

DEFAULT_TUPLE_CAP = 10_000_000
# Largest group order accepted; the Cayley table and the conjugation table
# hold n^2 entries each.  Building a group costs O(n^2 log n): the
# table checks, the conjugation data, and Light's associativity test at
# O(n^2) per generator of a greedy generating set, which for a group has
# at most log2 n elements (about 30 ms for an order-400 table on Python
# 3.11, against 1.8 s for the check of all n^3 triples it replaces).
MAX_GROUP_ORDER = 400
# Classes per write of OrbitReport.write_json and OrbitReport.write_csv.
JSON_CHUNK = 256


def check_group_order(n: int) -> None:
    """SizeLimit for an order past MAX_GROUP_ORDER, before any table exists."""
    if n > MAX_GROUP_ORDER:
        raise SizeLimit(
            f"group order {n} is past the cap of {MAX_GROUP_ORDER}", cap=MAX_GROUP_ORDER
        )


def associativity_failure(table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """A triple (a, b, c) with (ab)c != a(bc) in a latin square with
    identity 0, or None if there is none: Light's test.

    The middle elements b for which (ab)c = a(bc) holds for all a and c
    are closed under products and include 0, so it suffices to check b in
    a set whose products, formed by right multiplication in the table
    itself, reach every element.  The set is chosen greedily: the least
    element outside ``_kernels.closure`` of the earlier generators becomes
    the next one.  With g generators (g <= log2 n for a group) the search
    costs O(n·g^2) and the check O(n^2·g), against O(n^3) for all
    triples.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    gens: list[int] = []
    reached = _kernels.closure(rows, gens)
    for x in range(n):
        if x not in reached:
            gens.append(x)
            reached = _kernels.closure(rows, gens)
    for b in gens:
        tb = rows[b]
        for a, ta in enumerate(rows):
            ab = rows[ta[b]]
            if ab != tuple(map(ta.__getitem__, tb)):
                return a, b, next(c for c in range(n) if ab[c] != ta[tb[c]])
    return None


class FiniteGroup(Value):
    """A finite group as a Cayley table over 0..n-1 with 0 the identity.

    The table is fully validated on construction (identity, latin square,
    inverses, associativity); anything else raises NotAGroup.  The
    conjugation data that canonical forms read is built once here:

    - ``conj[h][x]`` = h^-1 x h;
    - ``least[x]``, the least conjugate of x;
    - ``reach[x]``, the rows ``conj[h]`` that take x to ``least[x]``, one
      per inner automorphism (conjugators that differ by a central element
      have the same row).

    Equality, hashing and the repr read ``name``, ``table`` and
    ``inverse``; the conjugation data follows from the table.
    """

    __slots__ = ("name", "table", "inverse", "conj", "least", "reach")
    _fields = ("name", "table", "inverse")

    def __init__(self, name: str, table: tuple[tuple[int, ...], ...]):
        n = len(table)
        check_group_order(n)
        if n == 0:
            raise NotAGroup("empty table")
        elements = list(range(n))
        for i, row in enumerate(table):
            if len(row) != n:
                raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
            if set(map(type, row)) != {int}:
                for v in row:
                    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                        raise NotAGroup(f"entry {_echo(v)} in row {i} out of range")
            if sorted(row) != elements:
                raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
        cols = tuple(zip(*table))
        for j, col in enumerate(cols):
            if sorted(col) != elements:
                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
        if list(table[0]) != elements or list(cols[0]) != elements:
            raise NotAGroup("0 is not a two-sided identity")
        inv = [row.index(0) for row in table]
        for g in range(n):
            if table[inv[g]][g] != 0:
                raise NotAGroup(f"element {g} has no two-sided inverse")
        failure = associativity_failure(table)
        if failure:
            raise NotAGroup("associativity fails at ({},{},{})".format(*failure))
        # conj[h][x] = h^-1 x h = (column h)[(row h^-1)[x]]
        conj = tuple(tuple(map(cols[h].__getitem__, table[inv[h]])) for h in range(n))
        inner = tuple(dict.fromkeys(conj))
        least = tuple(map(min, zip(*inner)))
        reach = tuple(tuple(row for row in inner if row[x] == least[x]) for x in range(n))
        super().__init__(name, table, tuple(inv), conj, least, reach)

    @property
    def order(self) -> int:
        return len(self.table)

    def canonical(self, tup: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically least tuple in the simultaneous-conjugation
        orbit of ``tup``.  Only the rows in ``reach[tup[0]]`` give the least
        first coordinate, so only their images are compared."""
        if len(tup) < 2:  # itemgetter of one index returns an entry, not a 1-tuple
            return tuple(self.least[x] for x in tup)
        return min(map(itemgetter(*tup), self.reach[tup[0]]))

    def closure(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by ``gens`` (``_kernels.closure``)."""
        return _kernels.closure(self.table, gens)

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

    def product(x: int, y: int) -> int:
        a1, b1 = x % n, x // n
        a2, b2 = y % n, y // n
        if b1 == 0:
            return (a1 + a2) % n + n * b2
        return (a1 - a2) % n + n * (1 - b2)

    table = tuple(tuple(product(i, j) for j in range(2 * n)) for i in range(2 * n))
    return FiniteGroup(f"D{n}", table)


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    perms.sort()
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(map(p.__getitem__, q))] for q in perms) for p in perms)
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


def quaternion_group(n: int = 8) -> FiniteGroup:
    """Q8 with elements +-1, +-i, +-j, +-k; index 2*basis + sign.  Only
    n = 8 is built in."""
    if n != 8:
        raise UnknownBuiltin("only quaternion 8 is built in")
    base = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def product(x: int, y: int) -> int:
        e1, s1 = x // 2, x % 2
        e2, s2 = y // 2, y % 2
        s, e = base[(e1, e2)]
        return 2 * e + (s1 ^ s2 ^ s)

    table = tuple(tuple(product(i, j) for j in range(8)) for i in range(8))
    return FiniteGroup("Q8", table)


# A family name, then an optional space (and any further whitespace), then
# decimal digits.  ``\d`` matches exactly the digits that int() parses, so
# names such as "c²" are unknown rather than an int() failure.  Each
# family's spellings share their first letter, which keys its constructor.
_BUILTIN_NAME = re.compile(
    r"(cyclic|c|z|dihedral|d|symmetric|s|alternating|a|quaternion|q)(?: \s*)?(\d+)"
)
_BUILTIN_FAMILIES = {
    "c": cyclic_group,
    "z": cyclic_group,
    "d": dihedral_group,
    "s": symmetric_group,
    "a": alternating_group,
    "q": quaternion_group,
}


def builtin_group(name: str) -> FiniteGroup:
    """Resolve names like ``s3``, ``cyclic 7``, ``d4``, ``q8``, ``a4``:
    ``_`` reads as a space, and case and surrounding whitespace are ignored."""
    match = _BUILTIN_NAME.fullmatch(name.lower().replace("_", " ").strip())
    if match is None:
        raise UnknownBuiltin(f"unknown builtin group {_echo(name)}")
    prefix, digits = match.groups()
    if len(digits.lstrip("0")) > len(str(MAX_GROUP_ORDER)):
        # Past the cap in every family, and maybe past what int() parses.
        raise SizeLimit(
            f"builtin group {prefix}{digits[:12]}... is past the order cap of {MAX_GROUP_ORDER}",
            cap=MAX_GROUP_ORDER,
        )
    return _BUILTIN_FAMILIES[prefix[0]](int(digits))


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


def center_and_exponent(g: FiniteGroup) -> tuple[tuple[int, ...], int]:
    """The centre Z(G), the elements z whose conjugation row is the
    identity's (z^-1 x z = x for every x), and the exponent of G/Z(G): the
    lcm over a of the least k with a^k central."""
    center = tuple(z for z, row in enumerate(g.conj) if row == g.conj[0])
    central = set(center)
    exp = 1
    for a in range(g.order):
        k, acc = 1, a
        while acc not in central:
            acc = g.table[acc][a]
            k += 1
        exp = math.lcm(exp, k)
    return center, exp


def enumerate_classes(
    g: FiniteGroup,
    d: int,
    surjective_only: bool = False,
    cap: int = DEFAULT_TUPLE_CAP,
) -> tuple[tuple[int, ...], ...]:
    """The canonical tuples of all product-one d-tuple classes, sorted,
    optionally only the generating ones.

    The classes are produced by orderly generation (see
    ``product_one_classes_chunk``), already sorted and, with
    ``surjective_only``, already filtered by ``FiniteGroup.generates``
    along the walk, so the work grows with the number of classes times
    |G|, not with the |G|^(d-1) product-one tuples.  The cap
    still bounds |G|^(d-1): SizeLimit is raised when it is exceeded, so the
    same inputs are refused as by an exhaustive walk.

    The walk is serial: its cost is about the size of its output, so worker
    processes spend as much on sending their class sets back as they save
    (measured slower with two processes even on evenly split 10^6-class
    inputs).
    """
    if d < 2:
        raise InvalidInput(f"need d >= 2, got {d}")
    total = g.order ** (d - 1)
    if total > cap:
        raise SizeLimit(
            f"|G|^(d-1) = {total} exceeds cap {cap}", total=total, cap=cap
        )
    return tuple(
        _kernels.product_one_classes_chunk(
            g.table,
            g.inverse,
            d,
            0,
            g.order,
            conj=g.conj,
            generates=g.generates if surjective_only else None,
        )
    )


# (clusters, strands): see ``forest_twists``.
Twists = tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]


def forest_twists(forest: ClusterForest) -> Twists:
    """The forest's tables in the form ``delta_on_class`` evaluates.  It
    keeps W_C^-1 for cluster k in slot k + 1 of a list whose slot 0 is
    the identity, the W of no cluster; here each cluster, parents first,
    is (start - 1, end, its parent's slot), and each strand is (its
    position, its innermost cluster's slot)."""
    clusters = tuple((c.start - 1, c.end, k + 1) for c, k in zip(forest.clusters, forest.parents))
    return clusters, tuple((i, k + 1) for i, k in enumerate(forest.innermost))


def delta_on_class(rep: tuple[int, ...], form: Twists, g: FiniteGroup) -> tuple[int, ...]:
    """The canonical tuple of delta's image of the class: strand i goes to
    W_i g_i W_i^-1, then the tuple is re-canonicalized.

    W_i multiplies P_C = g_m...g_{m+l-1} over the clusters C containing
    i, outermost first, so with the tuple's prefix products each P_C is
    one pair of lookups and W_C = W_parent * P_C.  The loop keeps the
    inverses h_C = W_C^-1 = P_C^-1 * h_parent, since conj[h] conjugates
    by W."""
    clusters, strands = form
    table, inv = g.table, g.inverse
    prefix = [0]
    acc = 0
    for x in rep:
        acc = table[acc][x]
        prefix.append(acc)
    h = [0]
    for lo, hi, parent in clusters:
        h.append(table[table[inv[prefix[hi]]][prefix[lo]]][h[parent]])
    conj = g.conj
    return g.canonical([conj[h[c]][rep[i]] for i, c in strands])


class OrbitReport(Value):
    """The canonical tuple of each class, in enumeration order, and its
    moduli degree; ``exponent`` is that of G/Z(G)."""

    __slots__ = (
        "group_name",
        "group_order",
        "d",
        "p",
        "surjective_only",
        "center_size",
        "exponent",
        "classes",
        "degrees",
    )

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=1)

    @property
    def all_divide(self) -> bool:
        return all(self.exponent % deg == 0 for deg in self.degrees)

    def write_json(self, out: TextIO) -> None:
        """Write the report's JSON document to ``out``, the same bytes as its
        reference ``tests/oracles.orbit_json``, which ``json.dumps`` the
        whole document at once: here each class block is formatted straight
        from its tuple and written JSON_CHUNK classes at a time."""
        doc = {
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
            "classes": [],
        }
        head = json.dumps(doc, indent=2)
        if not self.classes:
            out.write(head + "\n")
            return
        rep = ",\n".join(["        %d"] * self.d)
        block = '    {\n      "rep": [\n' + rep + '\n      ],\n      "degree": %d\n    }'
        out.write(head[: -len("]\n}")] + "\n")
        for start in range(0, len(self.classes), JSON_CHUNK):
            chunk = zip(self.classes[start : start + JSON_CHUNK], self.degrees[start : start + JSON_CHUNK])
            blocks = [block % (rep + (deg,)) for rep, deg in chunk]
            out.write((",\n" if start else "") + ",\n".join(blocks))
        out.write("\n  ]\n}\n")

    def write_csv(self, out: TextIO) -> None:
        """Write the header line ``class,representative,degree``, then one
        line per class (its position, its tuple joined by dots, its degree),
        JSON_CHUNK classes at a time."""
        out.write("class,representative,degree\n")
        line = "%d," + ".".join(["%d"] * self.d) + ",%d\n"
        for start in range(0, len(self.classes), JSON_CHUNK):
            chunk = zip(
                itertools.count(start),
                self.classes[start : start + JSON_CHUNK],
                self.degrees[start : start + JSON_CHUNK],
            )
            out.write("".join([line % (i, *rep, deg) for i, rep, deg in chunk]))


def moduli_report(
    g: FiniteGroup,
    forest: ClusterForest,
    p: int = 0,
    surjective_only: bool = True,
    cap: int = DEFAULT_TUPLE_CAP,
) -> OrbitReport:
    """Per-class moduli degrees of the forest's delta, plus the
    divisibility verdict.

    Delta permutes the classes.  Each twist fixes its P_C, so delta
    fixes x_1...x_d and takes product-one tuples to product-one tuples.
    Each image is a word in the tuple, and delta is an automorphism of
    the free group whose inverse writes the tuple back as words in the
    image, so a tuple and its image generate the same subgroup.  Delta
    commutes with simultaneous conjugation, so it is a map on classes,
    and it is invertible there.  So the degrees are read off the cycles
    of the permutation, one walk per cycle and one delta evaluation per
    class; the classes come sorted, so each image is found by bisection
    in them, and beside the classes the walk holds only their degrees.
    Every cycle length divides exp(G/Z(G)), so a walk that grows past it,
    or an image that bisects past the last class, can only be a fault in
    delta: UnsupportedForm, naming the class the walk started from.
    Groups whose order shares a factor with p are refused.
    """
    if p and math.gcd(g.order, p) != 1:
        raise PrimeToPViolation(
            f"|{g.name}| = {g.order} is not prime to p = {p}", group=g.name, p=p
        )
    classes = enumerate_classes(g, forest.d, surjective_only=surjective_only, cap=cap)
    form = forest_twists(forest)
    zc, exp = center_and_exponent(g)
    count = len(classes)
    degrees = [0] * count
    for start in range(count):
        if degrees[start]:
            continue
        cycle = [start]
        while True:
            at = bisect_left(classes, delta_on_class(classes[cycle[-1]], form, g))
            if at == start:
                break
            if len(cycle) == exp or at == count:
                raise UnsupportedForm(
                    f"delta's orbit of class {list(classes[start])} does not close "
                    f"within exp(G/Z(G)) = {exp} steps among the classes",
                    rep=list(classes[start]),
                )
            cycle.append(at)
        for member in cycle:
            degrees[member] = len(cycle)
    return OrbitReport(
        group_name=g.name,
        group_order=g.order,
        d=forest.d,
        p=p,
        surjective_only=surjective_only,
        center_size=len(zc),
        exponent=exp,
        classes=classes,
        degrees=tuple(degrees),
    )
