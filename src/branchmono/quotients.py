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
(subgroup, last free coordinate).  The monodromy automorphism acts on a
class through its images in conjugation form, u·x_j^±1·u⁻¹: the u's are
evaluated once per class along a shared prefix trie, each image is then
one conjugation, and the image tuple is re-canonicalised from the
conjugations that take its first coordinate to its least conjugate,
which the group precomputes.  The moduli degree of a class is the length
of its orbit under that action, which the corollary under test bounds by
the exponent of G/Z(G).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from operator import itemgetter
from typing import Any, Iterable, Mapping, Optional, Sequence, TextIO, Union

from . import _kernels
from ._value import Value, _set
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
# Largest group order accepted; the Cayley table and the conjugation table
# hold n^2 entries each.  Building a group costs O(n^2 log n): the
# table checks, the conjugation data, and Light's associativity test at
# O(n^2) per generator of a greedy generating set, which for a group has
# at most log2 n elements (about 30 ms for an order-400 table on Python
# 3.11, against 1.8 s for the check of all n^3 triples it replaces).
MAX_GROUP_ORDER = 400
# Classes per write of OrbitReport.write_json.
JSON_CHUNK = 4096


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
    itself, reach every element.  The set is chosen greedily: each element
    not yet reached becomes a generator.  The search costs O(n) per
    generator and the check O(n^2) per generator, against O(n^3) for all
    triples.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    seen = [False] * n
    seen[0] = True
    reached = [0]
    gens: list[int] = []
    for x in range(n):
        if seen[x]:
            continue
        gens.append(x)
        # What was reached times the new generator, then every generator
        # on what that reaches: each element meets each generator once.
        fresh = []
        for a in reached:
            c = rows[a][x]
            if not seen[c]:
                seen[c] = True
                fresh.append(c)
        for a in fresh:  # grows while it is read
            row = rows[a]
            for b in gens:
                c = row[b]
                if not seen[c]:
                    seen[c] = True
                    fresh.append(c)
        reached += fresh
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
                        raise NotAGroup(f"entry {v!r} in row {i} out of range")
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
        _set(self, "name", name)
        _set(self, "table", table)
        _set(self, "inverse", tuple(inv))
        _set(self, "conj", conj)
        _set(self, "least", least)
        _set(self, "reach", tuple(tuple(row for row in inner if row[x] == least[x]) for x in range(n)))

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
        raise UnknownBuiltin(f"unknown builtin group {name!r}")
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
    """The centre Z(G), the elements whose row equals their column, and the
    exponent of G/Z(G): the lcm over a of the least k with a^k central."""
    cols = list(zip(*g.table))
    center = tuple(z for z in range(g.order) if tuple(g.table[z]) == cols[z])
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


# (trie, images, inverses): see ``conjugation_form``.
ConjugationForm = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, Any], ...], bool]


def conjugation_form(a: FreeAutomorphism) -> ConjugationForm:
    """The automorphism's images in the form ``delta_on_class`` evaluates,
    derived once per automorphism.

    At a tuple, an image u * x_j^+-1 * u^-1 is rep[j]^+-1 conjugated by
    the value of u, so only u is evaluated letter by letter.  The u's go
    into one prefix trie: node k + 1 is ``trie[k]`` = (parent node,
    letter), parents first, and node 0 is the empty word.  A monodromy
    image has u = W_i = P_C1...P_Ck, and strands in a common cluster share
    a prefix of their W_i, which the trie evaluates once.  ``images[i]``
    is (the node of u, the letter of x_j^+-1), or (-1, its letters) for an
    image that is not a conjugate of a generator.

    A letter is stored as its slot in rep + (the inverses of rep): x_k
    at k - 1 and x_k^-1 at d + k - 1.  ``inverses`` says whether any
    letter needs the second half."""
    d = a.d
    trie: list[tuple[int, int]] = []
    node_of: dict[tuple[int, int], int] = {}
    images: list[tuple[int, Any]] = []
    inverses = False

    def slot(letter: int) -> int:
        return letter - 1 if letter > 0 else d - letter - 1

    for w in a.images:
        u, core = w.cyclic_decomposition()
        if len(core.letters) == 1:
            read = w.letters[: len(u.letters) + 1]  # u, then x_j^+-1
            node = 0
            for k in map(slot, u.letters):
                key = (node, k)
                if key not in node_of:
                    trie.append(key)
                    node_of[key] = len(trie)
                node = node_of[key]
            images.append((node, slot(read[-1])))
        else:
            read = w.letters
            images.append((-1, tuple(map(slot, read))))
        inverses = inverses or min(read, default=1) < 0
    return tuple(trie), tuple(images), inverses


def delta_on_class(
    rep: tuple[int, ...],
    a: FreeAutomorphism,
    g: FiniteGroup,
    form: Optional[ConjugationForm] = None,
) -> tuple[int, ...]:
    """The canonical tuple of the automorphism's image of the class: every
    image word evaluated at the tuple, then re-canonicalized.

    The images are read in ``conjugation_form`` (``form``, derived from
    ``a`` when not given): one table lookup per trie node for the
    conjugators u, then one conjugation per generator; an image of
    another shape is folded one lookup per letter."""
    if a.d != len(rep):
        raise DimensionMismatch(f"automorphism rank {a.d} != tuple length {len(rep)}")
    trie, images, inverses = conjugation_form(a) if form is None else form
    table, conj, inv = g.table, g.conj, g.inverse
    value = (*rep, *[inv[x] for x in rep]) if inverses else rep
    at = [0]  # at[node]: the value of the node's word
    for parent, k in trie:
        at.append(table[at[parent]][value[k]])
    # u x u^-1 = h^-1 x h for h = u^-1
    return g.canonical(
        [conj[inv[at[node]]][value[k]] if node >= 0 else _fold(table, value, k) for node, k in images]
    )


def _fold(table: Sequence[Sequence[int]], value: Sequence[int], slots: Sequence[int]) -> int:
    """The product of the values in the given slots, one lookup each."""
    acc = 0
    for k in slots:
        acc = table[acc][value[k]]
    return acc


class OrbitReport(Value):
    __slots__ = (
        "group_name",
        "group_order",
        "d",
        "p",
        "surjective_only",
        "center_size",
        "exponent",
        "degrees",
    )

    def __init__(
        self,
        group_name: str,
        group_order: int,
        d: int,
        p: int,
        surjective_only: bool,
        center_size: int,
        exponent: int,
        degrees: tuple[tuple[tuple[int, ...], int], ...],
    ):
        _set(self, "group_name", group_name)
        _set(self, "group_order", group_order)
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "surjective_only", surjective_only)
        _set(self, "center_size", center_size)
        _set(self, "exponent", exponent)
        # (canonical tuple, moduli degree) per class, in enumeration order.
        _set(self, "degrees", degrees)

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
            **self._head(),
            "classes": [
                {"rep": list(rep), "degree": deg} for rep, deg in self.degrees
            ],
        }

    def _head(self) -> dict[str, Any]:
        """The JSON document without its "classes" member."""
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
        }

    def write_json(self, out: TextIO) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2)`` and a newline
        to ``out``: the same bytes, with each class block formatted straight
        from its tuple and written JSON_CHUNK classes at a time."""
        head = json.dumps({**self._head(), "classes": []}, indent=2)
        if not self.degrees:
            out.write(head + "\n")
            return
        rep = ",\n".join(["        %d"] * self.d)
        block = '    {\n      "rep": [\n' + rep + '\n      ],\n      "degree": %d\n    }'
        out.write(head[: -len("]\n}")] + "\n")
        for start in range(0, len(self.degrees), JSON_CHUNK):
            blocks = [block % (rep + (deg,)) for rep, deg in self.degrees[start : start + JSON_CHUNK]]
            out.write((",\n" if start else "") + ",\n".join(blocks))
        out.write("\n  ]\n}\n")

    def to_csv_lines(self) -> list[str]:
        lines = ["class,representative,degree"]
        for idx, (rep, deg) in enumerate(self.degrees):
            lines.append(f"{idx},{'.'.join(map(str, rep))},{deg}")
        return lines


def moduli_report(
    g: FiniteGroup,
    a: FreeAutomorphism,
    p: int = 0,
    surjective_only: bool = True,
    cap: int = DEFAULT_TUPLE_CAP,
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
    classes = enumerate_classes(g, a.d, surjective_only=surjective_only, cap=cap)
    index = {rep: i for i, rep in enumerate(classes)}
    form = conjugation_form(a)
    try:
        succ = [index[delta_on_class(rep, a, g, form=form)] for rep in classes]
    except KeyError:
        raise UnsupportedForm(
            "delta image left the enumerated class set; the automorphism "
            "does not preserve the product-one/generation constraints"
        ) from None
    if len(set(succ)) < len(succ):
        # Not a permutation, so some orbit would never close.
        raise UnsupportedForm("two classes have the same delta image; the map is not an automorphism")
    degrees = [0] * len(classes)
    for start in range(len(classes)):
        if degrees[start]:
            continue
        cycle = [start]
        while succ[cycle[-1]] != start:
            cycle.append(succ[cycle[-1]])
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
