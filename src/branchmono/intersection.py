"""Branch-point ingestion and the cluster tree of the intersection matrix.

Three input modes: exact rationals with a p-adic valuation, truncated
power series given by coefficient lists, or a raw matrix of valuations.
All arithmetic in this module is exact (``fractions.Fraction`` and plain
integers); nothing here touches floating point.  A JSON integer point
stays an ``int``, which reads as the equal Fraction does (numerator,
denominator, equality, hash and str), so ``fractions`` is imported only
when a rational string is read: integer and matrix input never load it,
nor the ``decimal`` and ``numbers`` it imports.

The paper's invariants depend only on the rooted tree of clusters, which
``IntersectionMatrix`` holds as the canonical leaf order and the d - 1
depths between consecutive leaves along it, and nothing else: the entry
of two leaves is the least depth between them.

- p-adic and series inputs are ingested as a trie in O(d * height), with
  no d^2 matrix: at each node one valuation (or first differing
  coefficient) per member gives the node's depth v, and the members split
  by their digit (or coefficient) at v.  A run of shared digits costs one
  valuation, not one level per digit.
- matrix input is split the same way, then validated in O(d^2) C-level
  comparisons: at each node v is the least entry of the first member's
  row, and the members split into the classes of e > v.  Along the order
  this gives, every entry must be the minimum of the consecutive depths
  between its two indices, which one slice count per run of constant
  running minimum checks.

The depth-first leaf order, with children by least original index, is
the canonical order: Prim's maximum-spanning order from index 1, least
index on ties.  ``canonical_order`` reindexes along it in O(d), since the
reindexed tree has the identity order and the same consecutive depths.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from ._value import Value
from .errors import (
    DuplicatePoint,
    IndistinguishableTruncation,
    InvalidInput,
    NonIntegralPoint,
    SizeLimit,
    UltrametricViolation,
)

if TYPE_CHECKING:
    from fractions import Fraction

MODES = ("padic", "series", "matrix")
# Longest repr of an input value that an error message echoes.
ECHO_LIMIT = 40


def _echo(value: Any) -> str:
    """repr(value), or str(value) for a rational (an int's str is its
    repr), cut to ECHO_LIMIT characters."""
    try:
        text = str(value) if hasattr(value, "denominator") else repr(value)
    except ValueError:  # an integer past the interpreter's limit for str()
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT]}... ({len(text)} chars)"


@functools.cache
def _fractions():
    """The ``fractions`` module, imported on first use.  An import
    statement inside ``parse_rational`` would cost about 1.3 µs a value,
    which nearly doubled the parsing of a series input."""
    import fractions

    return fractions


# Most decimal digits a rational string may expand to: its digits plus
# its exponent.  Fraction builds 10^exponent in full, and int() bounds
# only the digits, at 4300 each.
DIGIT_CAP = 20_000


# What a value that is not a rational is, by its type as ``json`` reads it.
_NOT_RATIONAL = {
    bool: "a JSON boolean",
    float: "floats are not accepted",
    dict: "a JSON object",
    list: "a JSON array",
    type(None): "JSON null",
}


def parse_rational(value: Any, **where: Any) -> Fraction:
    """Accept an int or an ``"a/b"`` / ``"a"`` string; floats are rejected
    to keep the arithmetic exact.  A string that is no rational, or a
    value of another type (its JSON type named), is InvalidInput, and a
    string past DIGIT_CAP is SizeLimit, with ``cap`` in its details.  Each
    error's details hold ``where``: the caller's keys naming the value's
    place in its document."""
    fractions = _fractions()
    if isinstance(value, int) and not isinstance(value, bool):
        return fractions.Fraction(value)
    if isinstance(value, str):
        try:
            m = fractions._RATIONAL_FORMAT.match(value)  # the grammar Fraction reads
            if m and m["exp"]:
                digits = len((m["num"] + (m["decimal"] or "")).replace("_", "")) + abs(int(m["exp"]))
                if digits > DIGIT_CAP:
                    raise SizeLimit(
                        f"rational {_echo(value)} has more digits than the cap {DIGIT_CAP}", cap=DIGIT_CAP, **where
                    )
            return fractions.Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse rational {_echo(value)}", **where) from exc
    kind = _NOT_RATIONAL.get(type(value), f"a {type(value).__name__}")
    raise InvalidInput(f"not a rational: {_echo(value)} ({kind})", **where)


# Miller–Rabin with the first 13 primes as bases is proven exact below
# this bound (Sorenson and Webster, 2015); larger n are refused.
PRIME_CAP = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin test; raises SizeLimit for n >= PRIME_CAP."""
    if n >= PRIME_CAP:
        raise SizeLimit(
            f"a {n.bit_length()}-bit integer is past the primality test's cap {PRIME_CAP}",
            cap=PRIME_CAP,
        )
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_fraction(value: Any) -> bool:
    return isinstance(value, _fractions().Fraction)


def _is_array(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _is_array_of_arrays(value: Any) -> bool:
    return _is_array(value) and all(_is_array(row) for row in value)


class BranchInput(Value):
    """Validated branch-point data in one of the three input modes."""

    __slots__ = ("mode", "p", "points", "matrix", "truncation")

    def __init__(
        self,
        mode: str,
        p: Optional[int] = None,
        points: tuple = (),
        matrix: Optional[tuple[tuple[int, ...], ...]] = None,
        truncation: Optional[int] = None,
    ):
        if mode not in MODES:
            raise InvalidInput(f"unknown mode {_echo(mode)}; expected one of {MODES}")
        if p is not None and not is_prime(p):
            raise InvalidInput(f"p = {p} is not prime")
        super().__init__(mode, p, points, matrix, truncation)
        getattr(self, f"_check_{mode}")()

    @property
    def d(self) -> int:
        if self.mode == "matrix":
            assert self.matrix is not None
            return len(self.matrix)
        return len(self.points)

    def _check_common_size(self, d: int) -> None:
        if d < 2:
            raise InvalidInput(f"need at least 2 branch points, got {d}")

    def _check_padic(self) -> None:
        self._check_common_size(len(self.points))
        if self.p is None:
            raise InvalidInput("padic mode requires a prime p")
        seen: dict[int | Fraction, int] = {}
        for idx, x in enumerate(self.points, start=1):
            if type(x) is not int and not _is_fraction(x):
                raise InvalidInput(f"point {idx} is not an exact rational")
            if x.denominator % self.p == 0:  # reduced, so v_p(x) < 0
                raise NonIntegralPoint(f"point {idx} = {_echo(x)} has v_{self.p} < 0")
            if x in seen:
                raise DuplicatePoint(f"points {seen[x]} and {idx} coincide")
            seen[x] = idx

    def _check_series(self) -> None:
        Fraction = _fractions().Fraction
        self._check_common_size(len(self.points))
        t = self.truncation
        if not isinstance(t, int) or isinstance(t, bool) or t < 1:
            raise InvalidInput(f"series mode requires an integer truncation T >= 1, got {_echo(t)}")
        for idx, coeffs in enumerate(self.points, start=1):
            if len(coeffs) != self.truncation:
                raise InvalidInput(
                    f"series {idx} has {len(coeffs)} coefficients, expected T = {self.truncation}"
                )
            if not all(isinstance(c, Fraction) for c in coeffs):
                raise InvalidInput(f"series {idx} has a non-rational coefficient")
        # Pairwise distinguishability is checked in compute_matrix, where the
        # offending pair can be reported with its valuation lower bound.

    def _check_matrix(self) -> None:
        # The entries are checked once, by IntersectionMatrix.
        if self.matrix is None:
            raise InvalidInput("matrix mode requires a matrix")
        self._check_common_size(len(self.matrix))

    @property
    def labels(self) -> tuple[str, ...]:
        """The points as printed: p-adic ones as rationals, the others as
        P1..Pd.  Built when read, so commands that print none take any point."""
        if self.mode != "padic":
            return tuple(f"P{i}" for i in range(1, self.d + 1))
        labels = []
        for idx, x in enumerate(self.points, start=1):
            try:
                labels.append(str(x))
            except ValueError:  # past the interpreter's limit for str()
                raise InvalidInput(
                    f"point {idx} = {_echo(x)} has no default label", point=idx
                ) from None
        return tuple(labels)

    @classmethod
    def from_json_dict(cls, obj: Mapping[str, Any]) -> "BranchInput":
        if not isinstance(obj, Mapping):
            raise InvalidInput("branch input must be a JSON object")
        mode = obj.get("mode")
        if mode not in MODES:
            raise InvalidInput(f"missing or unknown mode {_echo(mode)}")
        p = obj.get("p")
        if p is not None and (not isinstance(p, int) or isinstance(p, bool)):
            raise InvalidInput(f"p must be an integer, got {_echo(p)}")
        if mode == "padic":
            pts = obj.get("points")
            if not _is_array(pts):
                raise InvalidInput("padic mode requires a points array")
            # An integer point stays an int, so integer input never imports fractions.
            points: tuple = tuple(
                x if type(x) is int else parse_rational(x, point=i) for i, x in enumerate(pts, 1)
            )
            return cls(mode=mode, p=p, points=points)
        if mode == "series":
            pts = obj.get("points")
            if not _is_array_of_arrays(pts):
                raise InvalidInput("series mode requires an array of coefficient arrays")
            points = tuple(
                tuple(parse_rational(c, point=i, coefficient=k) for k, c in enumerate(row))
                for i, row in enumerate(pts, 1)
            )
            truncation = obj.get("truncation")
            return cls(mode=mode, p=p, points=points, truncation=truncation)
        mat = obj.get("matrix")
        if not _is_array_of_arrays(mat):
            raise InvalidInput("matrix mode requires a matrix array of arrays")
        matrix = tuple(map(tuple, mat))
        return cls(mode=mode, p=p, matrix=matrix)


class IntersectionMatrix(Value):
    """The cluster tree of a symmetric matrix of pairwise intersection
    multiplicities.

    ``order`` is the canonical leaf order (1-based): Prim's
    maximum-spanning order from index 1, least index on ties.  On an
    ultrametric it is the lexicographically least order that makes every
    cluster an interval.  ``steps`` holds the d - 1 depths between
    consecutive leaves along ``order``; the entry of two leaves is the
    least step between them.

    ``IntersectionMatrix(d, e)`` validates a full matrix: every entry a
    nonnegative integer, symmetry, and the ultrametric two-minima rule
    (among e_ij, e_ik, e_jk the minimum is attained at least twice), with
    the diagonal ignored; only the tree is kept, split top down.  A
    failure names the first violating triple.  ``from_tree`` builds one
    from the tree alone.
    """

    __slots__ = ("d", "order", "steps")

    def __init__(self, d: int, e: tuple[tuple[int, ...], ...]):
        if d < 2 or len(e) != d:
            raise InvalidInput(f"bad matrix shape for d = {d}")
        for i, row in enumerate(e):
            if len(row) != d:
                raise InvalidInput(f"row {i + 1} has wrong length {len(row)}, expected {d}")
        for i, row in enumerate(e):
            if set(map(type, row)) != {int} or min(row) < 0:
                for j, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                        raise InvalidInput(f"entry ({i + 1},{j + 1}) must be a nonnegative integer")
        rows = tuple(map(tuple, e))  # no check reads the diagonal
        if rows != tuple(zip(*rows)):
            i, j = next((i, j) for i in range(d) for j in range(i + 1, d) if rows[i][j] != rows[j][i])
            raise InvalidInput(f"matrix not symmetric at ({i + 1},{j + 1})")
        tree = _trie(d, _matrix_split(rows))
        # Along any order, each entry being the least consecutive step
        # between its indices forces the ultrametric rule; on an ultrametric
        # the trie's order passes.  nxt[s] is the first step after s that is
        # smaller than step s, so the running minimum is constant from s to it.
        order, steps = [i - 1 for i in tree.order], tree.steps
        get = itemgetter(*order)
        prows = [get(rows[a]) for a in order]
        nxt, stack = [d - 1] * (d - 1), []
        for t, x in enumerate(steps):
            while stack and steps[stack[-1]] > x:
                nxt[stack.pop()] = t
            stack.append(t)
        for s, r in enumerate(prows):
            while s < d - 1:
                t = nxt[s]
                if r[s + 1 : t + 1].count(steps[s]) != t - s:
                    _raise_first_violation(rows)
                s = t
        super().__init__(d, tree.order, steps)

    @classmethod
    def from_tree(cls, order: Sequence[int], steps: Sequence[int]) -> "IntersectionMatrix":
        """The matrix whose canonical leaf order is ``order`` (1-based) and
        whose consecutive depths along it are ``steps``, trusted to be
        such."""
        m = object.__new__(cls)
        Value.__init__(m, len(order), tuple(order), tuple(steps))
        return m


def _raise_first_violation(e: tuple[tuple[int, ...], ...]) -> None:
    d = len(e)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                trio = (e[i][j], e[i][k], e[j][k])
                if sorted(trio)[0] != sorted(trio)[1]:
                    raise UltrametricViolation(
                        "minimum attained only once on triple "
                        f"({i + 1},{j + 1},{k + 1}): e = {trio}",
                        triple=[i + 1, j + 1, k + 1],
                    )


def _valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer.  Dividing by p, p^2, p^4, ... in turn
    makes a valuation v cost O(log(v)^2) divisions, not v."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        q, k = p, 1
        while True:
            quotient, rem = divmod(n, q)
            if rem:
                break
            n, v, q, k = quotient, v + k, q * q, 2 * k
    return v


# split(members, floor) -> (v, keys): the depth v of a trie node whose
# members (original 0-based indices, increasing) agree below floor, and
# each member's key at v, equal keys for members that agree through v.
Split = Callable[[list[int], int], tuple[int, list[Any]]]


def _trie(d: int, split: Split) -> IntersectionMatrix:
    """The tree of the trie that ``split`` describes: its leaf order and
    consecutive depths, with children by least index, depth first and
    without recursion.  Each child but the first joins its left neighbour at its
    parent's depth; the first inherits its parent's join."""
    order: list[int] = []
    steps: list[int] = []
    # (members, depth joining the first leaf to the leaf before it, floor)
    todo: list[tuple[list[int], int, int]] = [(list(range(d)), 0, 0)]
    while todo:
        members, join, floor = todo.pop()
        if len(members) == 1:
            if order:
                steps.append(join)
            order.append(members[0] + 1)
            continue
        v, keys = split(members, floor)
        children: dict[Any, list[int]] = {}
        for i, key in zip(members, keys):
            children.setdefault(key, []).append(i)
        first, *rest = children.values()
        todo.extend((child, v, v + 1) for child in reversed(rest))
        todo.append((first, join, v + 1))
    return IntersectionMatrix.from_tree(order, steps)


def _padic_split(points: Sequence[int | Fraction], p: int) -> Split:
    """Write x = a/b with p not dividing b.  A node's depth is the least
    v_p(a_i b_0 - a_0 b_i) over its members; as b_i b_0 is a unit, the
    digit at v of x_i - x_0 is that difference over p^v, times
    (b_i b_0)^-1, mod p.  The keys drop the common unit b_0^-1."""
    nums = [x.numerator for x in points]
    dens = [x.denominator for x in points]

    def split(members: list[int], floor: int) -> tuple[int, list[int]]:
        a0, b0 = nums[members[0]], dens[members[0]]
        rest = members[1:]
        diffs = [nums[i] * b0 - a0 * dens[i] for i in rest]
        v = min(_valuation(n, p) for n in diffs)
        pv = p**v
        return v, [0] + [n // pv * pow(dens[i], -1, p) % p for i, n in zip(rest, diffs)]

    return split


def _series_split(points: Sequence[Sequence[Fraction]], t: int) -> Split:
    """A node's depth is the least index, from its floor on, at which a
    member's coefficients differ from its first member's; the key is the
    coefficient there.  No two series may agree through all t."""

    def split(members: list[int], floor: int) -> tuple[int, list[Fraction]]:
        c0 = points[members[0]]
        v = min(next(n for n in range(floor, t) if points[i][n] != c0[n]) for i in members[1:])
        return v, [points[i][v] for i in members]

    return split


def _matrix_split(rows: tuple[tuple[int, ...], ...]) -> Split:
    """A node's depth is the least entry of its first member's row within
    it, v; its members split into the classes of e > v, each keyed by its
    least member.  On an ultrametric these are the node's children; on any
    matrix the first member's class leaves one out, so the split ends."""

    def split(members: list[int], floor: int) -> tuple[int, list[int]]:
        v = min(map(rows[members[0]].__getitem__, members[1:]))
        lead, rest = {}, members
        while rest:
            row = rows[rest[0]]
            lead[rest[0]] = rest[0]
            lead.update(dict.fromkeys([b for b in rest[1:] if row[b] > v], rest[0]))
            rest = [b for b in rest[1:] if row[b] <= v]
        return v, [lead[i] for i in members]

    return split


def compute_matrix(binput: BranchInput) -> IntersectionMatrix:
    """The cluster tree of the pairwise valuations of differences, read off
    a trie; a matrix is then checked against its tree."""
    if binput.mode == "matrix":
        assert binput.matrix is not None
        return IntersectionMatrix(binput.d, binput.matrix)
    if binput.mode == "padic":
        assert binput.p is not None
        return _trie(binput.d, _padic_split(binput.points, binput.p))
    t = binput.truncation
    assert t is not None
    # Equal series have no depth.  Name the pair a scan of i < j would meet
    # first: the two least indices of the group whose least index is least.
    first: dict[tuple, int] = {}
    ties = []
    for j, coeffs in enumerate(binput.points):
        i = first.setdefault(tuple(coeffs), j)
        if i != j:
            ties.append((i, j))
    if ties:
        i, j = min(ties)
        raise IndistinguishableTruncation(
            f"series {i + 1} and {j + 1} agree through all {t} coefficients; "
            f"only v >= {t} is known",
            pair=[i + 1, j + 1],
            truncation=t,
        )
    return _trie(binput.d, _series_split(binput.points, t))


def satisfies_interval_hypothesis(m: IntersectionMatrix) -> bool:
    """Rows weakly decreasing right of the diagonal (every maximal cluster an
    interval); the identity, the least order, is then the canonical one."""
    return m.order == tuple(range(1, m.d + 1))


def canonical_order(m: IntersectionMatrix) -> tuple[tuple[int, ...], IntersectionMatrix]:
    """Reorder indices so every cluster becomes a contiguous interval.

    Returns (sigma, reindexed matrix) where sigma lists original 1-based
    indices in their new order; among all valid leaf orders of the nesting
    tree, sigma is the lexicographically least, so an already-valid matrix
    gets the identity.

    The reindexed matrix is built from the tree in O(d): along sigma it
    has the same consecutive depths, and since sigma is the least
    canonical order, the identity is the reindexed matrix's own.
    """
    return m.order, IntersectionMatrix.from_tree(tuple(range(1, m.d + 1)), m.steps)
