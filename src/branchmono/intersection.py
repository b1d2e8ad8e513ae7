"""Branch-point ingestion and the pairwise intersection matrix.

Three input modes: exact rationals with a p-adic valuation, truncated
power series given by coefficient lists, or a raw matrix of valuations.
All arithmetic in this module is exact (``fractions.Fraction``); nothing
here touches floating point.

The matrix computes its canonical leaf order once, on construction, and
validates the ultrametric rule along it in O(d^2); ``canonical_order``,
``satisfies_interval_hypothesis`` and the cluster layer read that order.
``canonical_order`` permutes the validated matrix without validating it
again: permuting indices keeps every entry and every triple, so the rules
still hold, and the least canonical order of the result is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Any, Mapping, Optional, Sequence

from .errors import (
    DuplicatePoint,
    IndistinguishableTruncation,
    InvalidInput,
    NonIntegralPoint,
    SizeLimit,
    UltrametricViolation,
)

MODES = ("padic", "series", "matrix")
# Longest repr of an input value that an error message echoes.
ECHO_LIMIT = 40


def _echo(value: Any) -> str:
    """repr(value), or str(value) for a Fraction, cut to ECHO_LIMIT characters."""
    try:
        text = str(value) if isinstance(value, Fraction) else repr(value)
    except ValueError:  # an integer past the interpreter's limit for str()
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT]}... ({len(text)} chars)"


def parse_rational(value: Any) -> Fraction:
    """Accept an int or an ``"a/b"`` / ``"a"`` string; floats are rejected
    to keep the arithmetic exact."""
    if isinstance(value, bool):
        raise InvalidInput(f"not a rational: {_echo(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse rational {_echo(value)}") from exc
    raise InvalidInput(f"not a rational: {_echo(value)} (floats are not accepted)")


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _is_array(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _is_array_of_arrays(value: Any) -> bool:
    return _is_array(value) and all(_is_array(row) for row in value)


@dataclass(frozen=True)
class BranchInput:
    """Validated branch-point data in one of the three input modes."""

    mode: str
    p: Optional[int] = None
    points: tuple = ()
    matrix: Optional[tuple[tuple[int, ...], ...]] = None
    truncation: Optional[int] = None
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInput(f"unknown mode {_echo(self.mode)}; expected one of {MODES}")
        if self.p is not None and not is_prime(self.p):
            raise InvalidInput(f"p = {self.p} is not prime")
        getattr(self, f"_check_{self.mode}")()
        if not self.labels:
            object.__setattr__(self, "labels", self._default_labels())

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
        seen: dict[Fraction, int] = {}
        for idx, x in enumerate(self.points, start=1):
            if not isinstance(x, Fraction):
                raise InvalidInput(f"point {idx} is not an exact rational")
            if x != 0 and padic_valuation(x, self.p) < 0:
                raise NonIntegralPoint(
                    f"point {idx} = {format_rational(x)} has v_{self.p} < 0"
                )
            if x in seen:
                raise DuplicatePoint(f"points {seen[x]} and {idx} coincide")
            seen[x] = idx

    def _check_series(self) -> None:
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

    def _default_labels(self) -> tuple[str, ...]:
        if self.mode == "padic":
            return tuple(format_rational(x) for x in self.points)
        return tuple(f"P{i}" for i in range(1, self.d + 1))

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
            points: tuple = tuple(parse_rational(x) for x in pts)
            return cls(mode=mode, p=p, points=points)
        if mode == "series":
            pts = obj.get("points")
            if not _is_array_of_arrays(pts):
                raise InvalidInput("series mode requires an array of coefficient arrays")
            points = tuple(tuple(parse_rational(c) for c in row) for row in pts)
            truncation = obj.get("truncation")
            return cls(mode=mode, p=p, points=points, truncation=truncation)
        mat = obj.get("matrix")
        if not _is_array_of_arrays(mat):
            raise InvalidInput("matrix mode requires a matrix array of arrays")
        matrix = tuple(tuple(v for v in row) for row in mat)
        return cls(mode=mode, p=p, matrix=matrix)


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric matrix of pairwise intersection multiplicities.

    Validated on construction: every entry a nonnegative integer, symmetry,
    and the ultrametric two-minima rule (among e_ij, e_ik, e_jk the minimum
    is attained at least twice).  The diagonal's values are ignored and
    stored as 0.

    ``order`` is the canonical leaf order (1-based), computed once as
    Prim's maximum-spanning order from index 1, least index on ties.  On
    an ultrametric it is the lexicographically least order that makes
    every cluster an interval.
    """

    d: int
    e: tuple[tuple[int, ...], ...]
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 2 or len(self.e) != self.d:
            raise InvalidInput(f"bad matrix shape for d = {self.d}")
        for i, row in enumerate(self.e):
            if len(row) != self.d:
                raise InvalidInput(f"row {i + 1} has wrong length {len(row)}, expected {self.d}")
        for i, row in enumerate(self.e):
            if set(map(type, row)) != {int} or min(row) < 0:
                for j, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                        raise InvalidInput(f"entry ({i + 1},{j + 1}) must be a nonnegative integer")
        rows = tuple((*row[:i], 0, *row[i + 1 :]) for i, row in enumerate(self.e))
        if rows != tuple(zip(*rows)):
            d = self.d
            i, j = next((i, j) for i in range(d) for j in range(i + 1, d) if rows[i][j] != rows[j][i])
            raise InvalidInput(f"matrix not symmetric at ({i + 1},{j + 1})")
        object.__setattr__(self, "e", rows)
        order, rest, key = [0], list(range(1, self.d)), list(self.e[0])
        while rest:
            order.append(max(rest, key=key.__getitem__))
            rest.remove(order[-1])
            key = [max(k, v) for k, v in zip(key, self.e[order[-1]])]
        object.__setattr__(self, "order", tuple(i + 1 for i in order))
        # Ultrametric iff each entry is the minimum of the consecutive entries
        # between its indices in this order; the triple scan names a triple.
        for p, a in enumerate(order):
            for b, c in zip(order[p + 1 :], order[p + 2 :]):
                if self.e[a][c] != min(self.e[a][b], self.e[b][c]):
                    self._raise_first_violation()

    @classmethod
    def _trusted(cls, e: tuple[tuple[int, ...], ...]) -> "IntersectionMatrix":
        """A matrix already known to be a valid ultrametric (zero diagonal)
        in canonical order, built without ``__post_init__``."""
        m = object.__new__(cls)
        object.__setattr__(m, "d", len(e))
        object.__setattr__(m, "e", e)
        object.__setattr__(m, "order", tuple(range(1, len(e) + 1)))
        return m

    def _raise_first_violation(self) -> None:
        for i in range(self.d):
            for j in range(i + 1, self.d):
                for k in range(j + 1, self.d):
                    trio = (self.e[i][j], self.e[i][k], self.e[j][k])
                    if sorted(trio)[0] != sorted(trio)[1]:
                        raise UltrametricViolation(
                            "minimum attained only once on triple "
                            f"({i + 1},{j + 1},{k + 1}): e = {trio}",
                            triple=[i + 1, j + 1, k + 1],
                        )

    def entry(self, i: int, j: int) -> int:
        """1-based access."""
        return self.e[i - 1][j - 1]

    def max_depth(self) -> int:
        return max(
            (self.e[i][j] for i in range(self.d) for j in range(i + 1, self.d)),
            default=0,
        )


def compute_matrix(binput: BranchInput) -> IntersectionMatrix:
    """Pairwise valuations of differences, per input mode."""
    d = binput.d
    if binput.mode == "matrix":
        assert binput.matrix is not None
        return IntersectionMatrix(d, binput.matrix)
    e = [[0] * d for _ in range(d)]
    if binput.mode == "padic":
        assert binput.p is not None
        for i in range(d):
            for j in range(i + 1, d):
                diff = binput.points[i] - binput.points[j]
                e[i][j] = e[j][i] = padic_valuation(diff, binput.p)
        return IntersectionMatrix(d, tuple(tuple(r) for r in e))
    # series mode: least index with differing coefficients
    t = binput.truncation
    assert t is not None
    for i in range(d):
        for j in range(i + 1, d):
            val = next(
                (
                    n
                    for n in range(t)
                    if binput.points[i][n] != binput.points[j][n]
                ),
                None,
            )
            if val is None:
                raise IndistinguishableTruncation(
                    f"series {i + 1} and {j + 1} agree through all {t} coefficients; "
                    f"only v >= {t} is known",
                    pair=[i + 1, j + 1],
                    truncation=t,
                )
            e[i][j] = e[j][i] = val
    return IntersectionMatrix(d, tuple(tuple(r) for r in e))


def satisfies_interval_hypothesis(m: IntersectionMatrix) -> bool:
    """Rows weakly decreasing right of the diagonal (every maximal cluster an
    interval); the identity, the least order, is then the canonical one."""
    return m.order == tuple(range(1, m.d + 1))


def _permuted_rows(m: IntersectionMatrix, sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of m with position k holding original index sigma[k-1] (1-based)."""
    idx = [s - 1 for s in sigma]
    pick = itemgetter(*idx)  # d >= 2, so pick returns a tuple
    return tuple(pick(m.e[i]) for i in idx)


def reindex(m: IntersectionMatrix, sigma: Sequence[int]) -> IntersectionMatrix:
    """Reindexed matrix; new position k holds original index sigma[k-1] (1-based)."""
    if sorted(sigma) != list(range(1, m.d + 1)):
        raise InvalidInput(f"{sigma} is not a permutation of 1..{m.d}")
    return IntersectionMatrix(m.d, _permuted_rows(m, sigma))


def depth_partition(m: IntersectionMatrix, block: Sequence[int], n: int) -> list[list[int]]:
    """Split a block (0-based indices) into classes of the relation e >= n,
    which is transitive by ultrametricity.  Classes sorted by least element."""
    remaining = sorted(block)
    classes: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        cls = [seed]
        rest = []
        for j in remaining:
            if m.e[seed][j] >= n:
                cls.append(j)
            else:
                rest.append(j)
        remaining = rest
        classes.append(sorted(cls))
    return classes


def canonical_order(m: IntersectionMatrix) -> tuple[tuple[int, ...], IntersectionMatrix]:
    """Reorder indices so every cluster becomes a contiguous interval.

    Returns (sigma, reindexed matrix) where sigma lists original 1-based
    indices in their new order; among all valid leaf orders of the nesting
    tree, sigma is the lexicographically least, so an already-valid matrix
    gets the identity.

    The reindexed matrix is not validated again, as ``reindex`` would: a
    permutation of a validated ultrametric is still symmetric, nonnegative
    and ultrametric, and since sigma is the least canonical order, the
    identity is the reindexed matrix's own.
    """
    return m.order, IntersectionMatrix._trusted(_permuted_rows(m, m.order))
