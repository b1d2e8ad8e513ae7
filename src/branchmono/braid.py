"""Braid words and their action on free-group generators.

The generator b_i acts on loops by x_i -> x_i x_{i+1} x_i^-1 and
x_{i+1} -> x_i (conjugation inside the larger braid group).  That rule
extends to words as a group anti-homomorphism; ``braid_action`` turns it
into a homomorphism by letting the rightmost letter act first, which is
the single place this convention is fixed.  So if a braid word sends
(x_k, x_{k+1}) to (u, v), appending b_k changes only those two images, to
(u v u^-1, u), and appending b_k^-1 changes them to (v, v^-1 u v).
Equality of braids is always tested through the action, never through
normal forms.
"""

from __future__ import annotations

from typing import Iterable

from ._value import Value, _set
from .clusters import Cluster
from .errors import DimensionMismatch, IndexOutOfRange, IntervalOutOfRange, InvalidInput
from .freegroup import FreeAutomorphism, FreeWord, format_letters, parse_letters


class BraidWord(Value):
    """A word in the braid generators b_1..b_{strands-1} (signed indices)."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        letters = tuple(letters)
        if strands < 2:
            raise InvalidInput(f"braid group needs at least 2 strands, got {strands}")
        for x in letters:
            if x == 0 or abs(x) > strands - 1:
                raise IndexOutOfRange(f"braid letter {x} out of range for {strands} strands")
        _set(self, "strands", strands)
        _set(self, "letters", letters)

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    @classmethod
    def parse(cls, text: str, strands: int) -> "BraidWord":
        return cls(strands, tuple(parse_letters(text, symbol="b")))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise DimensionMismatch(f"strand mismatch {self.strands} != {other.strands}")
        return BraidWord(self.strands, self.letters + other.letters)

    def inv(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "BraidWord":
        base = self if n >= 0 else self.inv()
        return BraidWord(self.strands, base.letters * abs(n))

    def permutation(self) -> tuple[int, ...]:
        """Induced strand permutation; position k ends holding start strand perm[k]."""
        perm = list(range(self.strands))
        for x in self.letters:
            k = abs(x) - 1
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
        return tuple(perm)

    def is_pure(self) -> bool:
        return self.permutation() == tuple(range(self.strands))

    def __str__(self) -> str:
        return format_letters(self.letters, symbol="b")

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {format_letters(self.letters, 'b')!r})"


def braid_action(b: BraidWord) -> FreeAutomorphism:
    """The automorphism of the free group of rank ``b.strands`` induced by
    a braid word.

    Homomorphism convention: the rightmost letter acts first, so
    braid_action(u * v) = compose(braid_action(u), braid_action(v)).
    """
    d = b.strands
    images = [FreeWord.generator(j) for j in range(1, d + 1)]
    for letter in b.letters:
        k = abs(letter) - 1
        u, v = images[k], images[k + 1]
        if letter > 0:
            images[k], images[k + 1] = v.conjugated_by(u), u
        else:
            v_inv = tuple(-x for x in reversed(v.letters))
            images[k], images[k + 1] = v, FreeWord(v_inv + u.letters + v.letters)
    return FreeAutomorphism(d, tuple(images))


def _check_interval(m: int, l: int, d: int) -> None:
    if l < 2 or m < 1 or m + l - 1 > d:
        raise IntervalOutOfRange(
            f"interval [{m}, {m + l - 1}] (length {l}) does not fit in {d} strands"
        )


def lambda_braid(c: Cluster, d: int) -> BraidWord:
    """The pure braid (b_m ... b_{m+l-2})^l rotating the points of a cluster."""
    m, l = c.start, c.length
    _check_interval(m, l, d)
    block = tuple(range(m, m + l - 1))
    return BraidWord(d, block * l)


def half_twist(m: int, l: int, d: int) -> BraidWord:
    """The Garside half-twist of strands m..m+l-1,
    (b_m ... b_{m+l-2})(b_m ... b_{m+l-3}) ... (b_m).  It reverses the
    block, and its square is the full twist ``lambda_braid`` of the block."""
    _check_interval(m, l, d)
    return BraidWord(d, tuple(m + i for j in range(l - 1, 0, -1) for i in range(j)))
