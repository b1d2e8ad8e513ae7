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

from ._value import Value
from .errors import IndexOutOfRange, IntervalOutOfRange, InvalidInput
from .freegroup import FreeAutomorphism, FreeWord, format_letters


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
        super().__init__(strands, letters)

    def inv(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def __str__(self) -> str:
        return format_letters(self.letters, symbol="b")

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {format_letters(self.letters, 'b')!r})"


def braid_action(b: BraidWord) -> FreeAutomorphism:
    """The automorphism of the free group of rank ``b.strands`` induced by
    a braid word.

    Homomorphism convention: the rightmost letter acts first, so the
    action of the concatenation u v is compose(braid_action(u),
    braid_action(v)), for the composition by substitution
    ``tests/oracles.compose``.
    """
    d = b.strands
    images = [FreeWord.generator(j) for j in range(1, d + 1)]
    for letter in b.letters:
        k = abs(letter) - 1
        u, v = images[k], images[k + 1]
        if letter > 0:
            images[k], images[k + 1] = v.conjugated_by(u), u
        else:
            images[k], images[k + 1] = v, u.conjugated_by(v.inv())
    return FreeAutomorphism(d, tuple(images))


def half_twist(m: int, l: int, d: int) -> BraidWord:
    """The Garside half-twist of strands m..m+l-1,
    (b_m ... b_{m+l-2})(b_m ... b_{m+l-3}) ... (b_m).  It reverses the
    block, and its square is the full twist (b_m ... b_{m+l-2})^l."""
    if l < 2 or m < 1 or m + l - 1 > d:
        raise IntervalOutOfRange(
            f"interval [{m}, {m + l - 1}] (length {l}) does not fit in {d} strands"
        )
    return BraidWord(d, tuple(m + i for j in range(l - 1, 0, -1) for i in range(j)))
