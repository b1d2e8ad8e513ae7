"""Reduced words in a free group and generator-wise automorphisms.

Words are tuples of signed indices: +i is the generator x_i, -i its
inverse.  Every word is stored freely reduced.  The constructor is the one
entry point for raw letters: it checks and reduces them one by one.  The
words built from words (``inv``, ``product``, ``conjugated_by``) skip that
pass: the inverse of a reduced word is reduced, and reduced words cancel
only where they meet (Lyndon and Schupp, *Combinatorial Group Theory*,
I.1).  Automorphisms are given by the images of x_1..x_d.
Whether two automorphisms differ by an inner one is decided by
``topocheck.is_inner_shift``, its one caller's module.
"""

from __future__ import annotations

from itertools import chain
from operator import neg
from typing import Iterable, Optional, Sequence

from ._value import Value
from .errors import DimensionMismatch, IndexOutOfRange, InvalidInput


def letter_names(letters: Iterable[int], symbol: str = "x") -> dict[int, str]:
    """The name of each distinct letter: ``x3`` for 3, ``x3^-1`` for -3."""
    return {x: f"{symbol}{x}" if x > 0 else f"{symbol}{-x}^-1" for x in set(letters)}


def format_letters(letters: Sequence[int], symbol: str = "x", names: Optional[dict[int, str]] = None) -> str:
    """Render signed letters in the canonical ``x1*x2^-1`` syntax, each
    looked up in ``names`` (by default, the table of their own names)."""
    if names is None:
        names = letter_names(letters, symbol)
    return "*".join(map(names.__getitem__, letters)) or "1"


class FreeWord(Value):
    """A freely reduced word; the constructor reduces its input."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        out: list[int] = []
        for x in letters:
            if not isinstance(x, int) or x == 0:
                raise InvalidInput(f"invalid letter {x!r} in word")
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        super().__init__(tuple(out))

    @classmethod
    def _reduced(cls, letters: tuple[int, ...]) -> "FreeWord":
        """The word of letters already checked and freely reduced."""
        w = object.__new__(cls)
        Value.__init__(w, letters)
        return w

    @classmethod
    def generator(cls, i: int) -> "FreeWord":
        return cls((i,))

    @classmethod
    def product(cls, *words: "FreeWord") -> "FreeWord":
        """The reduced product of reduced words, left to right.  Each word
        cancels against the end of the product so far, which may cascade
        into earlier words; the letters past that are copied whole."""
        out: list[int] = []
        for w in words:
            letters = w.letters
            if out and letters and out[-1] == -letters[0]:
                k, n = 1, min(len(out), len(letters))
                while k < n and out[-1 - k] == -letters[k]:
                    k += 1
                del out[-k:]
                letters = letters[k:]
            out += letters
        return cls._reduced(tuple(out))

    def inv(self) -> "FreeWord":
        return FreeWord._reduced(tuple(map(neg, reversed(self.letters))))

    def conjugated_by(self, g: "FreeWord") -> "FreeWord":
        """g * self * g^-1."""
        return FreeWord.product(g, self, g.inv())

    def max_index(self) -> int:
        return max(map(abs, self.letters), default=0)

    def cyclic_decomposition(self) -> tuple["FreeWord", "FreeWord"]:
        """Split ``self`` as u * core * u^-1 with the core cyclically reduced."""
        letters = self.letters
        lo, hi = 0, len(letters)
        while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
            lo += 1
            hi -= 1
        return FreeWord._reduced(letters[:lo]), FreeWord._reduced(letters[lo:hi])

    def __str__(self) -> str:
        return format_letters(self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({format_letters(self.letters)!r})"


class FreeAutomorphism(Value):
    """An endomorphism of the free group of rank d given on generators.

    All instances produced by the monodromy pipeline are automorphisms
    sending each generator to a conjugate of itself; the type itself does
    not enforce invertibility.
    """

    __slots__ = ("d", "images")

    def __init__(self, d: int, images: tuple[FreeWord, ...]):
        if len(images) != d:
            raise DimensionMismatch(f"expected {d} images, got {len(images)}")
        if max(map(abs, chain.from_iterable(w.letters for w in images)), default=0) > d:
            w = next(w for w in images if w.max_index() > d)
            raise IndexOutOfRange(f"image {w} uses a generator beyond rank {d}")
        super().__init__(d, images)
