"""Reduced words in a free group and generator-wise automorphisms.

Words are tuples of signed indices: +i is the generator x_i, -i its
inverse.  Every word is stored freely reduced; reduction happens in the
constructor.  Automorphisms are given by the images of x_1..x_d.
Whether two automorphisms differ by an inner one is decided by
``topocheck.is_inner_shift``, its one caller's module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._value import Value
from .errors import DimensionMismatch, IndexOutOfRange, InvalidInput


def format_letters(letters: Sequence[int], symbol: str = "x") -> str:
    """Render signed letters in the canonical ``x1*x2^-1`` syntax."""
    if not letters:
        return "1"
    parts = []
    for x in letters:
        parts.append(f"{symbol}{x}" if x > 0 else f"{symbol}{-x}^-1")
    return "*".join(parts)


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
    def generator(cls, i: int) -> "FreeWord":
        return cls((i,))

    def inv(self) -> "FreeWord":
        return FreeWord(tuple(-x for x in reversed(self.letters)))

    def conjugated_by(self, g: "FreeWord") -> "FreeWord":
        """g * self * g^-1."""
        return FreeWord(g.letters + self.letters + tuple(-x for x in reversed(g.letters)))

    def max_index(self) -> int:
        return max((abs(x) for x in self.letters), default=0)

    def cyclic_decomposition(self) -> tuple["FreeWord", "FreeWord"]:
        """Split ``self`` as u * core * u^-1 with the core cyclically reduced."""
        letters = list(self.letters)
        lo, hi = 0, len(letters)
        while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
            lo += 1
            hi -= 1
        return FreeWord(tuple(letters[:lo])), FreeWord(tuple(letters[lo:hi]))

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
        for w in images:
            if w.max_index() > d:
                raise IndexOutOfRange(f"image {w} uses a generator beyond rank {d}")
        super().__init__(d, images)
