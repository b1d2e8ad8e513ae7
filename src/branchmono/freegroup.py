"""Reduced words in a free group and generator-wise automorphisms.

Words are tuples of signed indices: +i is the generator x_i, -i its
inverse.  Every word is stored freely reduced; reduction happens in the
constructor.  Automorphisms are given by the images of x_1..x_d and are
composed by substitution.  ``is_inner_shift`` decides whether two
automorphisms differ by a single inner automorphism.  That is exact here
because all images this package produces are conjugates of generators:
x_1's image fixes every conjugator up to a power of one generator x_k,
and in x_1's conjugation frame each image either rejects, leaves the
power free or pins it, read off its maximal x_k powers at both ends.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Sequence

from . import _kernels
from ._value import Value, _set
from .errors import DimensionMismatch, IndexOutOfRange, InvalidInput, UnsupportedForm

_TOKEN = re.compile(r"^([A-Za-z]+)(\d+)(?:\^(-?\d+))?$")


def format_letters(letters: Sequence[int], symbol: str = "x") -> str:
    """Render signed letters in the canonical ``x1*x2^-1`` syntax."""
    if not letters:
        return "1"
    parts = []
    for x in letters:
        parts.append(f"{symbol}{x}" if x > 0 else f"{symbol}{-x}^-1")
    return "*".join(parts)


def parse_letters(text: str, symbol: str = "x") -> list[int]:
    """Parse the canonical word syntax; ``1`` (or empty) is the identity.

    Arbitrary integer exponents are accepted on input, though output only
    ever uses ``^-1``.
    """
    text = text.strip()
    if text in ("", "1"):
        return []
    letters: list[int] = []
    for token in text.split("*"):
        m = _TOKEN.match(token.strip())
        if not m or m.group(1) != symbol:
            raise InvalidInput(f"cannot parse word token {token!r} (expected e.g. {symbol}2 or {symbol}2^-1)")
        idx = int(m.group(2))
        if idx < 1:
            raise InvalidInput(f"generator index must be >= 1 in token {token!r}")
        exp = int(m.group(3)) if m.group(3) is not None else 1
        letters.extend([idx if exp > 0 else -idx] * abs(exp))
    return letters


class FreeWord(Value):
    """A freely reduced word; the constructor reduces its input."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for x in letters:
            if not isinstance(x, int) or x == 0:
                raise InvalidInput(f"invalid letter {x!r} in word")
        _set(self, "letters", tuple(_kernels.reduce_word(letters)))

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def generator(cls, i: int) -> "FreeWord":
        return cls((i,))

    @classmethod
    def parse(cls, text: str) -> "FreeWord":
        return cls(tuple(parse_letters(text)))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inv(self) -> "FreeWord":
        return FreeWord(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        base = self if n >= 0 else self.inv()
        return FreeWord(base.letters * abs(n))

    def conjugated_by(self, g: "FreeWord") -> "FreeWord":
        """g * self * g^-1."""
        return FreeWord(g.letters + self.letters + tuple(-x for x in reversed(g.letters)))

    def is_identity(self) -> bool:
        return not self.letters

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

    def is_conjugate_of_generator(self, i: int) -> bool:
        """Whether the word is w * x_i * w^-1 for some w."""
        _, core = self.cyclic_decomposition()
        return core.letters == (i,)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

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
        _set(self, "d", d)
        _set(self, "images", images)

    @classmethod
    def identity(cls, d: int) -> "FreeAutomorphism":
        return cls(d, tuple(FreeWord.generator(i) for i in range(1, d + 1)))

    def is_identity(self) -> bool:
        return all(w.letters == (i + 1,) for i, w in enumerate(self.images))

    def apply(self, w: FreeWord) -> FreeWord:
        """Substitute each letter's image (reversed and negated for an
        inverse letter); the constructor reduces the result once."""
        if w.max_index() > self.d:
            raise DimensionMismatch(f"word {w} does not fit in rank {self.d}")
        letters: list[int] = []
        for x in w.letters:
            img = self.images[abs(x) - 1].letters
            letters.extend(img if x > 0 else (-y for y in reversed(img)))
        return FreeWord(tuple(letters))

    def __str__(self) -> str:
        return ", ".join(f"x{i + 1} -> {w}" for i, w in enumerate(self.images))


def compose(a: FreeAutomorphism, b: FreeAutomorphism) -> FreeAutomorphism:
    """a after b: (a . b)(x_i) = a(b(x_i))."""
    if a.d != b.d:
        raise DimensionMismatch(f"rank mismatch {a.d} != {b.d}")
    return FreeAutomorphism(a.d, tuple(a.apply(w) for w in b.images))


def inner(g: FreeWord, d: int) -> FreeAutomorphism:
    """The inner automorphism x -> g x g^-1."""
    if g.max_index() > d:
        raise DimensionMismatch(f"conjugator {g} does not fit in rank {d}")
    return FreeAutomorphism(d, tuple(FreeWord.generator(i).conjugated_by(g) for i in range(1, d + 1)))


def _frame(a: FreeAutomorphism) -> tuple[tuple[int, ...], int]:
    """(u, k) with a(x_1) = u * x_k^+-1 * u^-1; UnsupportedForm unless
    every image is a conjugate of a generator."""
    frame = None
    for i, w in enumerate(a.images):
        u, core = w.cyclic_decomposition()
        if len(core.letters) != 1:
            raise UnsupportedForm(
                f"image of x{i + 1} is not a conjugate of a generator: {w}"
            )
        frame = frame or (u.letters, abs(core.letters[0]))
    return frame


def _split(letters: tuple[int, ...], k: int) -> tuple[int, tuple[int, ...]]:
    """(alpha, core) with letters = x_k^alpha * core * x_k^beta and both
    powers maximal; a power of x_k has the empty core.  A reduced word's
    run of +-k letters has one sign, and x // k is it."""
    lo, hi = 0, len(letters)
    while lo < hi and abs(letters[lo]) == k:
        lo += 1
    while hi > lo and abs(letters[hi - 1]) == k:
        hi -= 1
    return sum(x // k for x in letters[:lo]), letters[lo:hi]


def is_inner_shift(a: FreeAutomorphism, b: FreeAutomorphism) -> Optional[FreeWord]:
    """Find g with a(x_i) = g * b(x_i) * g^-1 for all i, if one exists.

    With a(x_1) = u x_k^+-1 u^-1 and b(x_1) = v x_k^+-1 v^-1, the
    centralizer of x_k is <x_k>, so every solution is g = u x_k^t v^-1,
    and such a g works iff x_k^t c_i x_k^-t = e_i for every i, where
    c_i = v^-1 b(x_i) v and e_i = u^-1 a(x_i) u.  Split both as
    x_k^alpha * core * x_k^beta: conjugating by x_k^t adds t to alpha,
    takes it from beta and leaves a nonempty core alone, and fixes a power
    of x_k.  So each generator rejects (the cores differ, or two powers of
    x_k differ), leaves t free (equal powers of x_k), or pins
    t = alpha_e - alpha_c.  A pin needs no test on beta: both words are
    conjugates of a generator, reduced as P x_j P^-1, so a nonempty core
    has beta = -alpha on each side.  Returns the shortest solution, ties
    broken by letter-tuple order; None when no conjugator exists.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"rank mismatch {a.d} != {b.d}")
    u, k = _frame(a)
    v, _ = _frame(b)
    u_inv = tuple(-x for x in reversed(u))
    v_inv = tuple(-x for x in reversed(v))
    pinned: Optional[int] = None
    for wa, wb in zip(a.images, b.images):
        alpha_e, core_e = _split(FreeWord(u_inv + wa.letters + u).letters, k)
        alpha_c, core_c = _split(FreeWord(v_inv + wb.letters + v).letters, k)
        if core_c != core_e or (not core_c and alpha_c != alpha_e):
            return None
        if core_c:
            t = alpha_e - alpha_c
            if pinned not in (None, t):
                return None
            pinned = t

    def candidate(t: int) -> FreeWord:
        return FreeWord(u + (k if t > 0 else -k,) * abs(t) + v_inv)

    if pinned is not None:
        return candidate(pinned)
    # Every t works: |candidate(t)| >= |t| - |u| - |v|, so nothing outside
    # the window can beat candidate(0).
    limit = 2 * (len(u) + len(v)) + 2
    return min((candidate(t) for t in range(-limit, limit + 1)), key=lambda g: (len(g), g.letters))
