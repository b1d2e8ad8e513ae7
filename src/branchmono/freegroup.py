"""Reduced words in a free group and generator-wise automorphisms.

Words are tuples of signed indices: +i is the generator x_i, -i its
inverse.  Every word is stored freely reduced; reduction happens in the
constructor.  Automorphisms are given by the images of x_1..x_d and are
composed by substitution.  ``is_inner_shift`` decides whether two
automorphisms differ by a single inner automorphism, which is exact here
because all images this package produces are conjugates of generators, so
the relevant centralizers are cyclic.
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


def reduce_word(letters: Iterable[int], d: Optional[int] = None) -> FreeWord:
    """Freely reduce a raw letter sequence, checking indices against rank d."""
    letters = tuple(letters)
    if d is not None:
        for x in letters:
            if x == 0 or abs(x) > d:
                raise IndexOutOfRange(f"letter {x} out of range for rank {d}")
    return FreeWord(letters)


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


def _power_run(letters: tuple[int, ...], k: int, from_end: bool) -> int:
    """Signed length of the maximal run of +-k letters at one end."""
    run = 0
    seq = reversed(letters) if from_end else letters
    for x in seq:
        if abs(x) != k:
            break
        run += 1 if x > 0 else -1
    return run


def _strip_power(letters: tuple[int, ...], k: int, from_end: bool) -> tuple[tuple[int, ...], int]:
    """Remove the maximal +-k power at one end, returning (rest, signed exponent)."""
    exp = _power_run(letters, k, from_end)
    count = abs(exp)
    if count == 0:
        return letters, 0
    return (letters[:-count] if from_end else letters[count:]), exp


def _is_power_of(letters: tuple[int, ...], k: int) -> bool:
    return all(abs(x) == k for x in letters)


def _conjugator_data(a: FreeAutomorphism) -> list[tuple[FreeWord, int]]:
    """Per generator, (u_i, core letter) with image = u_i * core * u_i^-1."""
    data = []
    for i, w in enumerate(a.images):
        u, core = w.cyclic_decomposition()
        if len(core.letters) != 1:
            raise UnsupportedForm(
                f"image of x{i + 1} is not a conjugate of a generator: {w}"
            )
        data.append((u, core.letters[0]))
    return data


def is_inner_shift(a: FreeAutomorphism, b: FreeAutomorphism) -> Optional[FreeWord]:
    """Find g with a(x_i) = g * b(x_i) * g^-1 for all i, if one exists.

    The solution set of the first generator's equation is the coset
    u_1 * <x_k> * v_1^-1 (centralizers of generators are cyclic), so the
    search reduces to an exact computation of which exponents survive the
    remaining generators.  Returns the shortest solution, ties broken by
    letter-tuple order; None when no conjugator exists.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"rank mismatch {a.d} != {b.d}")
    data_a = _conjugator_data(a)
    data_b = _conjugator_data(b)
    for (_, sa), (_, sb) in zip(data_a, data_b):
        if sa != sb:
            return None

    u0, core0 = data_a[0]
    v0, _ = data_b[0]
    k0 = abs(core0)

    def candidate(t: int) -> FreeWord:
        return FreeWord(u0.letters + (k0,) * max(t, 0) + (-k0,) * max(-t, 0) + v0.inv().letters)

    # Intersect the exponent constraints from the remaining generators.
    allowed_all = True
    pinned: Optional[int] = None
    for i in range(1, a.d):
        u_i, core_i = data_a[i]
        v_i, _ = data_b[i]
        k_i = abs(core_i)
        # Constraint: u_i^-1 * (u0 x^t v0^-1) * v_i  must be a power of x_{k_i}.
        left = FreeWord(u_i.inv().letters + u0.letters)
        right = FreeWord(v0.inv().letters + v_i.letters)
        l_rest, alpha = _strip_power(left.letters, k0, from_end=True)
        r_rest, beta = _strip_power(right.letters, k0, from_end=False)
        if not l_rest and not r_rest:
            if k_i == k0:
                continue  # any t works for this generator
            t_i = -alpha - beta  # middle power must vanish entirely
        else:
            mid = FreeWord(l_rest + r_rest)
            if not _is_power_of(mid.letters, k_i):
                return None
            t_i = -alpha - beta
        if pinned is None:
            pinned = t_i
            allowed_all = False
        elif pinned != t_i:
            return None

    def valid(g: FreeWord) -> bool:
        return all(
            b.images[i].conjugated_by(g) == a.images[i] for i in range(a.d)
        )

    if not allowed_all:
        assert pinned is not None
        g = candidate(pinned)
        return g if valid(g) else None

    # Every generator leaves t free: scan a window for the shortest
    # conjugator.  |candidate(t)| >= |t| - |u0| - |v0|, so nothing outside
    # the window can beat candidate(0).
    limit = 2 * (len(u0) + len(v0)) + 2
    best: Optional[FreeWord] = None
    for t in range(-limit, limit + 1):
        g = candidate(t)
        if not valid(g):
            continue
        if best is None or (len(g), g.letters) < (len(best), best.letters):
            best = g
    return best
