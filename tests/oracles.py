"""Slow reference algorithms that the tests compare the fast paths against.

``pairwise_oracle`` fills the whole intersection matrix pair by pair, in
``Fraction`` arithmetic with one division per digit of ``padic_valuation``,
as the p-adic and series ingest once did.  ``entries`` reads the full
matrix back from a cluster tree, and ``reindex`` and ``depth_partition``
read it entry by entry.
``evaluate_word`` and ``canonical_tuple`` are the direct definitions of
word evaluation and of the canonical form of a cover class, which the
finite-group layer computes from precomputed conjugation data.
``every_sample_track`` is the strand tracker that evaluates every grid
time, which the leaping tracker must agree with.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence
from unittest import mock

from branchmono import _tracker, topocheck
from branchmono.braid import BraidWord
from branchmono.errors import IndistinguishableTruncation, InvalidInput
from branchmono.intersection import BranchInput, IntersectionMatrix


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


def pairwise_oracle(binput: BranchInput) -> tuple[tuple[int, ...], ...]:
    """All d^2 valuations of differences of a p-adic or series input.  A
    pair of series that agree through all T coefficients raises
    IndistinguishableTruncation, naming the first such pair i < j."""
    d = binput.d
    e = [[0] * d for _ in range(d)]
    if binput.mode == "padic":
        for i in range(d):
            for j in range(i + 1, d):
                diff = binput.points[i] - binput.points[j]
                e[i][j] = e[j][i] = padic_valuation(diff, binput.p)
        return tuple(map(tuple, e))
    t = binput.truncation
    for i in range(d):
        for j in range(i + 1, d):
            val = next((n for n in range(t) if binput.points[i][n] != binput.points[j][n]), None)
            if val is None:
                raise IndistinguishableTruncation(
                    f"series {i + 1} and {j + 1} agree through all {t} coefficients; "
                    f"only v >= {t} is known",
                    pair=[i + 1, j + 1],
                    truncation=t,
                )
            e[i][j] = e[j][i] = val
    return tuple(map(tuple, e))


def entries(m: IntersectionMatrix) -> tuple[tuple[int, ...], ...]:
    """The full matrix of a cluster tree, 0 on the diagonal: the entry of
    two leaves is a running minimum over ``steps`` from the first, O(d^2)."""
    idx = [s - 1 for s in m.order]
    e = [[0] * m.d for _ in range(m.d)]
    for a, i in enumerate(idx):
        for j, v in zip(idx[a + 1 :], accumulate(m.steps[a:], min)):
            e[i][j] = e[j][i] = v
    return tuple(map(tuple, e))


def reindex(m: IntersectionMatrix, sigma: Sequence[int]) -> IntersectionMatrix:
    """Validated matrix whose position k holds original index sigma[k-1] (1-based)."""
    if sorted(sigma) != list(range(1, m.d + 1)):
        raise InvalidInput(f"{sigma} is not a permutation of 1..{m.d}")
    e = entries(m)
    return IntersectionMatrix(m.d, tuple(tuple(e[s - 1][t - 1] for t in sigma) for s in sigma))


def depth_partition(m: IntersectionMatrix, block: Sequence[int], n: int) -> list[list[int]]:
    """Split a block (0-based indices) into classes of the relation e >= n,
    which is transitive by ultrametricity.  Classes sorted by least element."""
    e = entries(m)
    remaining = sorted(block)
    classes: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        cls = [seed]
        rest = []
        for j in remaining:
            if e[seed][j] >= n:
                cls.append(j)
            else:
                rest.append(j)
        remaining = rest
        classes.append(sorted(cls))
    return classes


def evaluate_word(
    table: Sequence[Sequence[int]],
    inv: Sequence[int],
    tup: Sequence[int],
    word: Sequence[int],
) -> int:
    """Evaluate a free word at a tuple of group elements (0 = identity)."""
    acc = 0
    for letter in word:
        g = tup[letter - 1] if letter > 0 else inv[tup[-letter - 1]]
        acc = table[acc][g]
    return acc


def canonical_tuple(
    table: Sequence[Sequence[int]], inv: Sequence[int], tup: Sequence[int]
) -> tuple[int, ...]:
    """Lexicographically least tuple in the simultaneous-conjugation orbit.

    Minimises one coordinate at a time: only the conjugators h that reach
    the least image of every earlier coordinate are tried on the next one,
    so the cost is O(|G| + |C|·d) for C the set of conjugators that survive
    the first coordinate, not |G|·d.
    """
    n = len(inv)
    best: list[int] = []
    hs = range(n)
    for g in tup:
        least = n
        keep: list[int] = []
        for h in hs:
            y = table[table[inv[h]][g]][h]
            if y < least:
                least, keep = y, [h]
            elif y == least:
                keep.append(h)
        best.append(least)
        hs = keep
    return tuple(best)


class EverySampleTracker(_tracker._Tracker):
    """The strand tracker without leaps: ``resolve`` on every grid step,
    and each bisection midpoint evaluated by two separate Horner loops."""

    __slots__ = ()

    def crossing_time(self, left: int, right: int, t_lo: float, t_hi: float) -> float:
        left_cs, right_cs = self.coeffs[left], self.coeffs[right]

        def gap(t: float) -> float:
            z = self.z0 * cmath.exp(2j * math.pi * t)
            return _tracker._horner(right_cs, z).real - _tracker._horner(left_cs, z).real

        lo, hi = t_lo, t_hi
        g_lo = gap(lo)
        for _ in range(64):
            if hi - lo < 1e-9 * max(t_hi - t_lo, 1e-12):
                break
            mid = (lo + hi) / 2
            g_mid = gap(mid)
            if (g_mid > 0) == (g_lo > 0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        return (lo + hi) / 2

    def run(self) -> tuple[list[int], list[int]]:
        start = self.order_at(0.0)
        self.current, self.letters = list(start), []
        t_grid = [k / self.samples for k in range(self.samples + 1)]
        for t_a, t_b in zip(t_grid, t_grid[1:]):
            self.resolve(t_a, t_b, self.order_at(t_b), 0)
        if self.current != start:
            moved = [s for s, s0 in zip(self.current, start) if s != s0]
            raise _tracker._unresolved(
                f"tracked braid is not pure: strands {_tracker._strand_names(moved)} end out of "
                "place (a crossing was missed); increase samples",
                moved,
                0.0,
                1.0,
            )
        return self.letters, start


def every_sample_track(w: topocheck.WitnessFamily, samples: Optional[int] = None) -> BraidWord:
    """``track_braid`` with the every-sample tracker in every frame."""
    with mock.patch.object(topocheck, "_Tracker", EverySampleTracker):
        return topocheck.track_braid(w, samples=samples)
