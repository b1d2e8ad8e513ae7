"""The strand tracker behind ``topocheck.track_braid``: the points
a_i(z0 e(t)) followed in double precision in one projection frame, with
crossings located by bisection and read as braid letters.

The coefficients come multiplied by the frame once, so a position's real
part is its projection and its imaginary part the orthogonal coordinate.

The tracker does not evaluate every grid time.  The projected gap of two
strands a, b moves along the loop no faster than
V_ab = 2 pi sum_j j |c_aj - c_bj| |z0|^j per turn, in every frame.  So
at an evaluated time where every neighbouring pair's gap exceeds the tie
threshold plus twice a bound on the rounding of a computed gap, the order
provably stays the same, with no tie, for (gap - threshold - rounding)/V
of a turn.  The tracker leaps over the grid times inside that horizon and
evaluates the first one outside it, handing it the same interval it would
have had from a walk over every grid time, so letters and errors do not
change.  The leaps shrink geometrically towards a crossing and grow away
from it, so the cost goes with the number of crossings and the logarithm
of the sample count, not with the sample count.

Between samples the tracked strand order changes by reversing disjoint
blocks of adjacent strands.  A pair at positions k+1, k+2 emits b_{k+1}.
A longer block at positions k+1..k+m whose strands cross at one point,
as the strands c + j*x^n of a cluster that differ in one coefficient do
in every projection frame, emits the Garside half-twist
Delta = (b_{k+1}...b_{k+m-1})(b_{k+1}...b_{k+m-2})...(b_{k+1}) or its
inverse.  Both follow one sign rule: the letters are positive when the
imaginary parts at the crossing increase along the order before it, and
negative when they decrease.  A full twist of a rigidly turning cluster
is two half-twists.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

from .braid import BraidWord, half_twist
from .errors import UnresolvedCrossing

# Bisection depth at which the tracker gives up isolating a crossing.
MAX_DEPTH = 20


def _strand_names(ids: Sequence[int]) -> list[int]:
    """1-based labels of 0-based strand ids, sorted."""
    return sorted(s + 1 for s in ids)


class _NeedsRotation(Exception):
    """The projection frame cannot order these strands; another may."""

    def __init__(self, message: str, strands: Sequence[int], t_window: tuple[float, float]):
        super().__init__(message)
        self.strands = _strand_names(strands)
        self.t_window = list(t_window)


def _unresolved(message: str, strands: Sequence[int], t_lo: float, t_hi: float) -> UnresolvedCrossing:
    return UnresolvedCrossing(message, strands=_strand_names(strands), t_window=[t_lo, t_hi])


def _block_reversals(a: list[int], b: list[int]) -> Optional[list[tuple[int, int]]]:
    """(start, length) of the disjoint contiguous blocks whose reversal
    turns a into b; None if the difference is anything else.  A block of
    length 2 is one transposition.  Disjoint blocks arise generically:
    clusters at equal depths rotate at the same angular speed and cross
    simultaneously."""
    where = {s: k for k, s in enumerate(a)}
    blocks: list[tuple[int, int]] = []
    k = 0
    while k < len(a):
        if a[k] == b[k]:
            k += 1
            continue
        end = where[b[k]]
        if end <= k or b[k : end + 1] != a[k : end + 1][::-1]:
            return None
        blocks.append((k, end - k + 1))
        k = end + 1
    return blocks


def _horner(cs: Sequence[complex], z: complex) -> complex:
    """One strand's position: its double coefficients evaluated at z."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


# A computed position differs from the value of the double coefficients
# at the exact point z0 e(t) by at most about 35 (D+1) u M, with u = 2^-53,
# D the largest degree and M = max_i sum_j |c_ij| |z0|^j: Horner's D
# complex products and D+1 sums add (1 + sqrt 5)(D+1) u M, the frame's
# rounding 3 u M, and the computed z = z0 exp(2 pi i t) is off by about
# 5u in modulus (5 D u M) and, with the rounding of t = k/samples, by
# about 3.5u of a turn in angle, which moves a position by at most
# 2 pi D M per turn (22 D u M).  A computed gap Re(p_b - p_a) is two
# positions and one more rounding, 2 u M, so within 72 (D+1) u M.  The
# factor 128 leaves room for the few roundings of the slack and horizon.
_ROUNDING = 128 * 2.0**-53


class _Speeds:
    """Per family, in every frame: V_ab = 2 pi sum_j j |c_aj - c_bj| |z0|^j,
    which bounds |d/dt Re(p_b - p_a)| over the loop, memoised per strand
    pair, and ``eps``, which bounds the rounding of a computed gap.  Values
    past the range of a double read as inf or nan, never as an error."""

    __slots__ = ("coeffs", "weights", "eps", "memo")

    def __init__(self, coeffs: list[list[float]], z0: complex):
        radius = math.hypot(z0.real, z0.imag)
        powers = [1.0]
        for _ in range(max(map(len, coeffs)) - 1):
            powers.append(powers[-1] * radius)
        size = max(sum(abs(c) * w for c, w in zip(cs, powers)) for cs in coeffs)
        self.coeffs = [cs + [0.0] * (len(powers) - len(cs)) for cs in coeffs]
        self.weights = [2 * math.pi * j * w for j, w in enumerate(powers)]
        self.eps = _ROUNDING * len(powers) * size
        self.memo: dict[tuple[int, int], float] = {}

    def speed(self, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        v = self.memo.get(key)
        if v is None:
            v = sum(abs(x - y) * w for x, y, w in zip(self.coeffs[a], self.coeffs[b], self.weights))
            self.memo[key] = v
        return v


class _Tracker:
    """Strands followed in one projection frame.  Their coefficients come
    multiplied by the frame, so a position's real part is its projection
    and its imaginary part the orthogonal coordinate, and padded to one
    length with zero coefficients of higher degree, which keep a Horner
    accumulator at exactly 0j up to a strand's own top coefficient, so
    every position is bit for bit the unpadded one.  ``current`` is the
    strand order at the last time resolved, and ``letters`` the braid so
    far."""

    __slots__ = ("coeffs", "z0", "samples", "scale", "speeds", "current", "letters")

    def __init__(
        self, coeffs: list[list[complex]], z0: complex, samples: int, scale: float, speeds: _Speeds
    ):
        self.coeffs = coeffs
        self.z0 = z0
        self.samples = samples
        self.scale = scale
        self.speeds = speeds
        self.current: list[int] = []
        self.letters: list[int] = []

    def positions(self, t: float) -> list[complex]:
        z = self.z0 * cmath.exp(2j * math.pi * t)
        return [_horner(cs, z) for cs in self.coeffs]

    def order_at(self, t: float) -> list[int]:
        return self.order_of(self.positions(t), t)

    def order_of(self, pos: list[complex], t: float) -> list[int]:
        """Strand ids sorted by projection at t, a grid time or a bisection
        midpoint.  Neighbours whose projections tie either occupy the same
        point, a collision in every frame, or are ordered by an accident of
        this frame, which a rotation moves (collinear blocks are resolved
        as half-twists, and a real z0 puts symmetric configurations on
        dyadic times).

        A tie is a gap within rounding (positions carry a few ulps of the
        scale), not more: a deep cluster's strands are only |z0|^n apart,
        and a wider margin would tie them over a whole grid step around
        each of their crossings, in every frame."""
        order = sorted(range(len(pos)), key=lambda i: pos[i].real)
        tied: set[int] = set()
        for a, b in zip(order, order[1:]):
            if abs(pos[a].real - pos[b].real) < 1e-14 * self.scale:
                if abs(pos[a] - pos[b]) < 1e-11 * self.scale:
                    raise _unresolved(
                        f"strands {min(a, b) + 1} and {max(a, b) + 1} collide at t = {t:.9f}",
                        (a, b),
                        t,
                        t,
                    )
                tied.update((a, b))
        if tied:
            raise _NeedsRotation(
                f"strands {_strand_names(tied)} tie in projection at t = {t:.9f}", tied, (t, t)
            )
        return order

    def crossing_time(self, left: int, right: int, t_lo: float, t_hi: float) -> float:
        """Bisect for the time in (t_lo, t_hi) where the projection of
        strand right falls below that of strand left."""
        # Both strands in one Horner loop, each with ``_horner``'s operations.
        pairs = list(zip(self.coeffs[left][::-1], self.coeffs[right][::-1]))
        z0 = self.z0

        def gap(t: float) -> float:
            z = z0 * cmath.exp(2j * math.pi * t)
            acc_l = acc_r = 0j
            for c_l, c_r in pairs:
                acc_l = acc_l * z + c_l
                acc_r = acc_r * z + c_r
            return acc_r.real - acc_l.real

        lo, hi = t_lo, t_hi
        g_lo = gap(lo)
        resolution = 1e-9 * max(t_hi - t_lo, 1e-12)
        for _ in range(64):
            if hi - lo < resolution:
                break
            mid = (lo + hi) / 2
            g_mid = gap(mid)
            if (g_mid > 0) == (g_lo > 0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        return (lo + hi) / 2

    def twist(self, block: list[int], k: int, t_lo: float, t_hi: float) -> Optional[BraidWord]:
        """The half-twist (a single letter for a pair) of the strands
        ``block`` at positions k+1..k+m, which reverse their order in
        (t_lo, t_hi), if they cross at one point; None if their crossings
        are separate events.

        At the crossing time of the two end strands, the projections must
        coincide, relative to the block's own extent (deep clusters are
        tiny next to the global scale), and no two strands may meet.  The
        sign follows the orthogonal order (see the module docstring); an
        order that is not monotone is a degenerate view of separate
        crossings, which only a rotated frame can tell apart."""
        m = len(block)
        t_star = self.crossing_time(block[0], block[-1], t_lo, t_hi)
        pos = self.positions(t_star)
        pts = [pos[s] for s in block]
        projs = [p.real for p in pts]
        orths = [p.imag for p in pts]
        extent = max(orths) - min(orths)
        # A rigid block is off by its turning speed times the bisection's
        # time resolution (about 1e-11 of its extent), or by rounding in
        # the positions (about 1e-16 of the scale); separate crossings that
        # merely fall close in time are off by far more, and are bisected.
        if m > 2 and max(projs) - min(projs) > 1e-9 * extent + 1e-14 * self.scale:
            return None
        for i in range(m):
            for j in range(i + 1, m):
                if abs(pts[i] - pts[j]) < 1e-11 * self.scale:
                    a, b = sorted((block[i], block[j]))
                    raise _unresolved(
                        f"strands {a + 1} and {b + 1} collide near t = {t_star:.9f}",
                        (a, b),
                        t_lo,
                        t_hi,
                    )
        steps = [b - a for a, b in zip(orths, orths[1:])]
        word = half_twist(k + 1, m, len(pos))
        if all(s > 0 for s in steps):
            return word
        if all(s < 0 for s in steps):
            return word.inv()
        raise _NeedsRotation(
            f"strands {_strand_names(block)} line up in projection near t = {t_star:.9f} "
            "in an order that is not monotone",
            block,
            (t_lo, t_hi),
        )

    def resolve(self, t_a: float, t_b: float, order_b: list[int], depth: int) -> None:
        """Process all crossings in (t_a, t_b], given the order at t_b.
        Invariant: ``current`` is the order at t_a on entry and at t_b on
        exit."""
        current = self.current
        if order_b == current:
            return
        blocks = _block_reversals(current, order_b)
        if blocks is not None:
            # Disjoint blocks commute; locate each one independently.
            words = [self.twist(current[k : k + m], k, t_a, t_b) for k, m in blocks]
            if all(w is not None for w in words):
                for w in words:
                    self.letters.extend(w.letters)
                current[:] = order_b
                return
        if depth >= MAX_DEPTH:
            moved = [s for s, s_b in zip(current, order_b) if s != s_b]
            if blocks is not None:
                raise _unresolved(
                    f"strands {_strand_names(moved)} reverse their order in "
                    f"[{t_a:.9f}, {t_b:.9f}] without meeting at one point",
                    moved,
                    t_a,
                    t_b,
                )
            raise _unresolved(
                f"could not isolate the crossings of strands {_strand_names(moved)} "
                f"in [{t_a:.9f}, {t_b:.9f}]; increase samples",
                moved,
                t_a,
                t_b,
            )
        t_mid = (t_a + t_b) / 2
        self.resolve(t_a, t_mid, self.order_at(t_mid), depth + 1)
        self.resolve(t_mid, t_b, order_b, depth + 1)

    def leap(self, pos: list[complex]) -> int:
        """Grid steps from an evaluated time, with positions ``pos`` in
        the order ``current``, to the first grid time that the speed bound
        does not prove to keep that order with no tie: each neighbouring
        pair's gap, less the tie threshold and twice ``eps``, over its
        speed bound is a time it cannot close, capped at one turn.  One
        step where a slack is not positive or a bound not finite."""
        speeds = self.speeds
        margin = 1e-14 * self.scale + 2 * speeds.eps
        current = self.current
        horizon = 1.0
        for a, b in zip(current, current[1:]):
            slack = pos[b].real - pos[a].real - margin
            speed = speeds.speed(a, b)
            if not (slack > 0 and speed < math.inf):
                return 1
            if slack < horizon * speed:
                horizon = slack / speed
        return math.ceil(horizon * self.samples)

    def run(self) -> tuple[list[int], list[int]]:
        """Returns (letters, initial order as strand ids).  Each evaluated
        grid time j gets ``resolve`` over ((j-1)/samples, j/samples], as a
        walk over every grid time would give it: the grid times leapt
        over keep the order, where that walk resolves nothing."""
        samples = self.samples
        pos = self.positions(0.0)
        start = self.order_of(pos, 0.0)
        self.current, self.letters = list(start), []
        k = 0
        while k < samples:
            k = min(samples, k + self.leap(pos))
            t = k / samples
            pos = self.positions(t)
            self.resolve((k - 1) / samples, t, self.order_of(pos, t), 0)
        if self.current != start:
            moved = [s for s, s0 in zip(self.current, start) if s != s0]
            raise _unresolved(
                f"tracked braid is not pure: strands {_strand_names(moved)} end out of "
                "place (a crossing was missed); increase samples",
                moved,
                0.0,
                1.0,
            )
        return self.letters, start
