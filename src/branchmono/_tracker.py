"""The double-precision parts of ``topocheck``: the strand tracker behind
``track_braid``, which follows the points a_i(z0 e(t)) in one projection
frame and reads their crossings as braid letters, and the float filter
of ``verify_cluster_bound``, which picks the circle samples where a
tail's exact modulus may be largest (``_candidates``).  They live
apart from ``topocheck`` for memory: where no bytecode is cached, each
process compiles the modules from source, and CPython 3.11's peak while
compiling a module steps up past about 4,100 tokens.  With the filter in
``topocheck`` (4,176 tokens) that peak rose from 1.37 to 1.74 MB, and a
``verify-topology`` process's peak RSS by 0.25-0.4 MB.

Both decide from doubles only what two arguments prove, and both read
the same rounding allowance.

One allowance.  For n double coefficients c_j and a radius R >= |z0|,
let S = sum_j |c_j| R^j, and u = 2^-53.  What each layer computes in
doubles, a tracker's gap of two positions and the filter's modulus of a
tail, is off from the value it stands for by well under 128 n u S, so
both allow _ROUNDING n S = 128 n u S for it, with room for the rounding
of the allowance itself and of what it is compared with.
  - Tracker, n = D + 1 for the largest degree D, and S = M, the largest
    S of a strand at R = |z0|: a computed position differs from the
    value of the double coefficients at the exact point z0 e(t) by at
    most about 35 n u M.  Horner's D complex products and D + 1 sums add
    (1 + sqrt 5) n u M, the frame's rounding 3 u M, and the computed
    z = z0 exp(2 pi i t) is off by about 5u in modulus (5 D u M) and,
    with the rounding of t = k/samples, by about 3.5u of a turn in angle,
    which moves a position by at most 2 pi D M per turn (22 D u M).  A
    computed gap Re(p_b - p_a) is two positions and one more rounding,
    2 u M, so within 72 n u M; ``eps`` = _ROUNDING n M leaves room for
    the few roundings of the slack and the horizon.
  - Filter, a tail of degree m, n = m + 1, at R = |z0| (1 + 8u), for
    |z0| >= 2^-999 and m u <= 2^-20 (a tail of 2^33 terms would not fit
    in memory): the modulus computed at the rounded sample zh against
    the exact modulus at the sample z.  Horner's m complex products,
    each within sqrt(5) u, and m + 1 sums, each within u, put each term
    c_j zh^j off by a factor within ((1 + sqrt 5) m + 1) u; both parts of
    zh are correctly rounded, so |zh - z| <= u|z| and |zh^j - z^j| is
    within 1.01 j u |z|^j (1.01 m u S); each c_j is its rational
    correctly rounded (u S); and abs() is within one ulp (2 u S).  That
    is at most (4.25 m + 4) u S, and E/2 = 64 n u S is 15 times that or
    more.  Subnormal products, coefficients and moduli add at most
    5 * 2^-1074 sum_{i<=m} R^i, which E takes twice.

The leap.  The coefficients come multiplied by the frame once, so a
position's real part is its projection and its imaginary part the
orthogonal coordinate.  The tracker does not evaluate every grid time.
The projected gap of two strands a, b moves along the loop no faster
than V_ab = 2 pi sum_j j |c_aj - c_bj| |z0|^j per turn, in every frame.
So at an evaluated time where every neighbouring pair's gap exceeds the
tie threshold plus twice ``eps``, the order provably stays the same,
with no tie, for (gap - threshold - 2 eps)/V of a turn.  The tracker
leaps over the grid times inside that horizon and evaluates the first
one outside it, handing it the same interval it would have had from a
walk over every grid time, so letters and errors do not change.  The
leaps shrink geometrically towards a crossing and grow away from it, so
the cost goes with the number of crossings and the logarithm of the
sample count, not with the sample count.

A crossing of two strands is located by false position with the Illinois
rule (``crossing_time``) on their projected gap, to 1e-9 of the interval
it falls in: 4.7 gap evaluations a crossing on average over perfbench's
pool, where bisection took 31.5.

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


# The rounding allowance of both float layers per unit of n S (see the
# module docstring).
_ROUNDING = 128 * 2.0**-53


class _Tracker:
    """Strands followed in one projection frame.  ``coeffs`` holds a
    family's double coefficients (``WitnessFamily.doubles``) multiplied by
    ``frame``, so a position's real part is its projection and its
    imaginary part the orthogonal coordinate, and padded to one length
    with zero coefficients of higher degree, which keep a Horner
    accumulator at exactly 0j up to a strand's own top coefficient, so
    every position is bit for bit the unpadded one.  ``eps`` bounds the
    rounding of a computed gap, and ``speed`` the speed of one (see the
    module docstring); values past the range of a double read as inf or
    nan, never as an error.  ``current`` is the strand order at the last
    time resolved, and ``letters`` the braid so far."""

    __slots__ = ("coeffs", "z0", "samples", "scale", "eps", "unframed", "weights", "memo", "current", "letters")

    def __init__(self, coeffs: Sequence[Sequence[float]], z0: complex, samples: int, scale: float, frame: complex):
        radius = math.hypot(z0.real, z0.imag)
        powers = [1.0]
        for _ in range(max(map(len, coeffs)) - 1):
            powers.append(powers[-1] * radius)
        width = len(powers)
        self.coeffs = [[c * frame for c in cs] + [0j] * (width - len(cs)) for cs in coeffs]
        self.unframed = [[*cs] + [0.0] * (width - len(cs)) for cs in coeffs]
        self.weights = [2 * math.pi * j * w for j, w in enumerate(powers)]
        self.eps = _ROUNDING * width * max(sum(abs(c) * w for c, w in zip(cs, powers)) for cs in coeffs)
        self.memo: dict[tuple[int, int], float] = {}
        self.z0 = z0
        self.samples = samples
        self.scale = scale
        self.current: list[int] = []
        self.letters: list[int] = []

    def speed(self, a: int, b: int) -> float:
        """V_ab = 2 pi sum_j j |c_aj - c_bj| |z0|^j, from the unframed
        coefficients, memoised per strand pair."""
        key = (a, b) if a < b else (b, a)
        v = self.memo.get(key)
        if v is None:
            v = sum(abs(x - y) * w for x, y, w in zip(self.unframed[a], self.unframed[b], self.weights))
            self.memo[key] = v
        return v

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
        """The time in (t_lo, t_hi) where the projection of strand right
        falls below that of strand left, by false position with the
        Illinois rule.  The bracket keeps the sign of the gap at t_lo at its
        low end, as bisection would; each step is the secant root of the
        gaps at the ends, the Illinois rule halving the gap kept at an end
        that stays put twice in a row, so both ends close in.  Where the
        ends' gaps do not differ in sign, the step is the midpoint.  A step
        stays at least a quarter of the resolution inside the bracket, so
        the bracket closes once the root is found.  The search stops when
        the bracket is narrower than the resolution, when no double is left
        inside it, after 64 steps, or at a time where the gap is exactly 0,
        which it returns; otherwise it returns the bracket's midpoint."""
        left_cs, right_cs = self.coeffs[left], self.coeffs[right]

        def gap(t: float) -> float:
            z = self.z0 * cmath.exp(2j * math.pi * t)
            return _horner(right_cs, z).real - _horner(left_cs, z).real

        lo, hi = t_lo, t_hi
        g_lo, g_hi = gap(lo), gap(hi)
        positive = g_lo > 0
        resolution = 1e-9 * max(t_hi - t_lo, 1e-12)
        kept = 0  # +1 after the low end moved, -1 after the high end moved
        for _ in range(64):
            if hi - lo < resolution:
                break
            if (g_hi > 0) != positive:
                t = hi - g_hi * ((hi - lo) / (g_hi - g_lo))
            else:
                t = (lo + hi) / 2
            t = min(max(t, lo + resolution / 4), hi - resolution / 4)
            if not lo < t < hi:
                break
            g = gap(t)
            if g == 0:
                return t
            if (g > 0) == positive:
                lo, g_lo = t, g
                if kept == 1:
                    g_hi /= 2
                kept = 1
            else:
                hi, g_hi = t, g
                if kept == -1:
                    g_lo /= 2
                kept = -1
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
        # A rigid block is off by its turning speed times the crossing
        # search's time resolution (about 1e-11 of its extent), or by
        # rounding in the positions (about 1e-16 of the scale); separate
        # crossings that merely fall close in time are off by far more, and
        # are bisected.
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
        margin = 1e-14 * self.scale + 2 * self.eps
        current = self.current
        horizon = 1.0
        for a, b in zip(current, current[1:]):
            slack = pos[b].real - pos[a].real - margin
            speed = self.speed(a, b)
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


# ---------------------------------------------------------------------------
# The float filter of ``topocheck.verify_cluster_bound``

# The unit roundoff and the smallest subnormal of a double, and the least
# |z0| (as a double) at which a sample's rounding is relative.
_U = 2.0**-53
_ETA = 2.0**-1074
_FILTER_MIN_RADIUS = 2.0**-999


def _rounded_samples(
    z0: complex, points: Sequence[tuple[int, int, int]]
) -> tuple[list[complex], float]:
    """(zs, R): the exact samples (X, Y, N) as doubles, each part correctly
    rounded, and R = |z0| (1 + 8u) >= (1 + 2u) |z0|, from z0 as a double.
    R is inf, and zs empty, where the filter does not apply: a z0 below
    2^-999, whose samples would round with absolute error, or one whose
    modulus is past a double."""
    rho = math.hypot(z0.real, z0.imag)
    radius = rho * (1 + 8 * _U) if rho >= _FILTER_MIN_RADIUS else math.inf
    return ([complex(x / s, y / s) for x, y, s in points] if radius < math.inf else []), radius


def _candidates(
    tail: Sequence[float], zs: Sequence[complex], points: Sequence[tuple[int, int, int]], radius: float
) -> Sequence[tuple[int, int, int]]:
    """The points at which the exact modulus of a tail may be largest.  A
    tail with at most one nonzero coefficient c_j has the modulus
    |c_j| |z0|^j at every point, exactly, so its first point is enough.
    Otherwise they are the points whose modulus in doubles, at ``zs`` (the
    points correctly rounded), is at least the largest less 2E, with
    E = _ROUNDING (m + 1) S + 10 * 2^-1074 sum_{i<=m} R^i for a tail of
    degree m (see the module docstring); every computed modulus is within
    E/2 of the exact one, so the exact maximum is among them.  ``zs`` and
    R = ``radius`` come from ``_rounded_samples``; an R of inf, an
    overflow or a value that is not finite makes every point a candidate."""
    if sum(map(bool, tail)) <= 1:
        return points[:1]
    if not radius < math.inf:
        return points
    # Horner's rule at every sample at once, one coefficient at a time.
    values = [complex(tail[-1])] * len(zs)
    for c in tail[-2::-1]:
        values = [v * z + c for v, z in zip(values, zs)]
    try:
        values = [abs(v) for v in values]
    except OverflowError:  # abs() of finite parts whose modulus is past a double
        return points
    weighted = powers = 0.0  # S and sum_{i<=m} R^i
    for c in reversed(tail):
        weighted = weighted * radius + abs(c)
        powers = powers * radius + 1.0
    error = _ROUNDING * len(tail) * weighted + 10 * _ETA * powers
    if not sum(values) + error < math.inf:
        return points
    threshold = max(values) - 2 * error
    return [p for p, v in zip(points, values) if v >= threshold]
