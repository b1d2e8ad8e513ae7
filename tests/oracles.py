"""Slow reference algorithms that the tests compare the fast paths against.

``pairwise_oracle`` fills the whole intersection matrix pair by pair, in
``Fraction`` arithmetic with one division per digit of ``padic_valuation``,
as the p-adic and series ingest once did.  ``entries`` reads the full
matrix back from a cluster tree, and ``reindex`` and ``depth_partition``
read it entry by entry.
``evaluate_word`` and ``canonical_tuple`` are the direct definitions of
word evaluation and of the canonical form of a cover class, which the
finite-group layer computes from precomputed conjugation data, and
``letter_delta_on_class`` is delta evaluated one table lookup per image
letter, as ``quotients.delta_on_class`` did before it read the images in
conjugation form.
``every_sample_track`` is the strand tracker that evaluates every grid
time, which the leaping tracker must agree with.
``window_inner_shift`` tries every conjugator the first generator allows
in a window, with the full validity check, and ``fraction_separation``
and ``fraction_cluster_bound`` evaluate the witness geometry in Gaussian
rationals, against ``freegroup.is_inner_shift`` and ``topocheck``'s one
integer evaluator.  ``csv_lines`` builds every line of an orbits
report's CSV table at once, the reference for the blocks that
``OrbitReport.write_csv`` streams.  ``moduli_degree``,
``dehn_twist_automorphism``, ``lambda_braid_for_forest`` and
``puncture_loop_braid`` are the direct
definitions that the closed forms of ``quotients.moduli_report`` and
``monodromy.monodromy_automorphism`` are tested against.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence
from unittest import mock

from branchmono import _tracker, topocheck
from branchmono.braid import BraidWord, lambda_braid
from branchmono.clusters import Cluster
from branchmono.errors import (
    IndexOutOfRange,
    IndistinguishableTruncation,
    IntervalOutOfRange,
    InvalidInput,
    UnsupportedForm,
)
from branchmono.freegroup import FreeAutomorphism, FreeWord
from branchmono.intersection import BranchInput, IntersectionMatrix
from branchmono.quotients import FiniteGroup, OrbitReport, delta_on_class
from branchmono.topocheck import CheckRecord, GeometryReport, WitnessFamily


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


def letter_delta_on_class(rep: tuple[int, ...], a: FreeAutomorphism, g: FiniteGroup) -> tuple[int, ...]:
    """delta of a class: every image word folded through the table one
    letter at a time, then re-canonicalized."""
    table = g.table
    # value[k] is the element the letter k stands for: rep[k - 1] for
    # k > 0 and, read from the end, its inverse for k < 0.
    value = [0, *rep, *map(g.inverse.__getitem__, reversed(rep))]
    new = []
    for w in a.images:
        acc = 0
        for k in w.letters:
            acc = table[acc][value[k]]
        new.append(acc)
    return g.canonical(new)


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


def every_sample_track(w: WitnessFamily, samples: Optional[int] = None) -> BraidWord:
    """``track_braid`` with the every-sample tracker in every frame."""
    with mock.patch.object(topocheck, "_Tracker", EverySampleTracker):
        return topocheck.track_braid(w, samples=samples)


# ---------------------------------------------------------------------------
# Monodromy, braids and moduli degrees by their definitions


def moduli_degree(rep: tuple[int, ...], a: FreeAutomorphism, g: FiniteGroup) -> int:
    """Least N >= 1 with delta^N fixing the class, by following its orbit.
    A map that does not permute the classes can lead into a cycle that
    misses rep: that is UnsupportedForm."""
    seen = {rep}
    current = delta_on_class(rep, a, g)
    while current not in seen:
        seen.add(current)
        current = delta_on_class(current, a, g)
    if current != rep:
        raise UnsupportedForm(
            f"delta's orbit of {rep} returns to {current} before {rep}; the map is not an automorphism"
        )
    return len(seen)


def csv_lines(report: OrbitReport) -> list[str]:
    """The header line, then one line per class: its position, its tuple
    joined by dots, its degree."""
    lines = ["class,representative,degree"]
    for idx, (rep, deg) in enumerate(zip(report.classes, report.degrees)):
        lines.append(f"{idx},{'.'.join(map(str, rep))},{deg}")
    return lines


def dehn_twist_automorphism(c: Cluster, d: int) -> FreeAutomorphism:
    """One cluster's twist: conjugate the generators of the interval by
    their ordered product."""
    if c.end > d:
        raise IntervalOutOfRange(f"cluster {c} does not fit in rank {d}")
    conj = FreeWord(tuple(c.indices()))
    images = [
        FreeWord.generator(i).conjugated_by(conj) if i in c.indices() else FreeWord.generator(i)
        for i in range(1, d + 1)
    ]
    return FreeAutomorphism(d, tuple(images))


def lambda_braid_for_forest(clusters: Sequence[Cluster], d: int) -> BraidWord:
    """Concatenation of the cluster braids in the given order."""
    word = BraidWord.identity(d)
    for c in clusters:
        word = word * lambda_braid(c, d)
    return word


def puncture_loop_braid(i: int, d: int) -> BraidWord:
    """The loop generator x_i written as a braid on d+1 strands:
    (b_d ... b_{i+1}) b_i^2 (b_d ... b_{i+1})^-1."""
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"puncture index {i} out of range 1..{d}")
    prefix = tuple(range(d, i, -1))
    letters = prefix + (i, i) + tuple(-x for x in reversed(prefix))
    return BraidWord(d + 1, letters)


# ---------------------------------------------------------------------------
# Inner shifts by a window scan


def window_inner_shift(a: FreeAutomorphism, b: FreeAutomorphism) -> Optional[FreeWord]:
    """The shortest g = u x_k^t v^-1 (ties by letter tuple) with
    a(x_i) = g b(x_i) g^-1 for every i, or None, where
    a(x_1) = u x_k^+-1 u^-1 and b(x_1) = v x_k^+-1 v^-1; every image must
    be a conjugate of a generator.  Every solution has that form.  Each t
    with |t| <= 2(|u| + |v|) + max_i(|a(x_i)| + |b(x_i)|) + 2 is tried with
    the full check.  That window holds every solution that matters: a
    pinned t is at most |u^-1 a(x_i) u| + |v^-1 b(x_i) v| for the image
    x_i that pins it, and where every t works, candidates past
    |t| = 2(|u| + |v|) + 2 are longer than the one at t = 0."""
    u, core = a.images[0].cyclic_decomposition()
    v, _ = b.images[0].cyclic_decomposition()
    k = abs(core.letters[0])
    limit = 2 * (len(u) + len(v)) + max(len(wa) + len(wb) for wa, wb in zip(a.images, b.images)) + 2
    best: Optional[FreeWord] = None
    for t in range(-limit, limit + 1):
        g = u * FreeWord.generator(k) ** t * v.inv()
        if all(wb.conjugated_by(g) == wa for wa, wb in zip(a.images, b.images)):
            if best is None or (len(g), g.letters) < (len(best), best.letters):
                best = g
    return best


# ---------------------------------------------------------------------------
# Witness geometry in Gaussian rationals, as pairs (re, im) of Fractions


def gauss_sub(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return p[0] - q[0], p[1] - q[1]


def gauss_mul(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def gauss_abs2(p: tuple[Fraction, Fraction]) -> Fraction:
    return p[0] * p[0] + p[1] * p[1]


def eval_poly(coeffs: Sequence[Fraction], z: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        re, im = gauss_mul(acc, z)
        acc = (re + c, im)
    return acc


def center_poly(w: WitnessFamily, c: Cluster) -> tuple[Fraction, ...]:
    """The common degree-<n truncation of the cluster's polynomials."""
    coeffs = [
        tuple(p[k] if k < len(p) else Fraction(0) for k in range(c.depth))
        for p in (w.polys[i - 1] for i in c.indices())
    ]
    assert all(t == coeffs[0] for t in coeffs)
    return coeffs[0]


def fraction_separation(w: WitnessFamily) -> GeometryReport:
    """``verify_separation``'s records, each value computed in Gaussian
    rationals; the report is returned, not raised, when a check fails."""
    z0 = (w.z0.re, w.z0.im)
    values = [eval_poly(p, z0) for p in w.polys]
    records = []
    for i in range(w.d):
        for j in range(i + 1, w.d):
            ok = values[i] != values[j]
            records.append(
                CheckRecord(
                    "distinct-values",
                    f"a{i + 1}(z0) vs a{j + 1}(z0)",
                    ok,
                    "values coincide at z0" if not ok else "distinct",
                )
            )
    cl = list(w.forest.clusters)
    circles = {c: (eval_poly(center_poly(w, c), z0), w.eta * w.r ** (c.depth - 1)) for c in cl}
    for a_idx, c1 in enumerate(cl):
        for c2 in cl[a_idx + 1 :]:
            (w1, r1), (w2, r2) = circles[c1], circles[c2]
            dist2 = gauss_abs2(gauss_sub(w1, w2))
            if c1.contains_interval(c2) and c1.depth <= c2.depth:
                ok = r2 < r1 and dist2 < (r1 - r2) ** 2
                expect = f"{c2} nested inside {c1}"
            elif c2.contains_interval(c1) and c2.depth <= c1.depth:
                ok = r1 < r2 and dist2 < (r2 - r1) ** 2
                expect = f"{c1} nested inside {c2}"
            else:
                ok = dist2 > (r1 + r2) ** 2
                expect = f"{c1} and {c2} external"
            detail = expect + ("" if ok else f" violated: |w-w'|^2 = {dist2}, radii {r1}, {r2}")
            records.append(CheckRecord("circle-separation", f"{c1} vs {c2}", ok, detail))
    for c in cl:
        wc, rc = circles[c]
        for i in range(1, w.d + 1):
            dist2 = gauss_abs2(gauss_sub(values[i - 1], wc))
            inside = i in c.indices()
            ok = dist2 < rc * rc if inside else dist2 > rc * rc
            records.append(
                CheckRecord(
                    "membership",
                    f"a{i}(z0) vs circle of {c}",
                    ok,
                    f"expected strictly {'inside' if inside else 'outside'}: "
                    f"|a - w|^2 = {dist2}, radius^2 = {rc * rc}",
                )
            )
    return GeometryReport("separation", tuple(records))


def fraction_circle_samples(z0: tuple[Fraction, Fraction], count: int) -> list[tuple[Fraction, Fraction]]:
    """Exact points on |z| = |z0|: -z0, then z0 * (1-t^2+2it)/(1+t^2) for
    rational t."""
    out = [(-z0[0], -z0[1])]
    for k in range(count - 1):
        angle = math.pi * ((k + 0.5) / (count - 1) - 0.5)
        t = Fraction(math.tan(angle)).limit_denominator(10**6)
        den = 1 + t * t
        out.append(gauss_mul(z0, ((1 - t * t) / den, 2 * t / den)))
    return out


def fraction_cluster_bound(w: WitnessFamily, bound_samples: int = 128) -> GeometryReport:
    """The bound evaluated directly: a_i(z) - b(z) in Gaussian rationals
    at every sample, for every cluster and member; the report is
    returned, not raised, when a check fails."""
    zs = fraction_circle_samples((w.z0.re, w.z0.im), bound_samples)
    z0_abs2 = w.z0.abs2()
    values = [[eval_poly(p, z) for z in zs] for p in w.polys]
    records = []
    for c in w.forest.clusters:
        centre = [eval_poly(center_poly(w, c), z) for z in zs]
        bound2 = z0_abs2 ** (c.depth - 1) * w.eta * w.eta
        for i in c.indices():
            worst, ok = None, True
            for a, b in zip(values[i - 1], centre):
                diff2 = gauss_abs2(gauss_sub(a, b))
                if not diff2 < bound2:
                    ok = False
                if worst is None or diff2 > worst:
                    worst = diff2
            records.append(
                CheckRecord(
                    "cluster-bound",
                    f"a{i} vs b of {c}",
                    ok,
                    f"max |a_i(z) - b(z)|^2 = {worst} vs bound^2 = {bound2} "
                    f"over {len(zs)} samples",
                )
            )
    return GeometryReport("cluster-bound", tuple(records))
