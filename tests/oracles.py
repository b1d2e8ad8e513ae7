"""Slow reference algorithms that the tests compare the fast paths against.

``pairwise_oracle`` fills the whole intersection matrix pair by pair, in
``Fraction`` arithmetic with one division per digit of ``padic_valuation``,
as the p-adic and series ingest once did.  ``entries`` reads the full
matrix back from a cluster tree, and ``reindex`` and ``depth_partition``
read it entry by entry.  ``prim_tree`` validates a matrix by Prim's
order and one ``min`` per entry, the reference for
``IntersectionMatrix``'s split order and run-length check.
``evaluate_word`` and ``canonical_tuple`` are the direct definitions of
word evaluation and of the canonical form of a cover class, which the
finite-group layer computes from precomputed conjugation data, and
``letter_delta_on_class`` is delta of any free-group automorphism
evaluated one table lookup per image letter, the reference for
``quotients.delta_on_class``, which reads a forest's twists.
``every_sample_track`` is the strand tracker that evaluates every grid
time, which the leaping tracker must agree with, and
``bisection_crossing_time`` locates a crossing by bisection, the
reference for ``_Tracker.crossing_time``'s false position.
``error_terms`` bounds each source of rounding in the cluster bound's
float filter on its own, the reference that the filter's one allowance
must cover.
``window_inner_shift`` tries every conjugator the first generator allows
in a window, with the full validity check, and ``fraction_separation``
and ``fraction_cluster_bound`` evaluate the witness geometry in Gaussian
rationals, straight from a family's ``Fraction`` coefficients and its z0
pair, against ``topocheck.is_inner_shift`` and ``topocheck``'s one
integer evaluator, which reads the family's integer form: z0 as
(X, Y, N) and each polynomial as numerators over one denominator.
``csv_lines`` builds every line of an orbits report's CSV table at once,
and ``orbit_json`` dumps its whole JSON document at once, the references
for the blocks that ``OrbitReport.write_csv`` and
``OrbitReport.write_json`` stream, and ``presentation_forms`` writes a
presentation's three output forms one letter at a time, the reference
for ``freegroup.format_letters``'s table
of letter names.
``light_failure`` is Light's associativity test with its greedy
generators grown by a naive fixpoint, the reference for the triple
``quotients.associativity_failure`` names.
``identity``, ``apply``, ``compose`` and ``inner`` are automorphisms of
the free group by their definitions, composed by substitution, and
``permutation`` and ``is_pure`` read a braid word's strand permutation.
``moduli_degree``, ``dehn_twist_automorphism``, ``lambda_braid``,
``lambda_braid_for_forest`` and ``puncture_loop_braid`` are the direct
definitions that the closed forms of ``quotients.moduli_report``,
``monodromy.monodromy_automorphism`` and ``braid.half_twist`` are tested
against; ``moduli_degree`` follows an orbit through
``letter_delta_on_class``, so it shares no code with the delta it checks.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence
from unittest import mock

from branchmono import _tracker, topocheck
from branchmono.braid import BraidWord
from branchmono.clusters import Cluster
from branchmono.errors import (
    IndexOutOfRange,
    IndistinguishableTruncation,
    IntervalOutOfRange,
    InvalidInput,
    UnsupportedForm,
)
from branchmono.freegroup import FreeAutomorphism, FreeWord
from branchmono.intersection import BranchInput, IntersectionMatrix, _raise_first_violation
from branchmono.monodromy import Presentation
from branchmono.quotients import FiniteGroup, OrbitReport
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


def prim_tree(e: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cluster tree of a square matrix of nonnegative integers: Prim's
    maximum-spanning order from index 1, least index on ties, then every
    entry checked to be the minimum of the consecutive entries between its
    indices along it, one ``min`` per entry.  Returns (order, steps),
    1-based; a failure raises the validator's own UltrametricViolation,
    which names the first violating triple.  The diagonal is never read,
    and symmetry is assumed."""
    d = len(e)
    order, rest, key = [0], list(range(1, d)), list(e[0])
    while rest:
        order.append(max(rest, key=key.__getitem__))
        rest.remove(order[-1])
        key = [max(k, v) for k, v in zip(key, e[order[-1]])]
    for p, a in enumerate(order):
        for b, c in zip(order[p + 1 :], order[p + 2 :]):
            if e[a][c] != min(e[a][b], e[b][c]):
                _raise_first_violation(e)
    return tuple(i + 1 for i in order), tuple(e[a][b] for a, b in zip(order, order[1:]))


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


def light_failure(table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) with (ab)c != a(bc), for b over Light's
    greedy generators in the order chosen, then a and c ascending, or None.
    Each generator is the least element outside the set reached from 0 by
    right multiplication by the earlier ones, grown until it stops."""
    n = len(table)
    gens: list[int] = []
    reached = {0}
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))
        grown = reached | {table[a][b] for a in reached for b in gens}
        while grown != reached:
            reached = grown
            grown = reached | {table[a][b] for a in reached for b in gens}
    for b in gens:
        for a in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


class EverySampleTracker(_tracker._Tracker):
    """The strand tracker without leaps: ``resolve`` on every grid step."""

    __slots__ = ()

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


def bisection_crossing_time(tracker: _tracker._Tracker, left: int, right: int, t_lo: float, t_hi: float) -> float:
    """``_Tracker.crossing_time`` by bisection: the midpoint takes the low
    end when its gap has the sign of the gap at t_lo, until the bracket is
    narrower than 1e-9 of its width or after 64 halvings."""
    left_cs, right_cs = tracker.coeffs[left], tracker.coeffs[right]

    def gap(t: float) -> float:
        z = tracker.z0 * cmath.exp(2j * math.pi * t)
        return _tracker._horner(right_cs, z).real - _tracker._horner(left_cs, z).real

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


def error_terms(m: int) -> dict[str, float]:
    """Bounds, in units of u S with u = 2^-53, on each source of error in
    the modulus of a tail of degree m computed in doubles at a sample z,
    as ``_tracker._candidates`` computes it; S = sum_j |c_j| R^j, with c_j
    the tail's coefficients as doubles and R >= (1 + 2u)|z0|.  They hold
    for |z0| >= 2^-1000 and m u <= 2^-20; the absolute errors of subnormal
    values are bounded apart.  The filter allows _ROUNDING (m + 1) S for
    all four, at least twice their sum.

    - horner: m complex products, each within sqrt(5) u, and m + 1 sums,
      each within u, so each term c_j zh^j of the sum at the rounded
      sample zh is off by a factor within ((1 + sqrt 5) m + 1) u;
    - point: both parts of zh are correctly rounded, so |zh - z| <= u|z|
      (plus 2^-1074.5, below 2^-21 u|z| here), and |zh^j - z^j| is at most
      j u |z|^j times factors that 1.01 covers;
    - coefficient: each c_j is its rational correctly rounded, within u;
    - modulus: abs() is within one ulp, 2u, of the computed value."""
    return {"horner": (1 + math.sqrt(5)) * m + 1, "point": 1.01 * m, "coefficient": 1.0, "modulus": 2.0}


def every_sample_track(w: WitnessFamily, samples: Optional[int] = None) -> BraidWord:
    """``track_braid`` with the every-sample tracker in every frame."""
    with mock.patch.object(topocheck, "_Tracker", EverySampleTracker):
        return topocheck.track_braid(w, samples=samples)


# ---------------------------------------------------------------------------
# Automorphisms of the free group, composed by substitution


def identity(d: int) -> FreeAutomorphism:
    """The identity automorphism of the free group of rank d."""
    return FreeAutomorphism(d, tuple(FreeWord((i,)) for i in range(1, d + 1)))


def apply(a: FreeAutomorphism, w: FreeWord) -> FreeWord:
    """a(w): each letter replaced by its image, reversed and negated for
    an inverse letter, then reduced."""
    letters: list[int] = []
    for x in w.letters:
        img = a.images[abs(x) - 1].letters
        letters.extend(img if x > 0 else [-y for y in reversed(img)])
    return FreeWord(letters)


def compose(a: FreeAutomorphism, b: FreeAutomorphism) -> FreeAutomorphism:
    """a after b: (a . b)(x_i) = a(b(x_i))."""
    return FreeAutomorphism(a.d, tuple(apply(a, w) for w in b.images))


def inner(g: FreeWord, d: int) -> FreeAutomorphism:
    """The inner automorphism x -> g x g^-1 of the free group of rank d."""
    return FreeAutomorphism(d, tuple(FreeWord((i,)).conjugated_by(g) for i in range(1, d + 1)))


# ---------------------------------------------------------------------------
# Monodromy, braids and moduli degrees by their definitions


def moduli_degree(rep: tuple[int, ...], a: FreeAutomorphism, g: FiniteGroup) -> int:
    """Least N >= 1 with delta^N fixing the class, by following its orbit
    one ``letter_delta_on_class`` at a time.  A map that does not permute
    the classes can lead into a cycle that misses rep: that is
    UnsupportedForm."""
    seen = {rep}
    current = letter_delta_on_class(rep, a, g)
    while current not in seen:
        seen.add(current)
        current = letter_delta_on_class(current, a, g)
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


def orbit_json(report: OrbitReport) -> str:
    """The JSON document of an orbits report with a newline: its header
    fields, then each class's tuple and degree."""
    doc = {
        "schema": "branchmono/1",
        "kind": "orbits",
        "group": report.group_name,
        "order": report.group_order,
        "d": report.d,
        "p": report.p,
        "surjective_only": report.surjective_only,
        "center_size": report.center_size,
        "exponent_mod_center": report.exponent,
        "class_count": len(report.classes),
        "max_degree": max(report.degrees, default=1),
        "all_degrees_divide_exponent": all(report.exponent % deg == 0 for deg in report.degrees),
        "classes": [{"rep": list(rep), "degree": deg} for rep, deg in zip(report.classes, report.degrees)],
    }
    return json.dumps(doc, indent=2) + "\n"


def word_text(letters: tuple[int, ...]) -> str:
    """A word in ``str(FreeWord)`` syntax, written letter by letter."""
    return "*".join(f"x{x}" if x > 0 else f"x{-x}^-1" for x in letters) or "1"


def presentation_forms(pres: Presentation) -> tuple[str, str, dict]:
    """A presentation's text, relators text and JSON document, each image
    written by ``word_text`` and its inverse through ``FreeWord.inv``."""
    xs = [f"x{i}" for i in range(1, pres.d + 1)]
    product = "*".join(xs)
    displays = [f"{product} = 1"]
    relators = [product]
    pairs = [{"lhs": product, "rhs": "1"}]
    for i, w in enumerate(pres.images, start=1):
        lhs = f"delta^-1*x{i}*delta"
        displays.append(f"[delta, x{i}] = 1" if w.letters == (i,) else f"{lhs} = {word_text(w.letters)}")
        relators.append(f"{lhs}*{word_text(w.inv().letters)}" if w.letters else lhs)
        pairs.append({"lhs": lhs, "rhs": word_text(w.letters)})
    head = []
    if pres.p:
        head.append(f"# p = {pres.p}")
    if pres.point_labels:
        head.append("# points (reordered) = " + ", ".join(pres.point_labels))
    if pres.sigma:
        head.append("# sigma = [" + ", ".join(map(str, pres.sigma)) + "]")
    generators = xs + ["delta"]
    head.append("< " + ", ".join(generators) + " |")
    body = [f"  {rel}," for rel in displays[:-1]] + [f"  {displays[-1]} >"]
    text = "\n".join(head + body) + "\n"
    relators_text = "\n".join(["generators: " + ", ".join(generators)] + relators) + "\n"
    doc = {
        "schema": "branchmono/1",
        "kind": "presentation",
        "d": pres.d,
        "p": pres.p,
        "points": list(pres.point_labels),
        "sigma": list(pres.sigma),
        "generators": generators,
        "relations": pairs,
    }
    return text, relators_text, doc


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


def lambda_braid(c: Cluster, d: int) -> BraidWord:
    """The pure braid (b_m ... b_{m+l-2})^l rotating the points of a
    cluster m..m+l-1 once."""
    if c.end > d:
        raise IntervalOutOfRange(f"cluster {c} does not fit in {d} strands")
    return BraidWord(d, tuple(range(c.start, c.end)) * c.length)


def lambda_braid_for_forest(clusters: Sequence[Cluster], d: int) -> BraidWord:
    """Concatenation of the cluster braids in the given order."""
    return BraidWord(d, tuple(x for c in clusters for x in lambda_braid(c, d).letters))


def permutation(b: BraidWord) -> tuple[int, ...]:
    """The strand permutation of a braid word: position k ends holding
    start strand perm[k]."""
    perm = list(range(b.strands))
    for x in b.letters:
        k = abs(x) - 1
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    return tuple(perm)


def is_pure(b: BraidWord) -> bool:
    """Whether every strand ends where it started."""
    return permutation(b) == tuple(range(b.strands))


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
    limit = 2 * (len(u.letters) + len(v.letters))
    limit += max(len(wa.letters) + len(wb.letters) for wa, wb in zip(a.images, b.images)) + 2
    best: Optional[FreeWord] = None
    for t in range(-limit, limit + 1):
        power = (k,) * t if t >= 0 else (-k,) * -t
        g = FreeWord(u.letters + power + v.inv().letters)
        if all(wb.conjugated_by(g) == wa for wa, wb in zip(a.images, b.images)):
            if best is None or (len(g.letters), g.letters) < (len(best.letters), best.letters):
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
    z0 = w.z0
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
    zs = fraction_circle_samples(w.z0, bound_samples)
    z0_abs2 = gauss_abs2(w.z0)
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
