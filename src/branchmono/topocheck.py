"""Numerical verification layer: separating-circle geometry for witness
polynomial families, and monodromy recovery by strand tracking.

The circle/membership inequalities are all comparisons of squared moduli
of Gaussian rationals, so they are checked exactly, from one integer form
that a family derives once: z0 as (X, Y, N) with z0 = (X + iY)/N, and
each polynomial as integer numerators over its least positive common
denominator.  One evaluator, ``_evaluate``, computes every value the
checks need: an integer Horner of numerators at Gaussian integers over a
positive integer.  Separation evaluates each a_i and each circle's centre
(a prefix of a member's numerators) at z0.  Circle samples come from the
tan-half-angle parametrization z0*(1-t^2+2it)/(1+t^2), which lies
exactly on |z| = |z0| for rational t; the values of t are symmetric about
0, so half of them are computed.  The cluster bound factors out the
circle's radius: the centre b_{I,n} is a_i truncated below depth n, so
|a_i(z) - b_{I,n}(z)|^2 = |z0|^(2n) |T_i(z)|^2 on the circle, with T_i
the tail of a_i past depth n.  A family's cluster forest is built once,
with the family, and every check reads it.

The bound's maximum over the samples is exact, but a tail is evaluated
exactly only where that maximum may be, by a floating-point filter with
exact fallback (``_tracker._candidates``).  Each tail, of degree m, is
evaluated in doubles at every sample: its coefficients c_j as
``doubles`` holds them, and the sample's parts correctly rounded.  Every
computed modulus is within E/2 of the exact one, with u = 2^-53,
S = sum_j |c_j| R^j and R >= (1 + 2u)|z0|:
    E = 2 [((1 + sqrt 5) m + 1) + 1.01 m + 1 + 2] u S
        + 10 * 2^-1074 sum_{i<=m} R^i.
The four terms in brackets bound, in units of u S, the Horner sum's
roundings, the rounding of each sample, of each coefficient and of
abs() (``_tracker._error_terms``); the last term bounds subnormal
products, coefficients and moduli, and the factor 2 the rounding of S,
of E and of the threshold.  So the samples whose computed modulus is at least the
largest less 2E include the exact maximum, and only they are evaluated
in integers.  A value or E that is not finite, or a z0 below 2^-999,
whose samples round with absolute rather than relative error, makes
every sample a candidate.  On perfbench's pool every tail with two or
more nonzero terms is evaluated exactly at one or two of the 128
samples; a tail with at most one has one modulus on the whole circle,
so all its samples tie and all are evaluated.

Only the braid tracker (``_tracker``) decides in double precision, with
crossings located by false position.  A family converts itself to
doubles, and checks their range, when it is built, before any exact
check; ``track_braid`` tries up to MAX_ROTATIONS projection frames.  The
tracker does not evaluate every grid time: the projected gap of two
strands a, b moves no faster than
V_ab = 2 pi sum_j j |c_aj - c_bj| |z0|^j per turn, in every frame, so
where every neighbouring gap exceeds the tie threshold and the rounding
of a computed gap, the order provably holds, with no tie, for
(gap - threshold - rounding)/V of a turn.  The tracker leaps to the first
grid time past that and resolves it as a walk over every grid time
would, so its letters and errors are that walk's, at a cost that goes
with the number of crossings rather than the sample count.

``is_inner_shift`` compares the tracked braid's action with the cluster
twists up to a single inner automorphism.  That is exact here because
all images this package produces are conjugates of generators: x_1's
image fixes every conjugator up to a power of one generator x_k, and in
x_1's conjugation frame each image either rejects, leaves the power free
or pins it, read off its maximal x_k powers at both ends.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from ._value import Value
from .braid import BraidWord, braid_action
from .clusters import compute_clusters
from .errors import (
    DimensionMismatch,
    InvalidInput,
    ParametersTooLarge,
    SizeLimit,
    UnresolvedCrossing,
    UnsupportedForm,
)
from .freegroup import FreeAutomorphism, FreeWord
from .intersection import BranchInput, _echo, _is_array, _is_array_of_arrays, compute_matrix, parse_rational
from .monodromy import monodromy_automorphism
from ._tracker import _candidates, _horner, _NeedsRotation, _rounded_samples, _Speeds, _Tracker


# Most tracker samples accepted.  The tracker leaps over the grid times at
# which a speed bound proves the strand order unchanged, so a family of 12
# strands takes about 5 ms at 1024 samples and 7 ms at 2^16.  Where the
# bound proves nothing (it is past the range of a double), it evaluates
# every grid time, about 15 us per sample for 12 strands, so about 16 s at
# the cap (Python 3.11 on a Xeon VM core).
MAX_SAMPLES = 2**20
# Frame rotations the tracker tries before reporting a degenerate projection.
MAX_ROTATIONS = 8

# Points on the circle |z| = |z0| at which ``verify_cluster_bound`` checks
# every cluster's bound.
BOUND_SAMPLES = 128


def check_samples(value: Any, name: str = "samples") -> int:
    """A tracker sample count: an int (not a bool) in [16, MAX_SAMPLES].
    Anything else is InvalidInput, and a count past the cap SizeLimit."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{name} must be an integer, got {type(value).__name__}")
    if value < 16:
        raise InvalidInput(f"need at least 16 samples; {name} is below that")
    if value > MAX_SAMPLES:
        raise SizeLimit(f"{name} is past the cap of {MAX_SAMPLES} samples", cap=MAX_SAMPLES)
    return value


def _over_common_denominator(xs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(numerators, L) with xs[k] = numerators[k]/L, L the least positive
    common denominator (1 for no values)."""
    den = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class WitnessFamily(Value):
    """Polynomials a_1..a_d with the loop parameters (eta, r, z0), z0 as
    the pair (re, im) of rationals.

    The standing constraint r/2 < |z0| < r is validated exactly.  The
    polynomials' cluster ``forest`` is built once, here, as the clusters
    of their coefficient series, so the list must already be in canonical
    (cluster-interval) order.  So is the integer form the exact checks
    read: ``point``, z0 as (X, Y, N), and ``integers``, each polynomial as
    (numerators, L) (``_over_common_denominator``).  Last, ``doubles``
    holds what the tracker reads (``_doubles``), so a family it cannot
    take is refused before any exact check.  Equality, hashing and the
    repr read the other fields; the rest follow from them.
    """

    __slots__ = ("polys", "eta", "r", "z0", "samples", "forest", "point", "integers", "doubles")
    _fields = ("polys", "eta", "r", "z0", "samples")

    def __init__(
        self,
        polys: tuple[tuple[Fraction, ...], ...],
        eta: Fraction,
        r: Fraction,
        z0: tuple[Fraction, Fraction],
        samples: int = 4096,
    ):
        polys = tuple(_trim(p) for p in polys)
        if len(polys) < 2:
            raise InvalidInput("need at least 2 polynomials")
        if len(set(polys)) != len(polys):
            raise InvalidInput("witness polynomials must be pairwise distinct")
        if eta < 0:
            raise InvalidInput(f"eta must be nonnegative, got {_echo(eta)}")
        if r <= 0:
            raise InvalidInput(f"r must be positive, got {_echo(r)}")
        re, im = z0
        a2 = re * re + im * im
        if not (r * r / 4 < a2 < r * r):
            raise InvalidInput(
                f"z0 must satisfy r/2 < |z0| < r; got |z0|^2 = {_echo(a2)}, r = {_echo(r)}"
            )
        check_samples(samples)
        length = max(map(len, polys)) + 1
        padded = tuple(p + (Fraction(0),) * (length - len(p)) for p in polys)
        series = BranchInput(mode="series", points=padded, truncation=length)
        forest = compute_clusters(compute_matrix(series))
        (x, y), n = _over_common_denominator(z0)
        integers = tuple(map(_over_common_denominator, polys))
        super().__init__(polys, eta, r, z0, samples, forest, (x, y, n), integers, _doubles(polys, z0))

    @property
    def d(self) -> int:
        return len(self.polys)

    @classmethod
    def from_json_dict(cls, obj: Mapping[str, Any]) -> "WitnessFamily":
        """The family of a JSON object; z0 is [re, im] or a real rational."""
        if not isinstance(obj, Mapping):
            raise InvalidInput("witness family must be a JSON object")
        coeffs = obj.get("coefficients")
        if not _is_array_of_arrays(coeffs):
            raise InvalidInput("witness family needs a 'coefficients' array of arrays")
        polys = tuple(
            tuple(parse_rational(c, strand=i, coefficient=k) for k, c in enumerate(row))
            for i, row in enumerate(coeffs, 1)
        )
        kwargs: dict[str, Any] = {}
        if "samples" in obj:
            kwargs["samples"] = obj["samples"]
        eta = parse_rational(obj.get("eta"), field="eta")
        r = parse_rational(obj.get("r"), field="r")
        z0 = obj.get("z0")
        if not _is_array(z0):
            z0 = (z0, 0)
        elif len(z0) != 2:
            raise InvalidInput(f"complex rational needs [re, im], got {_echo(z0)}", field="z0")
        return cls(polys, eta, r, tuple(parse_rational(x, field="z0") for x in z0), **kwargs)


class CheckRecord(Value):
    """One exact check: its kind, its subject, whether it passed, a detail."""

    __slots__ = ("kind", "subject", "ok", "detail")
    _defaults = {"detail": ""}

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "subject": self.subject, "ok": self.ok, "detail": self.detail}


class GeometryReport(Value):
    """The CheckRecords of one kind of check."""

    __slots__ = ("kind", "records")

    @property
    def passed(self) -> bool:
        return all(rec.ok for rec in self.records)

    def violations(self) -> list[CheckRecord]:
        return [rec for rec in self.records if not rec.ok]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": "branchmono/1",
            "kind": self.kind,
            "passed": self.passed,
            "checks": [rec.to_json_dict() for rec in self.records],
        }


def _raise_if_failed(report: GeometryReport) -> GeometryReport:
    if not report.passed:
        bad = report.violations()
        exc = ParametersTooLarge(
            f"{len(bad)} check(s) failed; first: {bad[0].subject}: {bad[0].detail}",
            violations=[f"{rec.subject}: {rec.detail}" for rec in bad],
        )
        exc.report = report  # type: ignore[attr-defined]
        raise exc
    return report


def _exact(x: Fraction) -> str:
    """str(x) for a detail, or where str() refuses an integer past the
    interpreter's digit limit, x to 7 digits, marked approximate."""
    try:
        return str(x)
    except ValueError:
        e = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        return f"~{'-' if x < 0 else ''}{10 ** (e - math.floor(e)):.6f}e{math.floor(e)}"


def _evaluate(nums: Sequence[int], den: int, points: Sequence[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """T(z) = sum_j (nums[j]/den) z^j at each point z = (X + iY)/N, exactly,
    as (re, im, s) with T(z) = (re + i im)/s.  With m = len(nums) - 1, the
    integer Horner re + i im = sum_j nums[j] (X + iY)^j N^(m-j) gives
    s = den N^m."""
    nums = nums or (0,)
    top, rest = nums[-1], nums[-2::-1]
    out = []
    for x, y, n in points:
        re, im, scale = top, 0, 1
        for c in rest:
            scale *= n
            re, im = re * x - im * y + c * scale, re * y + im * x
        out.append((re, im, den * scale))
    return out


def _dist2(p: tuple[int, int, int], q: tuple[int, int, int]) -> Fraction:
    """|p - q|^2 of two values (re, im, s) of ``_evaluate``."""
    re, im = p[0] * q[2] - q[0] * p[2], p[1] * q[2] - q[1] * p[2]
    return Fraction(re * re + im * im, (p[2] * q[2]) ** 2)


def verify_separation(w: WitnessFamily) -> GeometryReport:
    """Pairwise disjointness of the separating circles, nesting matching
    cluster containment, and membership of exactly the cluster's points.
    The circle of cluster (I, n) has radius eta * r^(n-1) and centre the
    common degree-<n prefix of its polynomials, at z0."""
    forest = w.forest
    z0 = [w.point]
    values = [_evaluate(nums, den, z0)[0] for nums, den in w.integers]
    records: list[CheckRecord] = []

    for i in range(w.d):
        x1, y1, s1 = values[i]
        for j in range(i + 1, w.d):
            x2, y2, s2 = values[j]
            ok = x1 * s2 != x2 * s1 or y1 * s2 != y2 * s1
            records.append(
                CheckRecord(
                    "distinct-values",
                    f"a{i + 1}(z0) vs a{j + 1}(z0)",
                    ok,
                    "values coincide at z0" if not ok else "distinct",
                )
            )

    circles = {}
    for c in forest.clusters:
        nums, den = w.integers[c.start - 1]
        circles[c] = (_evaluate(nums[: c.depth], den, z0)[0], w.eta * w.r ** (c.depth - 1))
    cl = list(forest.clusters)
    for a_idx in range(len(cl)):
        for b_idx in range(a_idx + 1, len(cl)):
            c1, c2 = cl[a_idx], cl[b_idx]
            (w1, r1), (w2, r2) = circles[c1], circles[c2]
            dist2 = _dist2(w1, w2)
            if c1.contains_interval(c2):
                ok = r2 < r1 and dist2 < (r1 - r2) ** 2
                expect = f"{c2} nested inside {c1}"
            else:
                ok = dist2 > (r1 + r2) ** 2
                expect = f"{c1} and {c2} external"
            records.append(
                CheckRecord(
                    "circle-separation",
                    f"{c1} vs {c2}",
                    ok,
                    expect
                    + ("" if ok else f" violated: |w-w'|^2 = {_exact(dist2)}, radii {_exact(r1)}, {_exact(r2)}"),
                )
            )

    for c in forest.clusters:
        wc, rc = circles[c]
        rc2 = rc * rc
        for i in range(1, w.d + 1):
            dist2 = _dist2(values[i - 1], wc)
            if i in c.indices():
                ok = dist2 < rc2
                want = "inside"
            else:
                ok = dist2 > rc2
                want = "outside"
            records.append(
                CheckRecord(
                    "membership",
                    f"a{i}(z0) vs circle of {c}",
                    ok,
                    f"expected strictly {want}: |a - w|^2 = {_exact(dist2)}, radius^2 = {_exact(rc2)}",
                )
            )
    return _raise_if_failed(GeometryReport("separation", tuple(records)))


def _circle_points(z0: tuple[int, int, int], count: int) -> list[tuple[int, int, int]]:
    """Exact points on |z| = |z0|, each as z0 is given, (X, Y, N) with
    z = (X + iY)/N: first -z0, then z0 * ((q^2-p^2) + 2pq i)/(q^2+p^2) for
    rational t = p/q, the tan-half-angle parametrization z0*(1-t^2+2it)/(1+t^2).
    The values of t are symmetric about 0, so only the first half comes
    from the tangents of evenly spaced angles; then come 0, for an odd
    number of values, and the first half negated, in reverse order.  At
    BOUND_SAMPLES points that is exactly what the tangents of all the
    angles give, with half the ``limit_denominator`` calls."""
    u, v, den = z0
    m = count - 1
    units = []
    for k in range(m // 2):
        t = Fraction(math.tan(math.pi * ((k + 0.5) / m - 0.5))).limit_denominator(10**6)
        p, q = t.numerator, t.denominator
        units.append((q * q - p * p, 2 * p * q, q * q + p * p))
    units += [(1, 0, 1)] * (m % 2) + [(x, -y, s) for x, y, s in reversed(units)]
    return [(-u, -v, den)] + [(u * x - v * y, u * y + v * x, den * s) for x, y, s in units]


def verify_cluster_bound(w: WitnessFamily) -> GeometryReport:
    """|a_i(z) - b_{I,n}(z)| < |z|^(n-1) * eta at sampled z with |z| = |z0|,
    for every cluster (I, n) and i in I.

    b_{I,n} is a_i truncated below depth n, so a_i - b_{I,n} = z^n T_i(z)
    with T_i the tail of a_i past depth n, and every sample lies exactly
    on |z| = |z0|: |a_i(z) - b_{I,n}(z)|^2 = |z0|^(2n) |T_i(z)|^2.  Each
    tail is evaluated in doubles at every sample, and in integers
    (``_evaluate``) only at the samples where its exact modulus may be
    largest (``_candidates``); those are compared by cross-multiplying, and
    the largest becomes one exact Fraction per record, the maximum over
    all the samples."""
    points = _circle_points(w.point, BOUND_SAMPLES)
    coeffs, z0, _ = w.doubles
    zs, radius = _rounded_samples(z0, points)
    re, im = w.z0
    z0_abs2 = re * re + im * im
    records: list[CheckRecord] = []
    for c in w.forest.clusters:
        n = c.depth
        bound2 = z0_abs2 ** (n - 1) * w.eta * w.eta
        for i in c.indices():
            best, best_s2 = 0, 1
            nums, den = w.integers[i - 1]
            for x, y, s in _evaluate(nums[n:], den, _candidates(coeffs[i - 1][n:], zs, points, radius)):
                abs2, s2 = x * x + y * y, s * s
                if abs2 * best_s2 > best * s2:
                    best, best_s2 = abs2, s2
            worst = z0_abs2**n * Fraction(best, best_s2)
            records.append(
                CheckRecord(
                    "cluster-bound",
                    f"a{i} vs b of {c}",
                    worst < bound2,
                    f"max |a_i(z) - b(z)|^2 = {_exact(worst)} vs bound^2 = {_exact(bound2)} "
                    f"over {len(points)} samples",
                )
            )
    return _raise_if_failed(GeometryReport("cluster-bound", tuple(records)))


# ---------------------------------------------------------------------------
# Strand tracking


def _double(x: Fraction, what: str, **details: Any) -> float:
    """x as a double for the tracker.  A value past the largest double, or
    a nonzero one that rounds to 0.0 (which the tracker would report as a
    collision), is SizeLimit."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if f == 0.0 and x != 0:
        raise SizeLimit(
            f"{what} is outside the range of a double (magnitude 2^-1074 to 2^1024)", **details
        )
    return f


def _doubles(polys: Sequence[Sequence[Fraction]], z0: tuple[Fraction, Fraction]) -> tuple[Any, complex, float]:
    """(coefficients, z0, scale) as the tracker reads them: each value as
    a double (``_double``), and the largest |a_i(z0)|, at least 1, which
    must be below the largest double too (SizeLimit)."""
    coeffs = tuple(
        tuple(_double(c, f"coefficient {k} of strand {i}", strand=i, coefficient=k) for k, c in enumerate(p))
        for i, p in enumerate(polys, start=1)
    )
    z = complex(_double(z0[0], "Re z0", field="z0"), _double(z0[1], "Im z0", field="z0"))
    sizes = [math.hypot(v.real, v.imag) for v in (_horner(cs, z) for cs in coeffs)]  # abs(v) can raise
    for i, size in enumerate(sizes, start=1):
        if not size < math.inf:
            raise SizeLimit(f"a_{i}(z0) is past the range of a double", strand=i)
    return coeffs, z, max(1.0, *sizes)


def track_braid(w: WitnessFamily, samples: Optional[int] = None) -> BraidWord:
    """Recover the monodromy braid by following the points a_i(e(t) z0).

    Strands are ordered by real part in a (slightly rotatable) projection
    frame.  Between sample times the order changes by reversing disjoint
    contiguous blocks.  A block of two is one crossing and emits b_k, with
    the sign read off the imaginary parts at the crossing: b_k when the
    strand coming from the right passes above.  A longer block whose
    strands cross at one point, as the collinear strands c + k*x^n of a
    cluster do, emits the Garside half-twist of its positions, positive
    when the imaginary parts at the crossing increase along the order
    before it and negative when they decrease; this is the limit of the
    pair rule under any small rotation of the frame.  Anything else is
    bisected in time.  The initial left-to-right order must match the
    label order, otherwise the braid letters would refer to the wrong
    generators (this is not an inner-automorphism ambiguity).
    """
    sample_count = w.samples if samples is None else check_samples(samples)
    coeffs, z0, scale = w.doubles
    speeds = _Speeds(coeffs, z0)
    width = len(speeds.weights)
    last_error: Optional[_NeedsRotation] = None
    for rotation in range(MAX_ROTATIONS):
        frame = cmath.exp(-1j * 0.1371 * rotation)
        framed = [[c * frame for c in cs] + [0j] * (width - len(cs)) for cs in coeffs]
        tracker = _Tracker(framed, z0, sample_count, scale, speeds)
        try:
            letters, start = tracker.run()
        except _NeedsRotation as exc:
            last_error = exc
            continue
        if start != list(range(w.d)):
            raise UnresolvedCrossing(
                "initial real-part order of a_i(z0) does not match the label "
                f"order (got {[s + 1 for s in start]}); relist the polynomials"
            )
        return BraidWord(w.d, tuple(letters))
    assert last_error is not None
    raise UnresolvedCrossing(
        f"projection stayed degenerate after {MAX_ROTATIONS} frame rotations; "
        f"last: {last_error}",
        strands=last_error.strands,
        t_window=last_error.t_window,
    )


class OracleReport(Value):
    """Outcome of comparing the tracked braid's action with the cluster
    twists: the conjugator of the inner shift between them, or None."""

    __slots__ = ("braid", "tracked", "symbolic", "conjugator", "exact")

    @property
    def consistent(self) -> bool:
        return self.conjugator is not None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": "branchmono/1",
            "kind": "oracle",
            "braid": str(self.braid),
            "consistent": self.consistent,
            "exact": self.exact,
            "conjugator": None if self.conjugator is None else str(self.conjugator),
        }


def _frame(a: FreeAutomorphism) -> tuple[FreeWord, int]:
    """(u, k) with a(x_1) = u * x_k^+-1 * u^-1; UnsupportedForm unless
    every image is a conjugate of a generator."""
    frame = None
    for i, w in enumerate(a.images):
        u, core = w.cyclic_decomposition()
        if len(core.letters) != 1:
            raise UnsupportedForm(
                f"image of x{i + 1} is not a conjugate of a generator: {w}"
            )
        frame = frame or (u, abs(core.letters[0]))
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
    u_inv, v_inv = u.inv(), v.inv()
    pinned: Optional[int] = None
    for wa, wb in zip(a.images, b.images):
        alpha_e, core_e = _split(FreeWord.product(u_inv, wa, u).letters, k)
        alpha_c, core_c = _split(FreeWord.product(v_inv, wb, v).letters, k)
        if core_c != core_e or (not core_c and alpha_c != alpha_e):
            return None
        if core_c:
            t = alpha_e - alpha_c
            if pinned not in (None, t):
                return None
            pinned = t

    def candidate(t: int) -> FreeWord:
        return FreeWord.product(u, FreeWord((k if t > 0 else -k,) * abs(t)), v_inv)

    if pinned is not None:
        return candidate(pinned)
    # Every t works: |candidate(t)| >= |t| - |u| - |v|, so nothing outside
    # the window can beat candidate(0).
    limit = 2 * (len(u.letters) + len(v.letters)) + 2
    return min((candidate(t) for t in range(-limit, limit + 1)), key=lambda g: (len(g.letters), g.letters))


def verify_monodromy_oracle(w: WitnessFamily, samples: Optional[int] = None) -> OracleReport:
    """Tracked-braid action vs cluster-twist action, up to one inner
    automorphism; exact agreement is reported as a bonus."""
    braid = track_braid(w, samples=samples)
    tracked = braid_action(braid)
    symbolic = monodromy_automorphism(w.forest)
    conj = is_inner_shift(tracked, symbolic)
    return OracleReport(
        braid=braid,
        tracked=tracked,
        symbolic=symbolic,
        conjugator=conj,
        exact=tracked == symbolic,
    )
