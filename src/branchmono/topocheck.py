"""Numerical verification layer: separating-circle geometry for witness
polynomial families, and monodromy recovery by strand tracking.

The circle/membership inequalities are all comparisons of squared moduli
of Gaussian rationals, so they are checked exactly.  One evaluator,
``_evaluate``, computes every polynomial value they need: an integer
Horner over one common denominator per polynomial, at points given as
Gaussian integers over a positive integer, (X + iY)/N.  Separation
evaluates each a_i and each circle's centre at z0.  Circle samples come
from the tan-half-angle parametrization z0*(1-t^2+2it)/(1+t^2), which lies
exactly on |z| = |z0| for rational t.  The cluster bound factors out the
circle's radius: the centre b_{I,n} is a_i truncated below depth n, so
|a_i(z) - b_{I,n}(z)|^2 = |z0|^(2n) |T_i(z)|^2 on the circle, with T_i
the tail of a_i past depth n, evaluated at every sample.  A family's
cluster forest is built once, with the family, and every check reads it.

Only the braid tracker (``_tracker``) runs in double precision, with
crossings located by bisection.  ``track_braid`` converts the family to
doubles, checks their range and tries up to MAX_ROTATIONS projection
frames.  The tracker does not evaluate every grid time: the projected gap
of two strands a, b moves no faster than
V_ab = 2 pi sum_j j |c_aj - c_bj| |z0|^j per turn, in every frame, so
where every neighbouring gap exceeds the tie threshold and the rounding
of a computed gap, the order provably holds, with no tie, for
(gap - threshold - rounding)/V of a turn.  The tracker leaps to the first
grid time past that and resolves it as a walk over every grid time
would, so its letters and errors are that walk's, at a cost that goes
with the number of crossings rather than the sample count.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from ._value import Value, _set
from .braid import BraidWord, braid_action
from .clusters import compute_clusters
from .errors import InvalidInput, ParametersTooLarge, SizeLimit, UnresolvedCrossing
from .freegroup import FreeAutomorphism, FreeWord, is_inner_shift
from .intersection import BranchInput, _echo, compute_matrix, parse_rational
from .monodromy import monodromy_automorphism
from ._tracker import _horner, _NeedsRotation, _Speeds, _Tracker


class RationalComplex(Value):
    """Gaussian rational: exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        _set(self, "re", re)
        _set(self, "im", im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @classmethod
    def from_json(cls, obj: Any) -> "RationalComplex":
        if isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
            if len(obj) != 2:
                raise InvalidInput(f"complex rational needs [re, im], got {obj!r}")
            return cls(parse_rational(obj[0]), parse_rational(obj[1]))
        return cls(parse_rational(obj))


# Most tracker samples accepted.  The tracker leaps over the grid times at
# which a speed bound proves the strand order unchanged, so a family of 12
# strands takes about 8 ms at 1024 samples and 10 ms at 2^16.  Where the
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


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class WitnessFamily(Value):
    """Polynomials a_1..a_d with the loop parameters (eta, r, z0).

    The standing constraint r/2 < |z0| < r is validated exactly.  The
    polynomials' cluster ``forest`` is built once, here, as the clusters
    of their coefficient series, so the list must already be in canonical
    (cluster-interval) order.  Equality, hashing and the repr read the
    other fields; the forest follows from ``polys``.
    """

    __slots__ = ("polys", "eta", "r", "z0", "samples", "forest")
    _fields = ("polys", "eta", "r", "z0", "samples")

    def __init__(
        self,
        polys: tuple[tuple[Fraction, ...], ...],
        eta: Fraction,
        r: Fraction,
        z0: RationalComplex,
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
        a2 = z0.abs2()
        if not (r * r / 4 < a2 < r * r):
            raise InvalidInput(
                f"z0 must satisfy r/2 < |z0| < r; got |z0|^2 = {_echo(a2)}, r = {_echo(r)}"
            )
        check_samples(samples)
        _set(self, "polys", polys)
        _set(self, "eta", eta)
        _set(self, "r", r)
        _set(self, "z0", z0)
        _set(self, "samples", samples)
        length = max(map(len, polys)) + 1
        padded = tuple(p + (Fraction(0),) * (length - len(p)) for p in polys)
        series = BranchInput(mode="series", points=padded, truncation=length)
        _set(self, "forest", compute_clusters(compute_matrix(series)))

    @property
    def d(self) -> int:
        return len(self.polys)

    @classmethod
    def from_json_dict(cls, obj: Mapping[str, Any]) -> "WitnessFamily":
        if not isinstance(obj, Mapping):
            raise InvalidInput("witness family must be a JSON object")
        coeffs = obj.get("coefficients")
        if not isinstance(coeffs, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in coeffs
        ):
            raise InvalidInput("witness family needs a 'coefficients' array of arrays")
        polys = tuple(tuple(parse_rational(c) for c in row) for row in coeffs)
        kwargs: dict[str, Any] = {}
        if "samples" in obj:
            kwargs["samples"] = obj["samples"]
        return cls(
            polys=polys,
            eta=parse_rational(obj.get("eta")),
            r=parse_rational(obj.get("r")),
            z0=RationalComplex.from_json(obj.get("z0")),
            **kwargs,
        )


class CheckRecord(Value):
    __slots__ = ("kind", "subject", "ok", "detail")

    def __init__(self, kind: str, subject: str, ok: bool, detail: str = ""):
        _set(self, "kind", kind)
        _set(self, "subject", subject)
        _set(self, "ok", ok)
        _set(self, "detail", detail)

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "subject": self.subject, "ok": self.ok, "detail": self.detail}


class GeometryReport(Value):
    __slots__ = ("kind", "records")

    def __init__(self, kind: str, records: tuple[CheckRecord, ...]):
        _set(self, "kind", kind)
        _set(self, "records", records)

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


def _point(z: RationalComplex) -> tuple[int, int, int]:
    """z as (X, Y, N) with z = (X + iY)/N, N > 0."""
    den = math.lcm(z.re.denominator, z.im.denominator)
    return z.re.numerator * (den // z.re.denominator), z.im.numerator * (den // z.im.denominator), den


def _evaluate(coeffs: Sequence[Fraction], points: Sequence[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """T(z) = sum_j coeffs[j] z^j at each point z = (X + iY)/N, exactly,
    as (re, im, s) with T(z) = (re + i im)/s.  With L the common
    denominator of the coefficients, P_j = L * coeffs[j] and m = deg T,
    the integer Horner re + i im = sum_j P_j (X + iY)^j N^(m-j) gives
    s = L N^m."""
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs] or [0]
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
    z0 = [_point(w.z0)]
    values = [_evaluate(p, z0)[0] for p in w.polys]
    records: list[CheckRecord] = []

    for i in range(w.d):
        for j in range(i + 1, w.d):
            ok = _dist2(values[i], values[j]) != 0
            records.append(
                CheckRecord(
                    "distinct-values",
                    f"a{i + 1}(z0) vs a{j + 1}(z0)",
                    ok,
                    "values coincide at z0" if not ok else "distinct",
                )
            )

    circles = {
        c: (_evaluate(w.polys[c.start - 1][: c.depth], z0)[0], w.eta * w.r ** (c.depth - 1))
        for c in forest.clusters
    }
    cl = list(forest.clusters)
    for a_idx in range(len(cl)):
        for b_idx in range(a_idx + 1, len(cl)):
            c1, c2 = cl[a_idx], cl[b_idx]
            (w1, r1), (w2, r2) = circles[c1], circles[c2]
            dist2 = _dist2(w1, w2)
            if c1.contains_interval(c2) and c1.depth <= c2.depth:
                ok = r2 < r1 and dist2 < (r1 - r2) ** 2
                expect = f"{c2} nested inside {c1}"
            elif c2.contains_interval(c1) and c2.depth <= c1.depth:
                ok = r1 < r2 and dist2 < (r2 - r1) ** 2
                expect = f"{c1} nested inside {c2}"
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


def _limit_denominator(x: float, limit: int) -> tuple[int, int]:
    """(p, q), q > 0: the nearest fraction to x with q <= limit, the
    smaller denominator on a tie, exactly as
    ``Fraction(x).limit_denominator(limit)`` returns it, from the same
    continued fraction in plain integers.  With x = n/d in lowest terms,
    p1/q1 is the last convergent within the limit and
    (p0 + k p1)/(q0 + k q1) the best semiconvergent.  x lies between
    them, den/(q1·d) from p1/q1, and they are 1/(q1·(q0 + k q1)) apart,
    so p1/q1 is at least as near iff 2·den·(q0 + k q1) <= d."""
    n, d = x.as_integer_ratio()
    if d <= limit:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (limit - q0) // q1
    if 2 * den * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _circle_points(z0: RationalComplex, count: int) -> list[tuple[int, int, int]]:
    """Exact points on |z| = |z0| as (X, Y, N) with z = (X + iY)/N, N > 0:
    first -z0, then z0 * ((q^2-p^2) + 2pq i)/(q^2+p^2) for rational
    t = p/q, the tan-half-angle parametrization z0*(1-t^2+2it)/(1+t^2)."""
    u, v, den = _point(z0)
    out = [(-u, -v, den)]
    for k in range(count - 1):
        angle = math.pi * ((k + 0.5) / (count - 1) - 0.5)
        p, q = _limit_denominator(math.tan(angle), 10**6)
        x, y = q * q - p * p, 2 * p * q
        out.append((u * x - v * y, u * y + v * x, den * (q * q + p * p)))
    return out


def verify_cluster_bound(w: WitnessFamily) -> GeometryReport:
    """|a_i(z) - b_{I,n}(z)| < |z|^(n-1) * eta at sampled z with |z| = |z0|,
    for every cluster (I, n) and i in I.

    b_{I,n} is a_i truncated below depth n, so a_i - b_{I,n} = z^n T_i(z)
    with T_i the tail of a_i past depth n, and every sample lies exactly
    on |z| = |z0|: |a_i(z) - b_{I,n}(z)|^2 = |z0|^(2n) |T_i(z)|^2.  Each
    tail is evaluated once per sample in integers (``_evaluate``), the
    samples are compared by cross-multiplying, and the worst becomes one
    exact Fraction per record."""
    points = _circle_points(w.z0, BOUND_SAMPLES)
    z0_abs2 = w.z0.abs2()
    records: list[CheckRecord] = []
    for c in w.forest.clusters:
        n = c.depth
        bound2 = z0_abs2 ** (n - 1) * w.eta * w.eta
        for i in c.indices():
            best, best_s2 = 0, 1
            for re, im, s in _evaluate(w.polys[i - 1][n:], points):
                abs2, s2 = re * re + im * im, s * s
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
    coeffs = [
        [_double(c, f"coefficient {k} of strand {i}", strand=i, coefficient=k) for k, c in enumerate(p)]
        for i, p in enumerate(w.polys, start=1)
    ]
    z0 = complex(_double(w.z0.re, "Re z0", field="z0"), _double(w.z0.im, "Im z0", field="z0"))
    scale = 1.0
    for i, cs in enumerate(coeffs, start=1):
        p = _horner(cs, z0)
        size = math.hypot(p.real, p.imag)  # abs(p) raises near the largest double
        if not size < math.inf:
            raise SizeLimit(f"a_{i}(z0) is past the range of a double", strand=i)
        scale = max(scale, size)
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
    """Outcome of comparing the tracked braid with the cluster twists."""

    __slots__ = ("braid", "tracked", "symbolic", "conjugator", "exact")

    def __init__(
        self,
        braid: BraidWord,
        tracked: FreeAutomorphism,
        symbolic: FreeAutomorphism,
        conjugator: Optional[FreeWord],
        exact: bool,
    ):
        _set(self, "braid", braid)
        _set(self, "tracked", tracked)
        _set(self, "symbolic", symbolic)
        _set(self, "conjugator", conjugator)
        _set(self, "exact", exact)

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
