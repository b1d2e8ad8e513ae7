"""The leaping strand tracker against the tracker that evaluates every grid
time (``oracles.every_sample_track``): equal braids or equal errors, the
work it saves, its fallbacks, and the linking numbers of its braids."""

import math
import random
import statistics
from collections import Counter
from fractions import Fraction as F

import pytest

from branchmono import _tracker
from branchmono.errors import BranchMonoError
from branchmono.intersection import BranchInput, compute_matrix
from branchmono.topocheck import MAX_SAMPLES, WitnessFamily, track_braid
from conftest import DATA_FAMILIES as DATA
from conftest import POOL, random_ultrametric_matrix
from oracles import EverySampleTracker, bisection_crossing_time, depth_partition, entries, every_sample_track

# a_1 - a_2 vanishes at z = -3/256, on the loop, yet the tracker passes it
# (a known false pass); the leaping tracker must not differ there either.
TOUCH = WitnessFamily.from_json_dict(
    {
        "coefficients": [["0"], ["3/256", "1"], ["6/256", "2"]],
        "eta": "1/8",
        "r": "1/64",
        "z0": ["9/1280", "12/1280"],
    }
)


def family(*polys, eta="1/8", r="1/64", z0=(F(3, 256), F(0)), samples=1024):
    return WitnessFamily(
        polys=tuple(tuple(F(c) for c in p) for p in polys), eta=F(eta), r=F(r), z0=z0, samples=samples
    )


# Strands |z0|^6 ~ 3e-12 apart, which the flat tracker reports as colliding.
DEEP = family((0,), (0,) * 6 + (1,), (0,) * 6 + (2,))


def outcome(track, w, samples=None):
    """The letters, or the error's type, message and details."""
    try:
        return track(w, samples=samples).letters
    except BranchMonoError as exc:
        return type(exc).__name__, str(exc), exc.details


def assert_matches_oracle(w, samples=None):
    assert outcome(track_braid, w, samples) == outcome(every_sample_track, w, samples)


@pytest.mark.parametrize("samples", [16, 1024, 4096])
def test_pool_matches_every_sample_tracker(samples):
    for w in POOL:
        assert_matches_oracle(w, samples)


@pytest.mark.parametrize("name", sorted(DATA))
def test_data_families_match_every_sample_tracker(name):
    assert_matches_oracle(DATA[name])


@pytest.mark.parametrize("samples", [16, 1024, 4096])
def test_touch_and_deep_families_match_every_sample_tracker(samples):
    assert outcome(track_braid, TOUCH, samples) == outcome(every_sample_track, TOUCH, samples)
    deep = outcome(track_braid, DEEP, samples)
    assert deep[0] == "UnresolvedCrossing" and "collide" in deep[1]
    assert deep == outcome(every_sample_track, DEEP, samples)


def random_family(rng):
    """A random cluster structure realized as polynomials, with generic
    tails past its deepest split and z0 turned by a random Gaussian unit:
    some track, and some fail, mostly because the turned z0 puts the
    labels out of order, which is checked after the whole turn is tracked."""
    mat = random_ultrametric_matrix(rng, rng.randint(2, 5), 3)
    depth = max(mat.steps) + 1
    coeffs = [[F(0)] * (depth + 2) for _ in range(mat.d)]
    for n in range(depth):
        for block in depth_partition(mat, range(mat.d), n + 1):
            for i in block:
                coeffs[i][n] = F(block[0])
    for cs in coeffs:
        cs[depth:] = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
    p, q = rng.randint(0, 3), rng.randint(1, 3)
    z0 = (F(3, 256) * F(q * q - p * p, q * q + p * p), F(3, 256) * F(2 * p * q, q * q + p * p))
    return WitnessFamily(
        polys=tuple(map(tuple, coeffs)), eta=F(1, 8), r=F(1, 64), z0=z0, samples=rng.choice((16, 64, 512))
    )


def test_random_families_match_every_sample_tracker():
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(60):
        w = random_family(rng)
        result = outcome(track_braid, w)
        assert result == outcome(every_sample_track, w)
        kinds[result[0] if result and isinstance(result[0], str) else "tracked"] += 1
    assert kinds["tracked"] >= 20 and kinds["UnresolvedCrossing"] >= 5


def framed_tracker(w, samples=1024):
    """A tracker of w's strands in the identity frame, at scale 1."""
    coeffs, z0, _ = w.doubles
    return _tracker._Tracker(coeffs, z0, samples, 1.0, 1)


def test_crossing_search_is_bit_identical_on_padded_strands():
    # A tracker pads its strands to one length with zero coefficients of
    # higher degree; the oracle here gets them unpadded.
    rng = random.Random(7)
    for w in POOL[:16]:
        leaping = framed_tracker(w)
        walking = EverySampleTracker(*w.doubles[:2], 1024, 1.0, 1)
        walking.coeffs = [cs[: len(p)] for cs, p in zip(walking.coeffs, w.polys)]
        for _ in range(8):
            left, right = rng.sample(range(w.d), 2)
            t_lo = rng.random()
            t_hi = t_lo + rng.choice((1 / 1024, 1 / 16, 0.5))
            assert leaping.crossing_time(left, right, t_lo, t_hi) == walking.crossing_time(
                left, right, t_lo, t_hi
            )
    assert any(len({len(p) for p in w.polys}) > 1 for w in POOL[:16])


def test_crossing_time_is_the_bisection_oracles_within_resolution():
    """Brackets at random times over the pool.  Where the two strands'
    projected gap differs in sign at the ends, false position and
    bisection stop within the same resolution of one crossing; where it
    does not, both halve the bracket until they meet a sign change, or
    run to its high end.  Where the computed gap is exactly 0 over a
    stretch of time (its rounding is coarser than the resolution there),
    bisection runs to the stretch's far end, and false position stops at
    the first zero it meets."""
    rng = random.Random(20261020)
    brackets = Counter()
    for w in POOL:
        tracker = framed_tracker(w)

        def gap(t):
            pos = tracker.positions(t)
            return (pos[right] - pos[left]).real

        for _ in range(60):
            left, right = rng.sample(range(w.d), 2)
            t_lo = rng.random()
            t_hi = t_lo + rng.choice((1 / 1024, 1 / 64, 1 / 16, 1 / 4))
            resolution = 1e-9 * (t_hi - t_lo)
            got = tracker.crossing_time(left, right, t_lo, t_hi)
            assert t_lo < got < t_hi
            kind = "sign change" if (gap(t_lo) > 0) != (gap(t_hi) > 0) else "same sign"
            if abs(got - bisection_crossing_time(tracker, left, right, t_lo, t_hi)) >= resolution:
                assert gap(got) == 0
                kind = "zero"
            brackets[kind] += 1
    # One bracket of the pool's meets such a stretch.
    assert brackets["sign change"] >= 300 and brackets["same sign"] >= 3000 and brackets["zero"] == 1


def test_tracking_with_the_bisection_oracle_gives_the_same_outcomes(monkeypatch):
    rng = random.Random(20261020)
    families = POOL + [random_family(rng) for _ in range(200)]
    outcomes = [outcome(track_braid, w) for w in families]
    monkeypatch.setattr(_tracker._Tracker, "crossing_time", bisection_crossing_time)
    assert [outcome(track_braid, w) for w in families] == outcomes
    assert sum(not (o and isinstance(o[0], str)) for o in outcomes) >= 100


def test_a_crossing_costs_a_few_gap_evaluations(monkeypatch):
    # Each gap evaluates two strands; the bisection took about 31 gaps.
    calls = [0]
    horner = _tracker._horner
    method = _tracker._Tracker.crossing_time
    per_crossing = []

    def counted(cs, z):
        calls[0] += 1
        return horner(cs, z)

    def crossing_time(self, *args):
        before = calls[0]
        result = method(self, *args)
        per_crossing.append((calls[0] - before) / 2)
        return result

    monkeypatch.setattr(_tracker, "_horner", counted)
    monkeypatch.setattr(_tracker._Tracker, "crossing_time", crossing_time)
    for w in POOL:
        track_braid(w)
    assert len(per_crossing) >= 20 * len(POOL)
    assert statistics.median(per_crossing) <= 8


def test_a_curved_gap_closes_from_both_ends(monkeypatch):
    """a1 = 99/100 and a2 = z^3 at z0 = 1: the gap cos(6 pi t) - 0.99 is
    far from linear over wide brackets around its root acos(0.99)/(6 pi).
    Plain false position keeps one end there and creeps from the other
    (27 to 66 gap evaluations, and its 64 steps can end far from the
    root); the Illinois rule closes both ends in a few steps."""
    tracker = framed_tracker(family((F(99, 100),), (0, 0, 0, 1), r="3/2", z0=(F(1), F(0))))
    root = math.acos(0.99) / (6 * math.pi)
    calls = [0]
    horner = _tracker._horner

    def counted(cs, z):
        calls[0] += 1
        return horner(cs, z)

    monkeypatch.setattr(_tracker, "_horner", counted)
    for t_lo, t_hi in [(0.0, root + 0.01), (root - 0.001, 0.15), (0.0, 0.1)]:
        calls[0] = 0
        got = tracker.crossing_time(0, 1, t_lo, t_hi)
        assert abs(got - root) < 1e-9 * (t_hi - t_lo)
        assert calls[0] // 2 <= 16


def count_calls(monkeypatch, name):
    """Record every return value of the tracker method ``name``."""
    seen = []
    method = getattr(_tracker._Tracker, name)

    def counted(self, *args):
        seen.append(method(self, *args))
        return seen[-1]

    monkeypatch.setattr(_tracker._Tracker, name, counted)
    return seen


def test_tracking_costs_per_crossing_not_per_sample(monkeypatch):
    positions = count_calls(monkeypatch, "positions")
    for w in POOL:
        positions.clear()
        track_braid(w, samples=2**16)
        assert len(positions) < 2000


def test_constant_family_leaps_the_whole_turn(monkeypatch):
    # a_2 - a_1 has no z term, so every speed bound is 0 and the horizon is
    # capped at one turn: t = 0 and t = 1 are the only grid times evaluated.
    leaps = count_calls(monkeypatch, "leap")
    w = family((0,), (1,))
    for samples in (16, MAX_SAMPLES):
        leaps.clear()
        assert track_braid(w, samples=samples).letters == ()
        assert leaps == [samples]


def test_speed_bound_past_double_range_steps_every_sample(monkeypatch):
    # a_2 = 10^307 z at |z0| = 10 stays within range, but its speed bound
    # 2 pi 10^308 does not: every frame falls back to one grid step a time.
    w = family((0,), (0, 10**307), r=16, z0=(F(10), F(0)), samples=64)
    assert _tracker._Tracker([[0.0], [0.0, 1e307]], 10 + 0j, 64, 1.0, 1).speed(0, 1) == float("inf")
    leaps = count_calls(monkeypatch, "leap")
    assert track_braid(w).letters == (1, 1)
    assert set(leaps) == {1} and len(leaps) >= 64
    monkeypatch.undo()
    assert_matches_oracle(w)


def linking(braid):
    """Signed crossings of each pair of strands (0-based, i < j)."""
    at = list(range(braid.strands))
    out = Counter()
    for letter in braid.letters:
        k = abs(letter) - 1
        a, b = at[k], at[k + 1]
        out[min(a, b), max(a, b)] += 1 if letter > 0 else -1
        at[k], at[k + 1] = b, a
    return out


# Two strands whose difference has a zero near the loop |z| = |z0|, so
# they cross both ways: (letters, zeros of a_1 - a_2 in |z| < |z0|).
#   a_1 - a_2 = -z (3 + z + 3z^2): zeros 0 and (-1 +- i sqrt 35)/6, of
#   modulus 1, against |z0| = 0.86;
#   a_1 - a_2 = 2 (z - 1)^2 (z + 1): zeros of modulus 1, |z0| = 0.985.
BOTH_WAYS = [
    (family((2, -3, -1, -3), (2,), r="3/2", z0=(F(7, 10), F(-1, 2))), (1, -1, 1, 1, -1, 1), 1),
    (family((3, -2, -2, 2), (1,), r="3/2", z0=(F(9, 10), F(2, 5))), (1, 1, -1, -1), 0),
]


@pytest.mark.parametrize("w, letters, zeros", BOTH_WAYS, ids=["net-2", "net-0"])
@pytest.mark.parametrize("samples", [256, 1024, 4096])
def test_crossings_both_ways_match_every_sample_tracker(w, letters, zeros, samples):
    """Negative crossings: the letters are the oracle's, and by the
    argument principle their signed sum is twice the number of zeros."""
    assert outcome(track_braid, w, samples) == letters
    assert_matches_oracle(w, samples)
    assert sum(1 if x > 0 else -1 for x in letters) == 2 * zeros


@pytest.mark.parametrize("name", ["pool", "family_3pt", "family_4pt", "family_eta10"])
def test_strands_i_and_j_twist_e_ij_times(name):
    # The paper's twists: strands that agree to depth e_ij turn about each
    # other e_ij full times as z0 goes once around 0, all positively.
    for w in POOL if name == "pool" else [DATA[name]]:
        length = max(map(len, w.polys)) + 1
        padded = tuple(p + (F(0),) * (length - len(p)) for p in w.polys)
        e = entries(compute_matrix(BranchInput(mode="series", points=padded, truncation=length)))
        crossings = linking(track_braid(w))
        assert all(
            crossings[i, j] == 2 * e[i][j] for i in range(w.d) for j in range(i + 1, w.d)
        ), name
