"""Separating-circle geometry and the strand-tracking oracle."""

import math
import random
from fractions import Fraction as F

import pytest

from branchmono import topocheck
from branchmono.braid import braid_action, half_twist
from branchmono.clusters import Cluster, ClusterForest, compute_clusters
from branchmono.errors import (
    InvalidInput,
    NotCanonicallyOrdered,
    ParametersTooLarge,
    SizeLimit,
    UnresolvedCrossing,
)
from branchmono.freegroup import is_inner_shift
from branchmono.intersection import ECHO_LIMIT
from branchmono.monodromy import monodromy_automorphism
from branchmono.topocheck import (
    BOUND_SAMPLES,
    MAX_SAMPLES,
    RationalComplex,
    WitnessFamily,
    _evaluate,
    _exact,
    _limit_denominator,
    _point,
    _raise_if_failed,
    check_samples,
    track_braid,
    verify_cluster_bound,
    verify_monodromy_oracle,
    verify_separation,
)
from conftest import DATA_FAMILIES, POOL
from oracles import (
    entries,
    eval_poly,
    fraction_cluster_bound,
    fraction_separation,
    window_inner_shift,
)

Z0 = RationalComplex(F(3, 64))
PARAMS = dict(eta=F(1, 8), r=F(1, 16), z0=Z0)


def family_3pt(**kw):
    # a1 = 0, a2 = x^2, a3 = x
    return WitnessFamily(
        polys=((F(0),), (F(0), F(0), F(1)), (F(0), F(1))), **{**PARAMS, **kw}
    )


def family_4pt(**kw):
    # a1 = 0, a2 = x, a3 = 1, a4 = 1 + x^2
    return WitnessFamily(
        polys=((F(0),), (F(0), F(1)), (F(1),), (F(1), F(0), F(1))), **{**PARAMS, **kw}
    )


def test_rational_complex_arithmetic():
    a = RationalComplex(F(1, 2), F(1, 3))
    assert a.abs2() == F(13, 36)
    assert RationalComplex.from_json(["3/64", 0]) == Z0
    assert RationalComplex.from_json("-1/3") == RationalComplex(F(-1, 3), F(0))
    assert _point(RationalComplex(F(1, 6), F(-3, 4))) == (2, -9, 12)


def test_eval_poly_exact():
    # 1 + z^2 at z = (1 + i)/2 is 1 + i/2, over L N^m = 1 * 2^2.
    z = _point(RationalComplex(F(1, 2), F(1, 2)))
    assert _evaluate((F(1), F(0), F(1)), [z]) == [(4, 2, 4)]
    assert _evaluate((), [z, z]) == [(0, 0, 1), (0, 0, 1)]
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 8))]
        z = (F(rng.randint(-9, 9), rng.randint(1, 30)), F(rng.randint(-9, 9), rng.randint(1, 30)))
        [(re, im, s)] = _evaluate(coeffs, [_point(RationalComplex(*z))])
        assert (F(re, s), F(im, s)) == eval_poly(coeffs, z)


def test_exact_values_past_the_digit_limit_print_bounded():
    assert _exact(F(-3, 64)) == "-3/64"
    assert _exact(F(10**4000 + 1, 3)) == str(F(10**4000 + 1, 3))
    assert _exact(F(3, 4 * 10**4400)) == "~7.500000e-4401"
    assert _exact(-F(10**5000 * 5, 3)) == "~-1.666667e5000"


def test_family_validation():
    with pytest.raises(InvalidInput):
        family_3pt(z0=RationalComplex(F(1, 16)))  # |z0| = r
    with pytest.raises(InvalidInput):
        family_3pt(z0=RationalComplex(F(1, 40)))  # |z0| < r/2
    with pytest.raises(InvalidInput):
        WitnessFamily(polys=((F(0),), (F(0), F(0))), **PARAMS)  # duplicates after trim


@pytest.mark.parametrize(
    "eta, r, z0",
    [
        ("1/8", "1" + "0" * 310, ["1" + "0" * 309, "0"]),  # |z0|^2 has 619 digits
        ("1/8", "1", ["1" + "0" * 3000, "0"]),  # past int-to-str's digit limit
        ("-1" + "0" * 3000, "1/64", ["1/100", "0"]),
        ("1/8", "-1" + "0" * 3000, ["1/100", "0"]),
    ],
)
def test_family_errors_echo_bounded_values(eta, r, z0):
    doc = {"coefficients": [["0"], ["1"]], "eta": eta, "r": r, "z0": z0}
    with pytest.raises(InvalidInput) as info:
        WitnessFamily.from_json_dict(doc)
    assert len(str(info.value)) < 2 * ECHO_LIMIT + 100


def test_family_requires_canonical_order():
    with pytest.raises(NotCanonicallyOrdered):
        WitnessFamily(
            polys=((F(0),), (F(0), F(1)), (F(0), F(0), F(1))), **PARAMS
        )  # e12=1, e13=2: row not weakly decreasing


def test_forest_of_families():
    assert family_3pt().forest.clusters == (Cluster(1, 3, 1), Cluster(1, 2, 2))
    assert family_4pt().forest.clusters == (
        Cluster(1, 2, 1),
        Cluster(3, 2, 1),
        Cluster(3, 2, 2),
    )


def test_separation_passes_frozen_parameters():
    rep = verify_separation(family_3pt())
    assert rep.passed
    rep = verify_separation(family_4pt())
    assert rep.passed


def test_separation_vacuous_without_clusters():
    fam = WitnessFamily(polys=((F(0),), (F(1),)), **PARAMS)
    rep = verify_separation(fam)
    assert rep.passed
    assert all(r.kind == "distinct-values" for r in rep.records)


def test_separation_oversized_eta():
    with pytest.raises(ParametersTooLarge) as info:
        verify_separation(family_3pt(eta=F(10)))
    assert "membership" in str(info.value) or info.value.details["violations"]


def test_cluster_bound_passes():
    assert verify_cluster_bound(family_3pt()).passed
    assert verify_cluster_bound(family_4pt()).passed


def test_cluster_bound_exact_center():
    # a_i equal to the center polynomial: left side is 0, eta > 0
    fam = WitnessFamily(
        polys=((F(0),), (F(0), F(0), F(1))), **PARAMS
    )  # a1 = 0 = b_{I,n} for every depth
    rep = verify_cluster_bound(fam)
    assert rep.passed


def test_cluster_bound_eta_zero_fails():
    with pytest.raises(ParametersTooLarge):
        verify_cluster_bound(family_3pt(eta=F(0)))


def test_track_braid_full_twist():
    fam = WitnessFamily(polys=((F(0),), (F(0), F(1))), samples=256, **PARAMS)
    assert track_braid(fam).letters == (1, 1)


def test_track_braid_constant_family_empty():
    fam = WitnessFamily(polys=((F(0),), (F(1),)), samples=256, **PARAMS)
    assert track_braid(fam).letters == ()


def test_track_braid_is_pure():
    braid = track_braid(family_3pt(samples=1024))
    assert braid.is_pure()


def test_track_braid_invariant_under_doubling():
    fam = family_3pt()
    assert track_braid(fam, samples=1024) == track_braid(fam, samples=2048)
    fam4 = family_4pt()
    assert track_braid(fam4, samples=1024) == track_braid(fam4, samples=2048)


def test_track_braid_collision_unresolved():
    # a2 = x^2 + 9/4096 meets a1 = 0 on the tracking circle at t = 1/4
    fam = WitnessFamily(
        polys=((F(0),), (F(9, 4096), F(0), F(1))), samples=256, **PARAMS
    )
    with pytest.raises(UnresolvedCrossing):
        track_braid(fam)


def test_track_braid_rejects_unordered_basepoint():
    # a1 = x, a2 = 0: matrix is canonical (single pair) but at z0 the
    # values sort as a2 < a1, so strand 1 does not start leftmost.
    fam = WitnessFamily(polys=((F(0), F(1)), (F(0),)), samples=256, **PARAMS)
    with pytest.raises(UnresolvedCrossing, match="label order"):
        track_braid(fam)


def test_oracle_3pt_family():
    """End-to-end: the tracked braid acts like the composed twists for the
    nested three-point family (this re-derives the d=3 composition example
    through an independent computation path)."""
    report = verify_monodromy_oracle(family_3pt(), samples=1024)
    assert report.consistent
    forest_aut = monodromy_automorphism(
        ClusterForest(3, (Cluster(1, 3, 1), Cluster(1, 2, 2)))
    )
    assert is_inner_shift(report.tracked, forest_aut) is not None


def test_oracle_4pt_family():
    report = verify_monodromy_oracle(family_4pt(), samples=1024)
    assert report.consistent
    assert report.braid.is_pure()


def family_from_matrix(mat, eta=F(1, 8), r=F(1, 64), z0re=F(3, 256), samples=1024):
    """Realize a canonical ultrametric matrix as a polynomial family.

    Coefficient n of a_i is the least member of i's block in the
    "pairwise e >= n+1" partition, so v(a_i - a_j) = e_ij exactly, and at
    a small real z0 the values stay in label order.
    """
    from oracles import depth_partition

    d = mat.d
    coeffs = [[F(0)] * (max(mat.steps) + 1) for _ in range(d)]
    for n in range(max(mat.steps) + 1):
        for block in depth_partition(mat, range(d), n + 1):
            for i in block:
                coeffs[i][n] = F(block[0])
    return WitnessFamily(
        polys=tuple(tuple(c) for c in coeffs),
        eta=eta,
        r=r,
        z0=RationalComplex(z0re),
        samples=samples,
    )


def test_oracle_random_structures(rng):
    """Randomized end-to-end check: for random cluster structures realized
    as polynomial families, the tracked braid action matches the twist
    product up to one inner automorphism."""
    from conftest import random_ultrametric_matrix

    seen = set()
    for _ in range(40):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 4), 3)
        if mat in seen:
            continue
        seen.add(mat)
        fam = family_from_matrix(mat)
        assert fam.forest == compute_clusters(mat)
        assert verify_separation(fam).passed
        assert verify_cluster_bound(fam).passed
        report = verify_monodromy_oracle(fam)
        assert report.consistent, f"oracle mismatch for {entries(mat)}"
    assert len(seen) >= 15


def test_oracle_report_json():
    doc = verify_monodromy_oracle(family_3pt(), samples=512).to_json_dict()
    assert doc["kind"] == "oracle"
    assert doc["consistent"] is True


def test_oracle_deeper_nesting():
    # a = (0, x^3, x^2): forest {({1,2,3},1), ({1,2,3},2), ({1,2},3)}
    fam = WitnessFamily(
        polys=((F(0),), (F(0), F(0), F(0), F(1)), (F(0), F(0), F(1))),
        samples=2048,
        **PARAMS,
    )
    assert fam.forest.clusters == (
        Cluster(1, 3, 1),
        Cluster(1, 3, 2),
        Cluster(1, 2, 3),
    )
    assert verify_separation(fam).passed
    assert verify_cluster_bound(fam).passed
    report = verify_monodromy_oracle(fam)
    assert report.consistent


def test_oracle_mixed_structure_d5():
    # a = (0, x^2, x, 1, 1+x): two root clusters, one nested pair
    fam = WitnessFamily(
        polys=(
            (F(0),),
            (F(0), F(0), F(1)),
            (F(0), F(1)),
            (F(1),),
            (F(1), F(1)),
        ),
        samples=2048,
        **PARAMS,
    )
    assert fam.forest.clusters == (
        Cluster(1, 3, 1),
        Cluster(4, 2, 1),
        Cluster(1, 2, 2),
    )
    assert verify_separation(fam).passed
    assert verify_cluster_bound(fam).passed
    report = verify_monodromy_oracle(fam)
    assert report.consistent


def test_track_braid_imaginary_basepoint_uses_rotation():
    # purely imaginary z0 puts both strands on the same vertical line at
    # t = 0; the tracker must fall back to a rotated projection frame.
    fam = WitnessFamily(
        polys=((F(0),), (F(0), F(1))),
        eta=F(1, 8),
        r=F(1, 16),
        z0=RationalComplex(F(0), F(3, 64)),
        samples=256,
    )
    assert track_braid(fam).letters == (1, 1)


# Collinear strands c + k*x^n cross at one point, all at once, in every
# projection frame; each such crossing is a Garside half-twist of the block.
COLLINEAR = dict(eta=F(1, 8), r=F(1, 64), z0=RationalComplex(F(3, 256)))


def collinear_family(*polys, **kw):
    return WitnessFamily(
        polys=tuple(tuple(F(c) for c in p) for p in polys), **{**COLLINEAR, **kw}
    )


@pytest.mark.parametrize(
    "polys",
    [
        ((0,), (0, 1), (0, 2)),
        ((0,), (0, 1), (0, 2), (0, 3)),
        ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)),
        ((0,), (0, 0, 1), (0, 0, 2), (0, 1)),
    ],
    ids=["three", "four", "two-triples-at-once", "triple-at-depth-2"],
)
def test_oracle_collinear_strands(polys):
    fam = collinear_family(*polys)
    assert verify_separation(fam).passed
    report = verify_monodromy_oracle(fam, samples=1024)
    assert report.consistent
    assert report.braid.is_pure()
    assert track_braid(fam, samples=2048) == report.braid


def test_track_braid_three_collinear_is_full_twist():
    fam = collinear_family((0,), (0, 1), (0, 2))
    delta = half_twist(1, 3, 3)
    assert track_braid(fam, samples=1024) == delta * delta


def test_track_braid_half_twist_off_first_position():
    # a = (0, 1 + x, 1 + 2x, 1 + 3x): the block sits at positions 2..4 and
    # crosses twice, with increasing imaginary parts both times.
    fam = collinear_family((0,), (1, 1), (1, 2), (1, 3))
    assert track_braid(fam, samples=1024).letters == (2, 3, 2) * 2


def test_track_braid_collinear_block_collision_unresolved():
    # a = (0, u, 2u) with u = (x - w)(x - conj w), |w| = |z0|: the block
    # lines up and reverses at arg w / 2pi, where all its strands meet.
    u = (F(9, 65536), F(-9, 640), F(1))
    fam = collinear_family((0,), u, tuple(2 * c for c in u), samples=1024)
    with pytest.raises(UnresolvedCrossing, match="collide") as info:
        track_braid(fam)
    assert info.value.details["strands"] == [1, 2]
    t_lo, t_hi = info.value.details["t_window"]
    assert t_lo < 0.1475836 < t_hi  # atan2(4, 3) / 2pi


def test_track_braid_errors_name_strands_and_window(monkeypatch):
    fam = WitnessFamily(
        polys=((F(0),), (F(9, 4096), F(0), F(1))), samples=256, **PARAMS
    )
    with pytest.raises(UnresolvedCrossing) as info:
        track_braid(fam)
    assert info.value.details == {"strands": [1, 2], "t_window": [0.25, 0.25]}
    imaginary = WitnessFamily(
        polys=((F(0),), (F(0), F(1))),
        eta=F(1, 8),
        r=F(1, 16),
        z0=RationalComplex(F(0), F(3, 64)),
        samples=256,
    )
    monkeypatch.setattr(topocheck, "MAX_ROTATIONS", 1)
    with pytest.raises(UnresolvedCrossing, match=r"after 1 frame rotations; last: strands \[1, 2\]") as info:
        track_braid(imaginary)
    assert info.value.details == {"strands": [1, 2], "t_window": [0.0, 0.0]}


def test_track_braid_collinear_block_at_depth_5():
    # Strands |z0|^5 ~ 2e-10 apart: a projection tie near each crossing
    # must stay within rounding, or every frame's grid would meet it.
    fam = collinear_family((0,), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2))
    report = verify_monodromy_oracle(fam, samples=1024)
    assert report.consistent
    assert report.braid == half_twist(1, 3, 3) ** 10


# ---------------------------------------------------------------------------
# The integer geometry against the Gaussian-rational oracles.


def assert_matches_oracle(check, oracle, w):
    """Same report on success; the same message, details and report on
    failure.  Returns whether the check held."""
    expected = oracle(w)
    if expected.passed:
        assert check(w).to_json_dict() == expected.to_json_dict()
        return True
    with pytest.raises(ParametersTooLarge) as got:
        check(w)
    with pytest.raises(ParametersTooLarge) as want:
        _raise_if_failed(expected)
    assert got.value.to_json_dict() == want.value.to_json_dict()
    assert got.value.report.to_json_dict() == expected.to_json_dict()
    return False


def assert_bound_matches_oracle(w):
    return assert_matches_oracle(verify_cluster_bound, fraction_cluster_bound, w)


def assert_separation_matches_oracle(w):
    return assert_matches_oracle(verify_separation, fraction_separation, w)


def random_rational(rng, den):
    return F(rng.randint(-9, 9), rng.randint(1, den))


def random_bound_family(rng):
    """Up to 8 strands that share prefixes of a base polynomial up to depth
    5, listed in lexicographic (hence canonical) order; some strands end at
    their prefix, so their tail is empty.  z0 is real, purely imaginary or
    general, with unrelated denominators in its two parts."""
    base = [random_rational(rng, 5) for _ in range(6)]
    polys = set()
    for _ in range(rng.randint(2, 8)):
        depth = rng.randint(0, 5)
        tail = [random_rational(rng, 7) for _ in range(rng.choice((0, 1, 2)))]
        poly = list(base[:depth]) + tail
        while poly and poly[-1] == 0:
            poly.pop()
        polys.add(tuple(poly))
    if len(polys) < 2:
        polys.add((F(1, 2),) * 7)
    width = max(len(p) for p in polys)
    polys = sorted(polys, key=lambda p: p + (F(0),) * (width - len(p)))
    kind = rng.choice(("real", "imaginary", "complex"))
    re = F(rng.randint(1, 20), rng.choice((64, 128, 256)))
    im = F(rng.randint(1, 20), rng.choice((81, 125, 243)))
    z0 = {
        "real": RationalComplex(re * rng.choice((1, -1))),
        "imaginary": RationalComplex(F(0), im * rng.choice((1, -1))),
        "complex": RationalComplex(re * rng.choice((1, -1)), im * rng.choice((1, -1))),
    }[kind]
    r = F(math.sqrt(z0.abs2()) * 1.5).limit_denominator(10**4)
    eta = rng.choice((F(0), F(1, 100000), F(1, 64), F(1, 8), F(1), F(1000)))
    return WitnessFamily(polys=tuple(polys), eta=eta, r=r, z0=z0)


def test_oracle_cluster_bound_random_families():
    rng = random.Random(20261018)
    families = [random_bound_family(rng) for _ in range(24)]
    for eta in (F(1, 8), F(0), F(1, 100000)):
        families += [family_3pt(eta=eta), family_4pt(eta=eta)]
    outcomes = [assert_bound_matches_oracle(w) for w in families]
    assert True in outcomes and False in outcomes


def test_oracle_separation_random_families():
    rng = random.Random(20261018)
    families = [random_bound_family(rng) for _ in range(40)]
    for eta in (F(1, 8), F(10), F(0)):
        families += [family_3pt(eta=eta), family_4pt(eta=eta)]
    outcomes = [assert_separation_matches_oracle(w) for w in families]
    assert outcomes.count(True) >= 5 and outcomes.count(False) >= 5


@pytest.mark.parametrize("source", ["pool", "data"])
def test_oracle_geometry_on_the_pool_and_data_families(source):
    # The Fraction bound takes about 0.26 s a pool family, so it checks
    # every fourth; the separation oracle checks them all.
    families = POOL if source == "pool" else list(DATA_FAMILIES.values())
    for w in families:
        assert_separation_matches_oracle(w)
    for w in families[::4] if source == "pool" else families:
        assert_bound_matches_oracle(w)


def test_limit_denominator_is_fractions():
    """The integer continued fraction returns what Fraction does: on the
    bound's sample angles, random doubles of every size and sign, and
    values whose denominators are already within the limit."""
    rng = random.Random(20261019)
    count = BOUND_SAMPLES - 1
    xs = [math.tan(math.pi * ((k + 0.5) / count - 0.5)) for k in range(count)]
    xs += [rng.uniform(-1e3, 1e3) for _ in range(5000)]
    xs += [rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-320, 300) for _ in range(5000)]
    xs += [0.0, -0.0, 3.0, -0.25, 999999.5, 2.0**-20, 1.5e-6, -1e-300, 5e-324, 1e300]
    xs += [rng.randint(-10**6, 10**6) / 2 ** rng.randint(0, 19) for _ in range(200)]
    for limit in (10**6, 1, 7):
        for x in xs:
            want = F(x).limit_denominator(limit)
            assert _limit_denominator(x, limit) == (want.numerator, want.denominator), (x, limit)


def test_inner_shift_matches_window_oracle_on_tracked_pairs():
    """The pool's and the tracking test families' (tracked, symbolic)
    pairs: the same conjugator, or None from both."""
    outcomes = []
    for w in POOL + [w for name, w in DATA_FAMILIES.items() if name != "family_collision"]:
        tracked = braid_action(track_braid(w))
        symbolic = monodromy_automorphism(w.forest)
        got = is_inner_shift(tracked, symbolic)
        assert got == window_inner_shift(tracked, symbolic)
        outcomes.append(got is not None)
    assert outcomes.count(True) >= len(POOL) and False in outcomes


@pytest.mark.parametrize(
    "polys, eta, z0, passes",
    [
        # a2 = x: |a2 - b|^2 = |z0|^2 = eta^2 at every sample, and the
        # bound is strict.
        (((0,), (0, 1)), F(3, 64), RationalComplex(F(3, 64)), False),
        (((0,), (0, 1)), F(5, 128), RationalComplex(F(3, 128), F(4, 128)), False),
        (((0,), (0, 1)), F(3, 64) + F(1, 10**9), RationalComplex(F(3, 64)), True),
        # a2 = x - x^2: |1 - z| is largest at the first sample z = -z0 only.
        (((0,), (0, 1, -1)), F(3, 64) * F(67, 64) + F(1, 10**9), RationalComplex(F(3, 64)), True),
        (((0,), (0, 1, -1)), F(3, 64) * F(67, 64), RationalComplex(F(3, 64)), False),
        # The exact centre: a1 = b, so its left side is 0.
        (((0,), (0, 0, 1)), F(1, 8), RationalComplex(F(3, 64)), True),
        (((0,), (0, 0, 1)), F(0), RationalComplex(F(3, 64)), False),
    ],
)
def test_oracle_cluster_bound_edges(polys, eta, z0, passes):
    w = WitnessFamily(
        polys=tuple(tuple(F(c) for c in p) for p in polys), eta=eta, r=F(1, 16), z0=z0
    )
    assert assert_bound_matches_oracle(w) is passes


# ---------------------------------------------------------------------------
# Sample counts


@pytest.mark.parametrize("value", ["abc", [1], 16.5, 1e3, True])
def test_samples_must_be_an_integer(value):
    with pytest.raises(InvalidInput, match="must be an integer"):
        family_3pt(samples=value)
    with pytest.raises(InvalidInput, match="must be an integer"):
        track_braid(family_3pt(), samples=value)


@pytest.mark.parametrize("value", [-5, 0, 1, 15])
def test_samples_below_16_rejected(value):
    with pytest.raises(InvalidInput, match="at least 16"):
        family_3pt(samples=value)
    with pytest.raises(InvalidInput, match="at least 16"):
        track_braid(family_3pt(), samples=value)


def test_samples_past_cap_is_size_limit():
    # Refused before any grid is built; nothing runs at the cap itself.
    assert check_samples(16) == 16
    assert check_samples(MAX_SAMPLES) == MAX_SAMPLES
    for value in (MAX_SAMPLES + 1, 10**30):
        with pytest.raises(SizeLimit) as info:
            family_3pt(samples=value)
        assert info.value.details == {"cap": MAX_SAMPLES}
        with pytest.raises(SizeLimit) as info:
            track_braid(family_3pt(), samples=value)
        assert info.value.details == {"cap": MAX_SAMPLES}


@pytest.mark.parametrize(
    "coefficients",
    [[["0"], "12"], "12", [["0"], 12], {"a": ["0"]}, None],
    ids=["string-row", "string", "number-row", "object", "missing"],
)
def test_coefficients_must_be_array_of_arrays(coefficients):
    doc = {"eta": "1/8", "r": "1/16", "z0": ["3/64", "0"]}
    if coefficients is not None:
        doc["coefficients"] = coefficients
    with pytest.raises(InvalidInput, match="array of arrays"):
        WitnessFamily.from_json_dict(doc)


def test_tracker_refuses_values_outside_double_range():
    """Where the exact family does not fit the tracker's doubles, the error
    names what does not fit, before any tracking."""
    huge = F(10**400)
    cases = [
        (((F(0),), (huge,)), F(1, 16), RationalComplex(F(3, 64)), {"strand": 2, "coefficient": 0}),
        (((F(0),), (F(0), F(1, 10**400))), F(1, 16), RationalComplex(F(3, 64)), {"strand": 2, "coefficient": 1}),
        (((F(0),), (F(1),)), huge, RationalComplex(huge * 3 / 4), {"field": "z0"}),
        (((F(0),), (F(10**308), F(10**308))), F(16), RationalComplex(F(10)), {"strand": 2}),
        # Both parts of a_2(z0) = (3/2 + 3/2 i) 10^308 fit a double; its modulus does not.
        (((F(0),), (F(15 * 10**307), F(10**308))), F(2), RationalComplex(F(0), F(3, 2)), {"strand": 2}),
    ]
    for polys, r, z0, details in cases:
        w = WitnessFamily(polys=polys, eta=F(1, 8), r=r, z0=z0, samples=64)
        with pytest.raises(SizeLimit) as info:
            track_braid(w)
        assert info.value.details == details
