"""Separating-circle geometry and the strand-tracking oracle."""

import math
import random
import time
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
from branchmono.intersection import DIGIT_CAP, ECHO_LIMIT
from branchmono.monodromy import monodromy_automorphism
from branchmono._tracker import _ROUNDING, _horner, _rounded_samples
from branchmono.topocheck import (
    MAX_SAMPLES,
    WitnessFamily,
    _evaluate,
    _exact,
    _raise_if_failed,
    check_samples,
    is_inner_shift,
    track_braid,
    verify_cluster_bound,
    verify_monodromy_oracle,
    verify_separation,
)
from conftest import DATA_FAMILIES, POOL
from oracles import (
    entries,
    error_terms,
    eval_poly,
    fraction_circle_samples,
    fraction_cluster_bound,
    fraction_separation,
    is_pure,
    window_inner_shift,
)

Z0 = (F(3, 64), F(0))
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


def test_z0_reads_as_a_pair_or_a_real_rational():
    doc = {"coefficients": [["0"], ["0", "1"]], "eta": "1/8", "r": "1/16"}
    assert WitnessFamily.from_json_dict({**doc, "z0": ["3/64", 0]}).z0 == Z0
    assert WitnessFamily.from_json_dict({**doc, "z0": "-3/64"}).z0 == (F(-3, 64), F(0))
    family = WitnessFamily(polys=((F(0),), (F(0), F(1))), eta=F(1, 8), r=F(1, 16), z0=(F(1, 30), F(-1, 24)))
    assert family.point == (4, -5, 120)


def test_eval_poly_exact():
    # 1 + z^2 at z = (1 + i)/2 is 1 + i/2, over L N^m = 1 * 2^2.
    z = (1, 1, 2)
    assert _evaluate((1, 0, 1), 1, [z]) == [(4, 2, 4)]
    assert _evaluate((), 1, [z, z]) == [(0, 0, 1), (0, 0, 1)]
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 8))]
        z = (F(rng.randint(-9, 9), rng.randint(1, 30)), F(rng.randint(-9, 9), rng.randint(1, 30)))
        den = math.lcm(*(c.denominator for c in coeffs))
        n = math.lcm(z[0].denominator, z[1].denominator)
        [(re, im, s)] = _evaluate([int(c * den) for c in coeffs], den, [(int(z[0] * n), int(z[1] * n), n)])
        assert (F(re, s), F(im, s)) == eval_poly(coeffs, z)


def test_exact_values_past_the_digit_limit_print_bounded():
    assert _exact(F(-3, 64)) == "-3/64"
    assert _exact(F(10**4000 + 1, 3)) == str(F(10**4000 + 1, 3))
    assert _exact(F(3, 4 * 10**4400)) == "~7.500000e-4401"
    assert _exact(-F(10**5000 * 5, 3)) == "~-1.666667e5000"


def test_family_validation():
    with pytest.raises(InvalidInput):
        family_3pt(z0=(F(1, 16), F(0)))  # |z0| = r
    with pytest.raises(InvalidInput):
        family_3pt(z0=(F(1, 40), F(0)))  # |z0| < r/2
    with pytest.raises(InvalidInput):
        WitnessFamily(polys=((F(0),), (F(0), F(0))), **PARAMS)  # duplicates after trim


@pytest.mark.parametrize(
    "eta, r, z0",
    [
        ("1/8", "1" + "0" * 310, ["1" + "0" * 309, "0"]),  # |z0|^2 has 619 digits
        ("1/8", "1", ["1" + "0" * 3000, "0"]),  # past int-to-str's digit limit
        ("-1" + "0" * 3000, "1/64", ["1/100", "0"]),
        ("1/8", "-1" + "0" * 3000, ["1/100", "0"]),
        ("1/8", "1/16", ["3/64", "0", "0"]),  # z0 with 3 parts
        ("1/8", "1/16", ["1"] * 100000),
    ],
)
def test_family_errors_echo_bounded_values(eta, r, z0):
    doc = {"coefficients": [["0"], ["1"]], "eta": eta, "r": r, "z0": z0}
    with pytest.raises(InvalidInput) as info:
        WitnessFamily.from_json_dict(doc)
    assert len(str(info.value)) < 2 * ECHO_LIMIT + 100
    if len(z0) != 2:
        assert info.value.details == {"field": "z0"}


FAMILY_DOC = {"coefficients": [["0"], ["0", "0", "1"], ["0", "1"]], "eta": "1/8", "r": "1/16", "z0": ["3/64", "0"]}


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("coefficients", [["0"], ["0", "0", "1"], ["0", "-9.9e-20001"]], {"strand": 3, "coefficient": 1}),
        ("eta", "1e20001", {"field": "eta"}),
        ("r", "1e-20001", {"field": "r"}),
        ("z0", ["3/64", "1e20001"], {"field": "z0"}),
        ("z0", "1e20001", {"field": "z0"}),
    ],
    ids=["coefficient", "eta", "r", "z0-pair", "z0-real"],
)
def test_family_value_past_the_digit_cap_is_named(key, value, where):
    with pytest.raises(SizeLimit) as info:
        WitnessFamily.from_json_dict({**FAMILY_DOC, key: value})
    assert info.value.details == {"cap": DIGIT_CAP, **where}


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
    assert is_pure(braid)


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
    assert is_pure(report.braid)


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
        z0=(z0re, F(0)),
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
        z0=(F(0), F(3, 64)),
        samples=256,
    )
    assert track_braid(fam).letters == (1, 1)


# Collinear strands c + k*x^n cross at one point, all at once, in every
# projection frame; each such crossing is a Garside half-twist of the block.
COLLINEAR = dict(eta=F(1, 8), r=F(1, 64), z0=(F(3, 256), F(0)))


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
    assert is_pure(report.braid)
    assert track_braid(fam, samples=2048) == report.braid


def test_track_braid_three_collinear_is_full_twist():
    fam = collinear_family((0,), (0, 1), (0, 2))
    delta = half_twist(1, 3, 3)
    assert track_braid(fam, samples=1024).letters == delta.letters * 2


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
        z0=(F(0), F(3, 64)),
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
    assert report.braid.letters == half_twist(1, 3, 3).letters * 10


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
        "real": (re * rng.choice((1, -1)), F(0)),
        "imaginary": (F(0), im * rng.choice((1, -1))),
        "complex": (re * rng.choice((1, -1)), im * rng.choice((1, -1))),
    }[kind]
    r = F(math.sqrt(z0[0] ** 2 + z0[1] ** 2) * 1.5).limit_denominator(10**4)
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
        (((0,), (0, 1)), F(3, 64), (F(3, 64), F(0)), False),
        (((0,), (0, 1)), F(5, 128), (F(3, 128), F(4, 128)), False),
        (((0,), (0, 1)), F(3, 64) + F(1, 10**9), (F(3, 64), F(0)), True),
        # a2 = x - x^2: |1 - z| is largest at the first sample z = -z0 only.
        (((0,), (0, 1, -1)), F(3, 64) * F(67, 64) + F(1, 10**9), (F(3, 64), F(0)), True),
        (((0,), (0, 1, -1)), F(3, 64) * F(67, 64), (F(3, 64), F(0)), False),
        # The exact centre: a1 = b, so its left side is 0.
        (((0,), (0, 0, 1)), F(1, 8), (F(3, 64), F(0)), True),
        (((0,), (0, 0, 1)), F(0), (F(3, 64), F(0)), False),
    ],
)
def test_oracle_cluster_bound_edges(polys, eta, z0, passes):
    w = WitnessFamily(
        polys=tuple(tuple(F(c) for c in p) for p in polys), eta=eta, r=F(1, 16), z0=z0
    )
    assert assert_bound_matches_oracle(w) is passes


def test_circle_points_take_half_the_tangents_and_mirror_them():
    """The 63 values of t computed and mirrored give exactly the 128 points
    that the tangents of all 127 angles give."""
    for w in POOL[:8] + list(DATA_FAMILIES.values()):
        points = topocheck._circle_points(w.point, topocheck.BOUND_SAMPLES)
        got = [(F(x, s), F(y, s)) for x, y, s in points]
        assert got == fraction_circle_samples(w.z0, topocheck.BOUND_SAMPLES)


# The float filter of the bound: its edges, its work and its error terms.


def exact_samples(monkeypatch):
    """(numerators, sample count) of every exact evaluation of a tail."""
    seen = []
    evaluate = topocheck._evaluate

    def counted(nums, den, points):
        seen.append((nums, len(points)))
        return evaluate(nums, den, points)

    monkeypatch.setattr(topocheck, "_evaluate", counted)
    return seen


def float_and_exact_argmax(w, i, depth):
    """The sample at which a_i's tail past ``depth`` has the largest modulus
    in doubles, as the filter computes it, and exactly."""
    points = topocheck._circle_points(w.point, topocheck.BOUND_SAMPLES)
    tail = w.doubles[0][i - 1][depth:]
    floats = [abs(_horner(tail, complex(x / s, y / s))) for x, y, s in points]
    nums, den = w.integers[i - 1]
    exact = [F(x * x + y * y, s * s) for x, y, s in _evaluate(nums[depth:], den, points)]
    return floats.index(max(floats)), exact.index(max(exact))


def near_tie_family(seed):
    """a = (0, x^2 + c x^3, x) at a random z0, with |c z0| about 1e-15: a2's
    tail in the root cluster is z (1 + c z), a monomial with a term about
    1e-15 of its size."""
    rng = random.Random(seed)
    c = F(rng.randint(10, 30), 10**15)
    z0 = (F(rng.randint(40, 60), 1024), F(rng.randint(-20, 20), 1024))
    polys = ((F(0),), (F(0), F(0), F(1), c), (F(0), F(1)))
    return WitnessFamily(polys=polys, eta=F(1, 8), r=F(1, 16), z0=z0)


@pytest.mark.parametrize(
    "polys, z0, r",
    [
        # a2's tail in {1, 2} is z^2 (1 + 10^-30 z): in doubles every sample
        # ties.
        (((0,), (0, 0, 0, 1, F(1, 10**30))), Z0, F(1, 16)),
        # a2 = z (10^308 - 10^308 z / 3) at z0 = 3: its tail is 2 10^308 at
        # -z0, past a double.
        (((0,), (0, 10**308, F(-(10**308), 3))), (F(3), F(0)), F(4)),
    ],
    ids=["near-monomial", "overflow"],
)
def test_the_filter_keeps_every_sample_where_the_doubles_cannot_tell(polys, z0, r, monkeypatch):
    w = WitnessFamily(polys=tuple(tuple(F(c) for c in p) for p in polys), eta=F(1, 8), r=r, z0=z0)
    seen = exact_samples(monkeypatch)
    assert_bound_matches_oracle(w)
    assert {k for nums, k in seen if sum(map(bool, nums)) > 1} == {topocheck.BOUND_SAMPLES}


@pytest.mark.parametrize(
    "polys",
    [
        # a2's tail in {1, 2} is z^2.
        ((0,), (0, 0, 0, 1)),
        # a1 = 0 is the centre, so its tail is empty.
        ((0,), (0, 1)),
    ],
    ids=["monomial", "empty-tail"],
)
def test_a_tail_with_at_most_one_nonzero_term_is_evaluated_at_one_sample(polys, monkeypatch):
    """Its modulus is the same at every sample, exactly."""
    w = WitnessFamily(polys=tuple(tuple(F(c) for c in p) for p in polys), eta=F(1, 8), r=F(1, 16), z0=Z0)
    seen = exact_samples(monkeypatch)
    assert_bound_matches_oracle(w)
    assert {k for _, k in seen} == {1}


# a2 = z^100: 100 clusters {1, 2}, each with an empty tail and a monomial.
CHAIN = {"coefficients": [["0"], ["0"] * 100 + ["1"]], "eta": "1/2", "r": "1/16", "z0": "3/64"}


def test_a_deep_chain_of_monomial_tails_is_cheap(monkeypatch):
    """One exact sample a tail: within 0.05 CPU s at 128 samples (every
    sample took 0.8 s), and equal to the Gaussian-rational oracle, whose
    cost keeps it to 8 samples; every sample has the same modulus here."""
    w = WitnessFamily.from_json_dict(CHAIN)
    seen = exact_samples(monkeypatch)
    start = time.process_time()
    report = verify_cluster_bound(w)
    assert time.process_time() - start < 0.05
    assert len(report.records) == 200 and [k for _, k in seen] == [1] * 200
    monkeypatch.setattr(topocheck, "BOUND_SAMPLES", 8)
    assert verify_cluster_bound(w) == fraction_cluster_bound(w, 8)


def test_the_filter_finds_the_exact_maximum_in_a_near_tie():
    """The first near-tie family whose largest sample in doubles is not
    the exact one."""
    w = next(w for w in map(near_tie_family, range(100)) if len(set(float_and_exact_argmax(w, 2, 1))) == 2)
    assert_bound_matches_oracle(w)


def test_the_bound_evaluates_one_or_two_samples_exactly(monkeypatch):
    """A tail with at most one nonzero term has one modulus on the whole
    circle, so one sample is evaluated; on the pool, every other tail is
    evaluated exactly at one or two samples, and each 1201-term tail of
    LONG_TAILS at one."""
    from test_cli import LONG_TAILS

    seen = exact_samples(monkeypatch)
    for w in POOL:
        verify_cluster_bound(w)
    counts = [(sum(map(bool, nums)) <= 1, k) for nums, k in seen]
    assert {k for flat, k in counts if flat} == {1}
    assert {k for flat, k in counts if not flat} == {1, 2}
    seen.clear()
    try:
        verify_cluster_bound(WitnessFamily.from_json_dict(LONG_TAILS))
    except ParametersTooLarge:
        pass
    assert [k for nums, k in seen if len(nums) == 1201] == [1, 1]


def modulus2(p):
    return p[0] * p[0] + p[1] * p[1]


@pytest.mark.parametrize("source", ["pool", "data"])
def test_each_error_term_bounds_its_own_source(source):
    """Each term of ``oracles.error_terms`` against the error of its source
    alone, measured in exact arithmetic at every fourth sample: the
    computed Horner sum against the exact sum of the same doubles at the
    same rounded point (horner), that sum at the rounded point against the
    exact one (point), the doubles against the exact coefficients
    (coefficient), and abs() against the exact modulus of the computed
    value (modulus).  The filter's allowance, _ROUNDING (m + 1) S, is at
    least twice their sum."""
    families = POOL[:8] if source == "pool" else list(DATA_FAMILIES.values())
    measured = dict.fromkeys(("horner", "point", "coefficient", "modulus"), 0)
    for w in families:
        points = topocheck._circle_points(w.point, topocheck.BOUND_SAMPLES)[::4]
        zs, radius = _rounded_samples(w.doubles[1], points)
        for c in w.forest.clusters:
            for i in c.indices():
                tail, exact_tail = w.doubles[0][i - 1][c.depth :], w.polys[i - 1][c.depth :]
                rounded = tuple(map(F, tail))
                m = max(len(tail) - 1, 0)
                terms = error_terms(m)
                assert 2 * sum(terms.values()) * 2.0**-53 <= _ROUNDING * (m + 1)
                unit = F(2.0**-53) * sum(abs(t) * F(radius) ** j for j, t in enumerate(rounded))
                for (x, y, s), z_hat in zip(points, zs):
                    computed = _horner(tail, z_hat)
                    at_hat = eval_poly(rounded, (F(z_hat.real), F(z_hat.imag)))
                    at_z = eval_poly(rounded, (F(x, s), F(y, s)))
                    exact = eval_poly(exact_tail, (F(x, s), F(y, s)))
                    errors = {
                        "horner": modulus2((F(computed.real) - at_hat[0], F(computed.imag) - at_hat[1])),
                        "point": modulus2((at_hat[0] - at_z[0], at_hat[1] - at_z[1])),
                        "coefficient": modulus2((at_z[0] - exact[0], at_z[1] - exact[1])),
                    }
                    for name, e2 in errors.items():
                        assert e2 <= (F(terms[name]) * unit) ** 2, (name, w, i)
                        measured[name] = max(measured[name], e2)
                    v, bound = F(abs(computed)), F(terms["modulus"]) * unit
                    exact2 = modulus2((F(computed.real), F(computed.imag)))
                    assert max(v - bound, 0) ** 2 <= exact2 <= (v + bound) ** 2
                    measured["modulus"] = max(measured["modulus"], abs(v * v - exact2))
    # The data families' tails are short, with exact coefficients, and
    # their Horner sums happen to be exact; the pool's are not.
    assert all(measured.values()) or source == "data"


@pytest.mark.parametrize(
    "polys, eta, passes",
    [
        # a1 = 0, a2 = x: the circle of {1, 2} has centre 0 and radius eta,
        # and |a2(z0)| = |z0| = 3/64, so a2 lies on it at eta = 3/64.
        (((0,), (0, 1)), F(3, 64), False),
        (((0,), (0, 1)), F(3, 64) + F(1, 10**9), True),
        # a3 = 1/8 is not in {1, 2} and lies on its circle of radius 1/8.
        (((0,), (0, 1), (F(1, 8),)), F(1, 8), False),
        (((0,), (0, 1), (F(1, 8) + F(1, 10**9),)), F(1, 8), True),
        # The sibling circles of {1, 2} and {3, 4}, radius 1/8 and centres 0
        # and c, touch from outside at c = 1/4.
        (((0,), (0, 1), (F(1, 4),), (F(1, 4), 1)), F(1, 8), False),
        (((0,), (0, 1), (F(1, 4) + F(1, 10**9),), (F(1, 4) + F(1, 10**9), 1)), F(1, 8), True),
        # a = (c x, c x + x^2, 0): the circle of {1, 2} at depth 2 (centre
        # c z0, radius 1/128) lies inside that of {1, 2, 3} (centre 0,
        # radius 1/8) and touches it at |c z0| = 15/128, c = 5/2.
        (((0, F(5, 2)), (0, F(5, 2), 1), (0,)), F(1, 8), False),
        (((0, F(5, 2) - F(1, 10**9)), (0, F(5, 2) - F(1, 10**9), 1), (0,)), F(1, 8), True),
    ],
    ids=[
        "member-on-its-circle", "member-inside", "foreign-on-the-circle", "foreign-outside",
        "siblings-tangent", "siblings-apart", "nested-tangent", "nested-inside",
    ],
)
def test_oracle_separation_at_exact_equality(polys, eta, passes):
    """Every inequality of the separation check is strict: each boundary
    case fails, and its neighbour 10^-9 away passes."""
    w = WitnessFamily(polys=tuple(tuple(F(c) for c in p) for p in polys), eta=eta, r=F(1, 16), z0=Z0)
    assert assert_separation_matches_oracle(w) is passes


@pytest.mark.parametrize("source", ["pool", "data", "random"])
def test_integer_form_gives_back_the_family(source):
    """Each polynomial's numerators over its denominator are its
    coefficients, and (X/N, Y/N) is z0; each denominator is positive and
    shares no factor with all its numerators, so it is the least."""
    rng = random.Random(20261018)
    families = {
        "pool": POOL,
        "data": list(DATA_FAMILIES.values()),
        "random": [random_bound_family(rng) for _ in range(40)],
    }[source]
    for w in families:
        for poly, (nums, den) in zip(w.polys, w.integers, strict=True):
            assert tuple(F(k, den) for k in nums) == poly
            assert den > 0 and math.gcd(den, *nums) == 1
        x, y, n = w.point
        assert (F(x, n), F(y, n)) == w.z0
        assert n > 0 and math.gcd(n, x, y) == 1


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
    """Where the exact family does not fit the tracker's doubles, the
    family itself is refused, and the error names what does not fit."""
    huge = F(10**400)
    cases = [
        (((F(0),), (huge,)), F(1, 16), (F(3, 64), F(0)), {"strand": 2, "coefficient": 0}),
        (((F(0),), (F(0), F(1, 10**400))), F(1, 16), (F(3, 64), F(0)), {"strand": 2, "coefficient": 1}),
        (((F(0),), (F(1),)), huge, (huge * 3 / 4, F(0)), {"field": "z0"}),
        (((F(0),), (F(10**308), F(10**308))), F(16), (F(10), F(0)), {"strand": 2}),
        # Both parts of a_2(z0) = (3/2 + 3/2 i) 10^308 fit a double; its modulus does not.
        (((F(0),), (F(15 * 10**307), F(10**308))), F(2), (F(0), F(3, 2)), {"strand": 2}),
    ]
    for polys, r, z0, details in cases:
        with pytest.raises(SizeLimit) as info:
            WitnessFamily(polys=polys, eta=F(1, 8), r=r, z0=z0, samples=64)
        assert info.value.details == details
