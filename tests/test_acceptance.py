"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them).

All comparisons are symbolic equality unless stated otherwise; runtime
bounds are asserted with wall-clock measurements.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest

from branchmono.braid import BraidWord, braid_action
from branchmono.clusters import Cluster, ClusterForest, compute_clusters
from branchmono.errors import (
    IndistinguishableTruncation,
    NotAGroup,
    ParametersTooLarge,
    PrimeToPViolation,
    SizeLimit,
    UltrametricViolation,
    UnresolvedCrossing,
)
from branchmono.freegroup import FreeWord
from branchmono.intersection import BranchInput, IntersectionMatrix, canonical_order, compute_matrix
from branchmono.monodromy import emit_presentation, monodromy_automorphism
from branchmono.quotients import load_group, moduli_report
from branchmono.topocheck import (
    WitnessFamily,
    verify_cluster_bound,
    verify_monodromy_oracle,
    verify_separation,
)
from conftest import random_ultrametric_matrix
from oracles import apply, compose, dehn_twist_automorphism, entries, identity, is_pure, lambda_braid

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def pipeline_presentation(points, p):
    binput = BranchInput(mode="padic", p=p, points=tuple(F(x) for x in points))
    sigma, mat = canonical_order(compute_matrix(binput))
    forest = compute_clusters(mat)
    labels = tuple(binput.labels[s - 1] for s in sigma)
    return emit_presentation(forest, p=p, point_labels=labels, sigma=sigma)


def test_criterion_1_example1_golden():
    with criterion(1, "Example 1 golden", 1.0):
        pres = pipeline_presentation((0, 1, 2, 3), 5)
        assert pres.text() == (GOLDEN / "example1_present.txt").read_text()
        displays = pres.relation_displays()
        assert displays[0] == "x1*x2*x3*x4 = 1"
        assert displays[1:] == [f"[delta, x{i}] = 1" for i in range(1, 5)]


def test_criterion_2_example2_golden():
    with criterion(2, "Example 2 golden, p in {3,5}, m in {1,2,3}", 1.0):
        for p in (3, 5):
            for m in (1, 2, 3):
                pres = pipeline_presentation((0, p**m, 1, 2), p)
                conj = FreeWord((1, 2) * m)
                for i in (1, 2):
                    assert pres.images[i - 1] == FreeWord.generator(i).conjugated_by(conj)
                displays = pres.relation_displays()
                assert displays[3] == "[delta, x3] = 1"
                assert displays[4] == "[delta, x4] = 1"


def test_criterion_3_prop_4_7_equivalence():
    with criterion(3, "lambda braid action = closed-form twist", 10.0):
        checked = 0
        for d in range(2, 7):
            for l in range(2, min(5, d) + 1):
                for m in range(1, d - l + 2):
                    for n in range(1, 4):
                        c = Cluster(m, l, n)
                        assert braid_action(lambda_braid(c, d)) == dehn_twist_automorphism(c, d)
                        checked += 1
        assert checked >= 40


def test_criterion_4_braid_relations():
    with criterion(4, "braid relations in the action representation", 5.0):
        for d in range(2, 8):
            for i in range(1, d):
                for j in range(i + 2, d):
                    assert braid_action(BraidWord(d, (i, j))) == braid_action(
                        BraidWord(d, (j, i))
                    )
            for i in range(1, d - 1):
                assert braid_action(BraidWord(d, (i, i + 1, i))) == braid_action(
                    BraidWord(d, (i + 1, i, i + 1))
                )


def test_criterion_5_structural_invariants():
    with criterion(5, "structural invariants on 1000 random matrices", 60.0):
        rng = random.Random(5)
        permutation_cases = 0
        for _ in range(1000):
            d = rng.randint(2, 6)
            mat = random_ultrametric_matrix(rng, d, 4)
            forest = compute_clusters(mat)
            aut = monodromy_automorphism(forest)
            full = FreeWord(tuple(range(1, d + 1)))
            assert apply(aut, full) == full
            for i, w in enumerate(aut.images, start=1):
                assert w.cyclic_decomposition()[1].letters == (i,)
            if 2 <= len(forest.clusters) <= 4:
                permutation_cases += 1
                twists = [dehn_twist_automorphism(c, d) for c in forest.clusters]
                for perm in itertools.permutations(twists):
                    acc = identity(d)
                    for t in perm:
                        acc = compose(acc, t)
                    assert acc == aut
        assert permutation_cases >= 100


def _coprime_prime(order: int) -> int:
    for p in (3, 5, 7, 11, 13):
        if math.gcd(order, p) == 1:
            return p
    raise AssertionError(f"no small prime coprime to {order}")


def _criterion6_matrices() -> list[IntersectionMatrix]:
    configs = []
    for a, b in ((0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)):
        configs.append(IntersectionMatrix(3, ((0, a, b), (a, 0, b), (b, b, 0))))
    d4_params = (
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 0, 1), (2, 0, 1),
        (2, 0, 2), (1, 1, 1), (2, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2),
        (3, 2, 3), (1, 1, 2),
    )
    for a, c, b in d4_params:
        assert a >= c and b >= c
        configs.append(
            IntersectionMatrix(
                4,
                (
                    (0, a, c, c),
                    (a, 0, c, c),
                    (c, c, 0, b),
                    (c, c, b, 0),
                ),
            )
        )
    return configs


def test_criterion_6_corollary_brute_force():
    with criterion(6, "moduli degree divides exp(G/Z(G))", 600.0):
        group_names = [f"c{n}" for n in range(2, 9)] + ["s3", "d4", "q8", "a4", "s4"]
        matrices = _criterion6_matrices()
        assert len(matrices) >= 20
        total_classes = 0
        for name in group_names:
            g = load_group(name)
            p = _coprime_prime(g.order)
            for mat in matrices:
                forest = compute_clusters(mat)
                report = moduli_report(g, forest, p=p, surjective_only=True)
                assert report.all_divide, (
                    f"violation: {name}, d={mat.d}, config {entries(mat)}: "
                    f"max degree {report.max_degree} vs exponent {report.exponent}"
                )
                total_classes += report.class_count
        assert total_classes > 0


def test_criterion_7_theorem_oracle():
    families = {
        "a=(0, x^2, x)": WitnessFamily(
            polys=((F(0),), (F(0), F(0), F(1)), (F(0), F(1))),
            eta=F(1, 8), r=F(1, 16), z0=(F(3, 64), F(0)), samples=4096,
        ),
        "a=(0, x, 1, 1+x^2)": WitnessFamily(
            polys=((F(0),), (F(0), F(1)), (F(1),), (F(1), F(0), F(1))),
            eta=F(1, 8), r=F(1, 16), z0=(F(3, 64), F(0)), samples=4096,
        ),
    }
    for label, fam in families.items():
        with criterion(7, f"Theorem-2.4 oracle, {label}", 60.0):
            assert fam.d <= 4 and len(fam.forest.clusters) <= 4
            assert verify_separation(fam).passed
            assert verify_cluster_bound(fam).passed
            report = verify_monodromy_oracle(fam)
            assert report.consistent, "tracked braid action is not an inner shift of the twist product"
            assert is_pure(report.braid)


def test_criterion_8_error_paths():
    with criterion(8, "stable error codes from fixtures", 30.0):
        with pytest.raises(UltrametricViolation):
            compute_matrix(
                BranchInput.from_json_dict(json.loads((DATA / "matrix_bad.json").read_text()))
            )
        with pytest.raises(IndistinguishableTruncation):
            compute_matrix(
                BranchInput.from_json_dict(
                    json.loads((DATA / "series_truncated.json").read_text())
                )
            )
        with pytest.raises(NotAGroup):
            load_group(str(DATA / "group_broken.json"))
        with pytest.raises(PrimeToPViolation):
            moduli_report(
                load_group("c6"),
                ClusterForest(4, (Cluster(1, 2, 1),)),
                p=3,
            )
        with pytest.raises(ParametersTooLarge):
            verify_separation(
                WitnessFamily.from_json_dict(
                    json.loads((DATA / "family_eta10.json").read_text())
                )
            )
        with pytest.raises(UnresolvedCrossing):
            from branchmono.topocheck import track_braid

            track_braid(
                WitnessFamily.from_json_dict(
                    json.loads((DATA / "family_collision.json").read_text())
                )
            )
        with pytest.raises(SizeLimit):
            moduli_report(
                load_group("s4"),
                ClusterForest(4, (Cluster(1, 2, 1),)),
                p=5,
                cap=100,
            )
