"""Twist composition, presentation emission, and structural invariants."""

import itertools

import pytest

from branchmono.braid import braid_action
from branchmono.clusters import Cluster, ClusterForest, compute_clusters
from branchmono.errors import IntervalOutOfRange
from branchmono.freegroup import FreeAutomorphism, FreeWord, compose
from branchmono.monodromy import emit_presentation, monodromy_automorphism
from conftest import random_ultrametric_matrix
from oracles import dehn_twist_automorphism, lambda_braid_for_forest


def test_twist_formula_examples():
    a = dehn_twist_automorphism(Cluster(1, 2, 1), 4)
    assert a.images[0] == FreeWord((1, 2, 1, -2, -1))
    assert a.images[1] == FreeWord((1, 2, -1))
    assert a.images[2] == FreeWord((3,))
    assert a.images[3] == FreeWord((4,))

    full = dehn_twist_automorphism(Cluster(1, 3, 1), 3)
    conj = FreeWord((1, 2, 3))
    for i in range(3):
        assert full.images[i] == FreeWord.generator(i + 1).conjugated_by(conj)

    with pytest.raises(IntervalOutOfRange):
        dehn_twist_automorphism(Cluster(3, 2, 1), 3)


def test_example2_monodromy():
    for m in (1, 2, 3):
        forest = ClusterForest(4, tuple(Cluster(1, 2, n) for n in range(1, m + 1)))
        aut = monodromy_automorphism(forest)
        conj = FreeWord((1, 2)) ** m
        for i in (1, 2):
            assert aut.images[i - 1] == FreeWord.generator(i).conjugated_by(conj)
        for i in (3, 4):
            assert aut.images[i - 1] == FreeWord.generator(i)


def test_empty_forest_identity():
    assert monodromy_automorphism(ClusterForest(5, ())).is_identity()


def test_nested_composition_example():
    # d=3 forest {({1,2,3},1), ({1,2},2)}: independently composed here with
    # freegroup.compose; the strand-tracking oracle re-derives it in
    # test_topocheck.
    forest = ClusterForest(3, (Cluster(1, 3, 1), Cluster(1, 2, 2)))
    aut = monodromy_automorphism(forest)
    outer = dehn_twist_automorphism(Cluster(1, 3, 1), 3)
    inner_twist = dehn_twist_automorphism(Cluster(1, 2, 2), 3)
    assert aut == compose(outer, inner_twist)
    assert aut == compose(inner_twist, outer)
    conj = FreeWord((1, 2, 3, 1, 2))
    for i in (1, 2):
        assert aut.images[i - 1] == FreeWord.generator(i).conjugated_by(conj)
    assert aut.images[2] == FreeWord.generator(3).conjugated_by(FreeWord((1, 2, 3)))


def test_composition_order_immaterial(rng):
    for _ in range(40):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 6), 3)
        forest = compute_clusters(mat)
        if len(forest) < 1:
            continue
        twists = [dehn_twist_automorphism(c, forest.d) for c in forest.clusters]
        reference = monodromy_automorphism(forest)
        if len(forest) <= 4:
            orders = itertools.permutations(twists)
        else:
            shuffled_order = twists[:]
            rng.shuffle(shuffled_order)
            orders = [list(reversed(twists)), shuffled_order]
        for perm in orders:
            acc = FreeAutomorphism.identity(forest.d)
            for t in perm:
                acc = compose(acc, t)
            assert acc == reference


def test_product_fixed_and_conjugate_images(rng):
    for _ in range(60):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 6), 4)
        forest = compute_clusters(mat)
        aut = monodromy_automorphism(forest)
        full = FreeWord(tuple(range(1, forest.d + 1)))
        assert aut.apply(full) == full
        for i, w in enumerate(aut.images, start=1):
            assert w.is_conjugate_of_generator(i)


def test_braid_consistency(rng):
    """Prop-4.7 closed form vs letter-by-letter braid action agree on whole
    forests, not just single twists."""
    for _ in range(30):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 6), 3)
        forest = compute_clusters(mat)
        word = lambda_braid_for_forest(forest.clusters, forest.d)
        assert braid_action(word) == monodromy_automorphism(forest)


# -- presentation emission ---------------------------------------------------

def test_example1_presentation_text():
    forest = ClusterForest(4, ())
    pres = emit_presentation(forest, p=5, point_labels=("0", "1", "2", "3"), sigma=(1, 2, 3, 4))
    assert pres.text() == (
        "# p = 5\n"
        "# points (reordered) = 0, 1, 2, 3\n"
        "# sigma = [1, 2, 3, 4]\n"
        "< x1, x2, x3, x4, delta |\n"
        "  x1*x2*x3*x4 = 1,\n"
        "  [delta, x1] = 1,\n"
        "  [delta, x2] = 1,\n"
        "  [delta, x3] = 1,\n"
        "  [delta, x4] = 1 >\n"
    )


def test_example2_presentation_relations():
    forest = ClusterForest(4, (Cluster(1, 2, 1),))
    pres = emit_presentation(forest, p=3)
    displays = pres.relation_displays()
    assert displays[0] == "x1*x2*x3*x4 = 1"
    assert displays[1] == "delta^-1*x1*delta = x1*x2*x1*x2^-1*x1^-1"
    assert displays[2] == "delta^-1*x2*delta = x1*x2*x1^-1"
    assert displays[3] == "[delta, x3] = 1"
    assert displays[4] == "[delta, x4] = 1"


def test_emitter_does_not_simplify_across_relations():
    # d=2, e12=1: the image (x1 x2) x_i (x1 x2)^-1 would collapse to x_i
    # under the product relation; the emitter must not apply it.
    forest = ClusterForest(2, (Cluster(1, 2, 1),))
    pres = emit_presentation(forest)
    assert pres.relation_displays()[1] == "delta^-1*x1*delta = x1*x2*x1*x2^-1*x1^-1"
    assert pres.relation_displays()[2] == "delta^-1*x2*delta = x1*x2*x1^-1"


def test_relator_lines():
    forest = ClusterForest(2, (Cluster(1, 2, 1),))
    pres = emit_presentation(forest)
    lines = pres.relator_lines()
    assert lines[0] == "x1*x2"
    assert lines[1] == "delta^-1*x1*delta*x1*x2*x1^-1*x2^-1*x1^-1"
    # fixed generator renders as a bare commutator-style relator
    empty = emit_presentation(ClusterForest(2, ()))
    assert empty.relator_lines()[1] == "delta^-1*x1*delta*x1^-1"


def test_presentation_json_roundtrip():
    forest = ClusterForest(4, (Cluster(1, 2, 1),))
    pres = emit_presentation(forest, p=3, point_labels=("0", "3", "1", "2"), sigma=(1, 2, 3, 4))
    doc = pres.to_json_dict()
    assert doc["schema"] == "branchmono/1"
    assert doc["generators"] == ["x1", "x2", "x3", "x4", "delta"]
    assert doc["relations"][0] == {"lhs": "x1*x2*x3*x4", "rhs": "1"}
    assert doc["relations"][2] == {"lhs": "delta^-1*x2*delta", "rhs": "x1*x2*x1^-1"}


def test_oracle_closed_form_matches_composition(rng):
    """The closed form W_i x_i W_i^-1 equals the composition of one twist
    per cluster, on forests well past the sizes above."""
    for _ in range(25):
        forest = compute_clusters(random_ultrametric_matrix(rng, rng.randint(2, 48), rng.randint(1, 6)))
        acc = FreeAutomorphism.identity(forest.d)
        for c in forest.clusters:
            acc = compose(acc, dehn_twist_automorphism(c, forest.d))
        assert monodromy_automorphism(forest) == acc
