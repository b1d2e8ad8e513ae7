"""Twist composition, presentation emission, and structural invariants."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchmono.braid import braid_action
from branchmono.clusters import Cluster, ClusterForest, compute_clusters
from branchmono.errors import IntervalOutOfRange
from branchmono.freegroup import FreeWord
from branchmono.monodromy import Presentation, emit_presentation, monodromy_automorphism
from conftest import random_ultrametric_matrix
from oracles import (
    apply,
    compose,
    dehn_twist_automorphism,
    identity,
    lambda_braid_for_forest,
    presentation_forms,
)


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
        conj = FreeWord((1, 2) * m)
        for i in (1, 2):
            assert aut.images[i - 1] == FreeWord.generator(i).conjugated_by(conj)
        for i in (3, 4):
            assert aut.images[i - 1] == FreeWord.generator(i)


def test_empty_forest_identity():
    assert monodromy_automorphism(ClusterForest(5, ())) == identity(5)


def test_nested_composition_example():
    # d=3 forest {({1,2,3},1), ({1,2},2)}: independently composed here with
    # oracles.compose; the strand-tracking oracle re-derives it in
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
        if len(forest.clusters) < 1:
            continue
        twists = [dehn_twist_automorphism(c, forest.d) for c in forest.clusters]
        reference = monodromy_automorphism(forest)
        if len(forest.clusters) <= 4:
            orders = itertools.permutations(twists)
        else:
            shuffled_order = twists[:]
            rng.shuffle(shuffled_order)
            orders = [list(reversed(twists)), shuffled_order]
        for perm in orders:
            acc = identity(forest.d)
            for t in perm:
                acc = compose(acc, t)
            assert acc == reference


def test_product_fixed_and_conjugate_images(rng):
    for _ in range(60):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 6), 4)
        forest = compute_clusters(mat)
        aut = monodromy_automorphism(forest)
        full = FreeWord(tuple(range(1, forest.d + 1)))
        assert apply(aut, full) == full
        for i, w in enumerate(aut.images, start=1):
            assert w.cyclic_decomposition()[1].letters == (i,)


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
        acc = identity(forest.d)
        for c in forest.clusters:
            acc = compose(acc, dehn_twist_automorphism(c, forest.d))
        assert monodromy_automorphism(forest) == acc


@st.composite
def nested_forests(draw, max_d=12):
    """A forest of nested or disjoint intervals, each strictly deeper than
    those containing it.  An interval may repeat at several consecutive
    depths, and blocks are cut at random, so generators that end (or
    start) their innermost cluster are common."""
    d = draw(st.integers(1, max_d))
    clusters = []

    def fill(lo, hi, depth):
        # Cut [lo, hi] into consecutive blocks; make some blocks clusters.
        cuts = sorted(draw(st.sets(st.integers(lo + 1, hi), max_size=3))) if hi > lo else []
        for a, b in zip([lo] + cuts, [c - 1 for c in cuts] + [hi]):
            if b > a and draw(st.booleans()):
                repeats = draw(st.integers(1, 3))
                clusters.extend(Cluster(a, b - a + 1, depth + k) for k in range(repeats))
                fill(a, b, depth + repeats)

    fill(1, d, 1)
    return ClusterForest(d, tuple(clusters))


@given(nested_forests())
def test_images_are_the_composition_of_the_twists(forest):
    acc = identity(forest.d)
    for c in forest.clusters:
        acc = compose(acc, dehn_twist_automorphism(c, forest.d))
    assert monodromy_automorphism(forest) == acc


def test_images_of_generators_that_end_their_innermost_cluster():
    # {1..4} at depths 1 and 2 and {3, 4} at depth 3: x4 ends every
    # cluster it is in, so it cancels against the first letter of P_{3,4}^-1.
    forest = ClusterForest(5, (Cluster(1, 4, 1), Cluster(1, 4, 2), Cluster(3, 2, 3)))
    aut = monodromy_automorphism(forest)
    acc = identity(5)
    for c in forest.clusters:
        acc = compose(acc, dehn_twist_automorphism(c, 5))
    assert aut == acc
    w = FreeWord((1, 2, 3, 4) * 2 + (3,))
    assert aut.images[3] == FreeWord.generator(4).conjugated_by(w)
    assert aut.images[3].letters == (1, 2, 3, 4) * 2 + (3, 4, -3) + (-4, -3, -2, -1) * 2


@given(nested_forests(), st.integers(0, 7), st.lists(st.integers(0, 99), max_size=3), st.booleans())
def test_presentation_forms_match_the_word_formatter(forest, p, labels, sigma):
    aut = monodromy_automorphism(forest)
    d = forest.d
    pres = emit_presentation(
        forest,
        p=p,
        point_labels=tuple(map(str, labels)),
        sigma=tuple(range(d, 0, -1)) if sigma else None,
    )
    assert pres.images == aut.images
    text, relators, doc = presentation_forms(pres)
    assert pres.text() == text
    assert pres.relators_text() == relators
    assert pres.to_json_dict() == doc


def test_presentation_forms_with_an_empty_image():
    # Not a monodromy (x2 maps to 1), but the formatter must still write
    # the empty word as "1" and drop its inverse from the relator.
    pres = Presentation(3, (FreeWord((2, 1, -2)), FreeWord(), FreeWord((3,))), p=2)
    text, relators, doc = presentation_forms(pres)
    assert pres.text() == text
    assert pres.relators_text() == relators
    assert pres.to_json_dict() == doc
    assert "  delta^-1*x2*delta = 1," in text
    assert "\ndelta^-1*x2*delta\n" in relators
    assert doc["relations"][2] == {"lhs": "delta^-1*x2*delta", "rhs": "1"}
