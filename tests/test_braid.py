"""Braid words, the free-group action, and the closed-form twist equality."""

import pytest

from branchmono.braid import BraidWord, braid_action, half_twist
from branchmono.clusters import Cluster
from branchmono.errors import IndexOutOfRange, IntervalOutOfRange
from branchmono.freegroup import FreeAutomorphism, FreeWord
from oracles import (
    apply,
    compose,
    dehn_twist_automorphism,
    identity,
    is_pure,
    lambda_braid,
    permutation,
    puncture_loop_braid,
)


def test_braid_word_basics():
    b = BraidWord(3, (1, -2))
    assert b.letters == (1, -2)
    assert str(b) == "b1*b2^-1"
    assert b.inv().letters == (2, -1)
    assert permutation(b) == (1, 2, 0)
    assert not is_pure(b)
    with pytest.raises(IndexOutOfRange):
        BraidWord(2, (2,))


def test_braid_word_from_a_generator_keeps_its_letters():
    """The letters are read once: validating them must not use them up."""
    assert BraidWord(3, (x for x in (1, -2))) == BraidWord(3, (1, -2))
    with pytest.raises(IndexOutOfRange):
        BraidWord(3, (x for x in (1, 3)))


def test_generator_action_base_case():
    a = braid_action(BraidWord(2, (1,)))
    assert a.images == (FreeWord((1, 2, -1)), FreeWord((1,)))


def test_empty_braid_identity():
    assert braid_action(BraidWord(4)) == identity(4)


def test_generator_fixes_far_strands():
    a = braid_action(BraidWord(4, (2,)))
    assert a.images[0] == FreeWord((1,))
    assert a.images[3] == FreeWord((4,))
    assert a.images[1] == FreeWord((2, 3, -2))
    assert a.images[2] == FreeWord((2,))


def test_inverse_generator_action():
    d = 3
    for i in (1, 2):
        fwd = braid_action(BraidWord(d, (i,)))
        back = braid_action(BraidWord(d, (-i,)))
        assert compose(fwd, back) == identity(d)
        assert compose(back, fwd) == identity(d)


def test_adjacent_generators_do_not_commute():
    left = braid_action(BraidWord(3, (1, 2)))
    right = braid_action(BraidWord(3, (2, 1)))
    assert left != right


def letter_action(i, d):
    """Oracle: the automorphism of b_i (i > 0) or b_i^-1 (i < 0), whole."""
    k = abs(i)
    images = [FreeWord.generator(j) for j in range(1, d + 1)]
    if i > 0:
        images[k - 1] = FreeWord((k, k + 1, -k))
        images[k] = FreeWord.generator(k)
    else:
        images[k - 1] = FreeWord.generator(k + 1)
        images[k] = FreeWord((-(k + 1), k, k + 1))
    return FreeAutomorphism(d, tuple(images))


def test_action_is_homomorphism(rng):
    u = BraidWord(4, (1, -3, 2))
    v = BraidWord(4, (2, 2, -1))
    assert braid_action(BraidWord(4, u.letters + v.letters)) == compose(braid_action(u), braid_action(v))
    for _ in range(200):
        d = rng.randint(2, 7)
        letters = [rng.choice([-1, 1]) * rng.randint(1, d - 1) for _ in range(rng.randint(0, 40))]
        expected = identity(d)
        for x in letters:
            expected = compose(expected, letter_action(x, d))
        assert braid_action(BraidWord(d, tuple(letters))) == expected, (d, letters)


@pytest.mark.parametrize("d", range(2, 8))
def test_braid_relations_in_action(d):
    for i in range(1, d):
        for j in range(i + 2, d):
            assert braid_action(BraidWord(d, (i, j))) == braid_action(BraidWord(d, (j, i)))
    for i in range(1, d - 1):
        assert braid_action(BraidWord(d, (i, i + 1, i))) == braid_action(
            BraidWord(d, (i + 1, i, i + 1))
        )


def test_lambda_braid_words():
    assert lambda_braid(Cluster(1, 2, 1), 2).letters == (1, 1)
    assert lambda_braid(Cluster(1, 3, 1), 4).letters == (1, 2, 1, 2, 1, 2)
    assert lambda_braid(Cluster(2, 2, 1), 4).letters == (2, 2)
    with pytest.raises(IntervalOutOfRange):
        lambda_braid(Cluster(3, 2, 1), 3)


def test_half_twist_words():
    # Delta and Delta^-1 on positions 2..4 of 5 strands.
    delta = half_twist(2, 3, 5)
    assert delta.letters == (2, 3, 2)
    assert delta.inv().letters == (-2, -3, -2)
    assert half_twist(2, 4, 5).letters == (2, 3, 4, 2, 3, 2)
    assert permutation(delta) == (0, 3, 2, 1, 4)
    with pytest.raises(IntervalOutOfRange):
        half_twist(4, 3, 5)


def test_half_twist_squares_to_full_twist():
    for d in range(2, 7):
        for l in range(2, d + 1):
            for m in range(1, d - l + 2):
                delta = half_twist(m, l, d)
                assert braid_action(BraidWord(d, delta.letters * 2)) == braid_action(lambda_braid(Cluster(m, l, 1), d))


def test_lambda_equals_closed_form_twist():
    """Core correctness: the braid word action reproduces the twist formula
    for every interval with 2 <= l <= 5 inside d <= 6."""
    for d in range(2, 7):
        for l in range(2, min(5, d) + 1):
            for m in range(1, d - l + 2):
                c = Cluster(m, l, 1)
                assert braid_action(lambda_braid(c, d)) == dehn_twist_automorphism(c, d)


def test_pure_braids_fix_full_product(rng):
    for _ in range(25):
        d = rng.randint(2, 6)
        letters = ()
        for _ in range(rng.randint(1, 4)):
            l = rng.randint(2, d)
            m = rng.randint(1, d - l + 1)
            letters += lambda_braid(Cluster(m, l, 1), d).letters
        word = BraidWord(d, letters)
        assert is_pure(word)
        full = FreeWord(tuple(range(1, d + 1)))
        assert apply(braid_action(word), full) == full


def test_puncture_loop_words():
    assert puncture_loop_braid(2, 2).letters == (2, 2)
    assert puncture_loop_braid(1, 2).letters == (2, 1, 1, -2)
    assert puncture_loop_braid(2, 3).letters == (3, 2, 2, -3)
    assert puncture_loop_braid(1, 3).letters == (3, 2, 1, 1, -2, -3)
    assert puncture_loop_braid(1, 2).strands == 3
    with pytest.raises(IndexOutOfRange):
        puncture_loop_braid(4, 3)


def test_puncture_loops_are_pure():
    for d in range(2, 6):
        for i in range(1, d + 1):
            assert is_pure(puncture_loop_braid(i, d))
