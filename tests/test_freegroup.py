"""Free words, automorphisms, and the inner-shift decision procedure."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchmono.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    UnsupportedForm,
)
from branchmono.freegroup import FreeAutomorphism, FreeWord, format_letters
from branchmono.topocheck import is_inner_shift
from oracles import apply, compose, identity, inner, window_inner_shift, word_text


def naive_reduce(letters):
    """Independent oracle: repeatedly delete the first cancelling pair."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] == -word[k + 1]:
                del word[k : k + 2]
                changed = True
                break
    return word


def naive_apply(images, word):
    """Independent substitute-then-reduce oracle."""
    out = []
    for letter in word:
        img = list(images[abs(letter) - 1])
        if letter < 0:
            img = [-x for x in reversed(img)]
        out.extend(img)
    return naive_reduce(out)


def random_letters(rng, d, length):
    return [rng.choice([-1, 1]) * rng.randint(1, d) for _ in range(length)]


def power(i, n):
    """x_i^n."""
    return FreeWord((i if n > 0 else -i,) * abs(n))


# -- reduction ---------------------------------------------------------------

def test_reduce_examples():
    assert FreeWord([1, -1]).letters == ()
    assert FreeWord([1, 2, -2, 1]).letters == (1, 1)
    assert FreeWord([2, 1, -1, -2, 3]).letters == (3,)
    assert FreeWord([]).letters == ()
    assert FreeWord(iter([2, 1, -1, -2])).letters == ()


def test_reduce_range_check():
    with pytest.raises(IndexOutOfRange):
        FreeAutomorphism(2, (FreeWord((1, 3)), FreeWord((2,))))
    with pytest.raises(InvalidInput):
        FreeWord((0,))


def test_word_from_a_generator_keeps_its_letters():
    """The letters are read once: validating them must not use them up."""
    assert FreeWord(x for x in (1, 2)) == FreeWord((1, 2))
    assert FreeWord(x for x in (1, 2, -2)).letters == (1,)
    with pytest.raises(InvalidInput):
        FreeWord(x for x in (1, 0))


letters_strategy = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=30
)


@given(letters_strategy)
def test_reduce_matches_naive_oracle(raw):
    assert list(FreeWord(tuple(raw)).letters) == naive_reduce(raw)


@given(letters_strategy)
def test_reduce_idempotent_and_shorter(raw):
    w = FreeWord(tuple(raw))
    assert FreeWord(w.letters) == w
    assert len(w.letters) <= len(raw)


reduced_words = st.builds(FreeWord, letters_strategy)


@st.composite
def word_products(draw):
    """Reduced words, each next one drawn to start with the inverse of a
    suffix of the product so far (of any length, the whole of it and more
    included), so that the junctions cancel partly, wholly, or cascade
    into earlier words."""
    words = [draw(reduced_words)]
    for _ in range(draw(st.integers(0, 4))):
        done = FreeWord(tuple(x for w in words for x in w.letters)).letters
        k = draw(st.integers(0, len(done)))
        head = tuple(-x for x in reversed(done[len(done) - k :]))
        words.append(FreeWord(head + draw(reduced_words).letters))
    return words


@given(word_products())
def test_product_matches_the_constructor_on_the_concatenation(words):
    expected = FreeWord(tuple(x for w in words for x in w.letters))
    got = FreeWord.product(*words)
    assert got == expected
    assert list(got.letters) == naive_reduce([x for w in words for x in w.letters])


@given(reduced_words, reduced_words)
def test_product_with_an_inverse_cancels_wholly(w, v):
    assert FreeWord.product(w, w.inv()) == FreeWord()
    assert FreeWord.product(w.inv(), w) == FreeWord()
    assert FreeWord.product(w, v, v.inv(), w.inv()) == FreeWord()
    assert FreeWord.product(v, w, w.inv()) == v
    assert v.conjugated_by(w) == FreeWord(w.letters + v.letters + w.inv().letters)
    assert w.inv() == FreeWord(tuple(-x for x in reversed(w.letters)))


def test_product_examples():
    assert FreeWord.product() == FreeWord()
    assert FreeWord.product(FreeWord((1, 2))) == FreeWord((1, 2))
    # x1 x2 . x2^-1 x3 . x3^-1 x1^-1 x2 cancels across both junctions.
    words = (FreeWord((1, 2)), FreeWord((-2, 3)), FreeWord((-3, -1, 2)))
    assert FreeWord.product(*words).letters == (2,)
    # A middle word cancels wholly, so the next one meets the first.
    words = (FreeWord((1, 2)), FreeWord((-2,)), FreeWord((-1, 3)))
    assert FreeWord.product(*words).letters == (3,)


@given(reduced_words)
def test_str_matches_the_letter_by_letter_writer(w):
    assert str(w) == word_text(w.letters)
    assert format_letters(w.letters, "b") == word_text(w.letters).replace("x", "b")


def test_word_algebra():
    w = FreeWord((1, -2, 1))
    assert str(w) == "x1*x2^-1*x1"
    assert FreeWord(w.letters + w.inv().letters) == FreeWord()
    assert FreeWord((2,)).conjugated_by(w) == FreeWord((1, -2, 1, 2, -1, 2, -1))
    assert w.max_index() == 2
    assert str(FreeWord()) == "1"
    assert format_letters((1, -2), "b") == "b1*b2^-1"


def test_cyclic_decomposition():
    w = FreeWord((2, 1, -2))
    u, core = w.cyclic_decomposition()
    assert u.letters == (2,) and core.letters == (1,)
    assert FreeWord((2, 1, 3, -2)).cyclic_decomposition() == (FreeWord((2,)), FreeWord((1, 3)))
    assert FreeWord((1, 2)).cyclic_decomposition() == (FreeWord(), FreeWord((1, 2)))


# -- automorphisms -----------------------------------------------------------

def test_apply_examples():
    ident = identity(3)
    w = FreeWord((1, 2, -3))
    assert apply(ident, w) == w

    a = FreeAutomorphism(2, (FreeWord((1, 2, -1)), FreeWord((2,))))
    got = apply(a, FreeWord((1, 2)))
    assert got.letters == tuple(naive_apply([(1, 2, -1), (2,)], [1, 2]))
    assert got == FreeWord((1, 2, -1, 2))


def test_substitute_matches_naive_apply(rng):
    assert apply(identity(2), FreeWord()) == FreeWord()
    for _ in range(200):
        d = rng.randint(2, 4)
        images = [tuple(random_letters(rng, d, rng.randint(0, 5))) for _ in range(d)]
        word = random_letters(rng, d, rng.randint(0, 12))
        a = FreeAutomorphism(d, tuple(map(FreeWord, images)))
        got = apply(a, FreeWord(tuple(word)))
        assert list(got.letters) == naive_apply(images, word), (images, word)


def test_twist_fixes_interval_product():
    # conjugation of x1, x2 by x1*x2 fixes the product x1*x2
    conj = FreeWord((1, 2))
    a = FreeAutomorphism(
        2, (FreeWord.generator(1).conjugated_by(conj), FreeWord.generator(2).conjugated_by(conj))
    )
    assert apply(a, FreeWord((1, 2))) == FreeWord((1, 2))


def test_compose_identity_neutral():
    a = FreeAutomorphism(3, (FreeWord((1, 2, -1)), FreeWord((2,)), FreeWord((3,))))
    ident = identity(3)
    assert compose(a, ident) == a
    assert compose(ident, a) == a


def test_inner_composition():
    g, h = FreeWord((1,)), FreeWord((2,))
    assert compose(inner(g, 3), inner(h, 3)) == inner(FreeWord((1, 2)), 3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_inner_shift(identity(2), identity(3))


def _random_conjugating_automorphism(rng, d):
    images = []
    for i in range(1, d + 1):
        u = FreeWord(tuple(random_letters(rng, d, rng.randint(0, 3))))
        images.append(FreeWord.generator(i).conjugated_by(u))
    return FreeAutomorphism(d, tuple(images))


def test_apply_respects_composition(rng):
    for _ in range(50):
        d = rng.randint(2, 4)
        a = _random_conjugating_automorphism(rng, d)
        b = _random_conjugating_automorphism(rng, d)
        w = FreeWord(tuple(random_letters(rng, d, rng.randint(0, 8))))
        assert apply(compose(a, b), w) == apply(a, apply(b, w))


# -- is_inner_shift ----------------------------------------------------------

def exhaustive_conjugator(a, b, max_len):
    """Independent oracle: try every word over +-1..+-d up to max_len."""
    d = a.d
    alphabet = [i for i in range(1, d + 1)] + [-i for i in range(1, d + 1)]
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            g = FreeWord(combo)
            if all(b.images[i].conjugated_by(g) == a.images[i] for i in range(d)):
                return g
    return None


def test_inner_shift_identity_case():
    a = FreeAutomorphism(2, (FreeWord((2, 1, -2)), FreeWord((2,))))
    assert is_inner_shift(a, a) == FreeWord()


def test_inner_shift_constructed_conjugator():
    b = FreeAutomorphism(3, (FreeWord((3, 1, -3)), FreeWord((2,)), FreeWord((3,))))
    g = FreeWord((1, 2))
    a = compose(inner(g, 3), b)
    got = is_inner_shift(a, b)
    assert got is not None
    assert all(b.images[i].conjugated_by(got) == a.images[i] for i in range(3))


def test_inner_shift_solvable_pair():
    # a: x1 -> x2 x1 x2^-1, x2 -> x2 against the identity: g = x2 works,
    # confirmed by the exhaustive oracle.
    a = FreeAutomorphism(2, (FreeWord((2, 1, -2)), FreeWord((2,))))
    b = identity(2)
    oracle = exhaustive_conjugator(a, b, 3)
    assert oracle == FreeWord((2,))
    got = is_inner_shift(a, b)
    assert got == FreeWord((2,))


def test_inner_shift_absent():
    # a: x1 -> x1, x2 -> (x2 x1) x2 (x2 x1)^-1 against the identity:
    # the x1 equation forces g in <x1>, the x2 equation forces
    # g in (x2 x1) <x2>, and those cosets are disjoint.
    a = FreeAutomorphism(2, (FreeWord((1,)), FreeWord((2, 1, 2, -1, -2))))
    b = identity(2)
    assert is_inner_shift(a, b) is None
    assert exhaustive_conjugator(a, b, 5) is None


def test_inner_shift_completeness_small(rng):
    """When the decision procedure says absent, the bounded exhaustive
    search agrees; when it finds g, g actually works."""
    for _ in range(40):
        d = 2
        a = _random_conjugating_automorphism(rng, d)
        b = _random_conjugating_automorphism(rng, d)
        got = is_inner_shift(a, b)
        oracle = exhaustive_conjugator(a, b, 5)
        if got is None:
            assert oracle is None
        else:
            assert all(
                b.images[i].conjugated_by(got) == a.images[i] for i in range(d)
            )
            if len(got.letters) <= 5:
                # the oracle enumerates by length, so it returns a shortest one
                assert oracle is not None and len(got.letters) <= len(oracle.letters)


def test_inner_shift_shortest_and_ties():
    # a = inner(x1) o identity has conjugators x1^(1+t); shortest is x1.
    b = identity(2)
    a = compose(inner(FreeWord((1,)), 2), b)
    assert is_inner_shift(a, b) == FreeWord((1,))


def test_inner_shift_unsupported_form():
    a = FreeAutomorphism(2, (FreeWord((1, 2)), FreeWord((2,))))
    with pytest.raises(UnsupportedForm):
        is_inner_shift(a, a)


def random_pair(rng):
    """(kind, a, b) with d <= 6.  "shift": a = inner(g) o b, with g often
    holding a long power of one generator; "near": one image of a shift
    conjugated once more; "repinned": an image x_i, i > 1, of a shift
    conjugated by u x_k^s u^-1, where a(x_1) = u x_k^+-1 u^-1, so that it
    asks for another power of x_k than the other images; "unrelated": a
    and b drawn apart; "free": every image of b in one conjugation frame,
    so every power of x_k works."""
    d = rng.randint(2, 6)
    kind = rng.choice(("shift", "near", "repinned", "unrelated", "free"))
    if kind == "free":
        k, v = rng.randint(1, d), FreeWord(tuple(random_letters(rng, d, rng.randint(0, 3))))
        b = FreeAutomorphism(d, tuple(power(k, rng.choice((1, -1))).conjugated_by(v) for _ in range(d)))
    else:
        b = _random_conjugating_automorphism(rng, d)
    if kind == "unrelated":
        return kind, _random_conjugating_automorphism(rng, d), b
    g = FreeWord(tuple(random_letters(rng, d, rng.randint(0, 3))))
    g = FreeWord(g.letters + power(rng.randint(1, d), rng.randint(-9, 9)).letters + g.inv().letters * rng.randint(0, 1))
    a = compose(inner(g, d), b)
    if kind == "near":
        i = rng.randrange(d)
        images = list(a.images)
        images[i] = images[i].conjugated_by(FreeWord.generator(rng.choice((1, -1)) * rng.randint(1, d)))
        a = FreeAutomorphism(d, tuple(images))
    if kind == "repinned":
        u, core = a.images[0].cyclic_decomposition()
        twist = power(abs(core.letters[0]), rng.choice((-2, -1, 1, 2)))
        i = rng.randrange(1, d)
        images = list(a.images)
        images[i] = images[i].conjugated_by(twist.conjugated_by(u))
        a = FreeAutomorphism(d, tuple(images))
    return kind, a, b


def test_inner_shift_matches_window_oracle():
    """Against every conjugator the first generator allows in a window,
    each with the full check: the same shortest g, or None from both."""
    rng = random.Random(20261019)
    outcomes = Counter()
    for _ in range(600):
        kind, a, b = random_pair(rng)
        got = is_inner_shift(a, b)
        assert got == window_inner_shift(a, b), (kind, a, b)
        outcomes[kind, got is not None] += 1
    assert all(outcomes[kind, True] >= 50 for kind in ("shift", "free"))
    assert all(outcomes[kind, False] >= 50 for kind in ("near", "repinned", "unrelated"))
