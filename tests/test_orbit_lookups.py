"""The table-lookup path of `orbits` against slow oracles: the conjugation
data of FiniteGroup, its canonical form, the generating walk, the delta
permutation in conjugation form (and the letter-by-letter evaluation it
is checked against), the streamed JSON report and Light's associativity
test."""

import functools
import io
import itertools
import json

import pytest

from branchmono import quotients
from branchmono.clusters import Cluster, ClusterForest, compute_clusters
from branchmono.errors import NotAGroup, UnsupportedForm
from branchmono.freegroup import FreeAutomorphism, FreeWord, compose, inner
from branchmono.monodromy import monodromy_automorphism
from branchmono.quotients import (
    FiniteGroup,
    associativity_failure,
    conjugation_form,
    delta_on_class,
    enumerate_classes,
    load_group,
    moduli_report,
)
from conftest import random_ultrametric_matrix
from oracles import canonical_tuple, evaluate_word, letter_delta_on_class, moduli_degree
from test_quotients import find_nonassociative_loop

# Every built-in family member up to order 24.
SMALL_GROUPS = (
    "c1", "c2", "c3", "c5", "c6", "c7", "d3", "d4", "d5", "d6", "d12", "q8",
    "s1", "s2", "s3", "s4", "a3", "a4",
)


def conjugate(g: FiniteGroup, x: int, h: int) -> int:
    """h^-1 x h straight from the table."""
    return g.table[g.table[g.inverse[h]][x]][h]


def brute_force_canonical(g: FiniteGroup, tup) -> tuple:
    return min(tuple(conjugate(g, x, h) for x in tup) for h in range(g.order))


@pytest.mark.parametrize("name", SMALL_GROUPS + ("a5", "s5"))
def test_conjugation_data_matches_the_table(name):
    g = load_group(name)
    n = g.order
    for h in range(n):
        assert g.conj[h] == tuple(conjugate(g, x, h) for x in range(n))
    for x in range(n):
        images = [conjugate(g, x, h) for h in range(n)]
        assert g.least[x] == min(images)
        reaching = {g.conj[h] for h in range(n) if images[h] == g.least[x]}
        assert len(g.reach[x]) == len(reaching) and set(g.reach[x]) == reaching, (name, x)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_canonical_is_the_least_conjugate(name, rng):
    g = load_group(name)
    assert g.canonical(()) == ()
    for x in range(g.order):
        assert g.canonical((x,)) == (g.least[x],)
    for d in (2, 3, 4):
        for _ in range(60):
            tup = tuple(rng.randrange(g.order) for _ in range(d))
            least = brute_force_canonical(g, tup)
            assert g.canonical(tup) == least, (name, tup)
            assert g.canonical(list(tup)) == least
            assert canonical_tuple(g.table, g.inverse, tup) == least


def brute_force_classes(g: FiniteGroup, d: int) -> tuple[list, list]:
    """The sorted canonical forms of all product-one d-tuples, and of those
    whose elements generate G, from all |G|^(d-1) prefixes: the
    definition of what the walk returns without and with ``generates``."""
    every, generating, verdict = set(), set(), {}
    for prefix in itertools.product(range(g.order), repeat=d - 1):
        acc = 0
        for x in prefix:
            acc = g.table[acc][x]
        tup = prefix + (g.inverse[acc],)
        least = g.canonical(tup)
        every.add(least)
        key = frozenset(tup)
        if key not in verdict:
            verdict[key] = g.generates(key)
        if verdict[key]:
            generating.add(least)
    return sorted(every), sorted(generating)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_generating_walk_matches_brute_force(name):
    """The walk decides generation per (prefix subgroup, element) and emits
    the classes already sorted; brute force filters every tuple by
    ``generates`` and sorts."""
    g = load_group(name)
    for d in (2, 3, 4, 5):
        every, generating = brute_force_classes(g, d)
        assert list(enumerate_classes(g, d)) == every, (name, d)
        assert list(enumerate_classes(g, d, surjective_only=True)) == generating, (name, d)


def random_automorphisms(rng, d: int) -> list:
    """The monodromy of two random cluster forests, and two endomorphisms
    with random image words (delta is defined on classes for any of them)."""
    auts = []
    for _ in range(2):
        clusters = []
        for depth in range(1, 3):
            start = rng.randint(1, d - 1)
            clusters.append(Cluster(start, rng.randint(2, d - start + 1), depth))
        auts.append(monodromy_automorphism(ClusterForest(d, tuple(clusters))))
    for _ in range(2):
        words = (
            [rng.choice((-1, 1)) * rng.randint(1, d) for _ in range(rng.randint(0, 6))]
            for _ in range(d)
        )
        images = tuple(FreeWord(tuple(w)) for w in words)
        auts.append(FreeAutomorphism(d, images))
    return auts


def test_evaluate_word_folds_the_table(rng):
    c3 = load_group("c3")
    assert evaluate_word(c3.table, c3.inverse, (1, 2), []) == 0
    for name in ("s3", "d4", "q8", "a4"):
        g = load_group(name)
        for _ in range(50):
            tup = tuple(rng.randrange(g.order) for _ in range(4))
            word = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 8))]
            elements = [tup[x - 1] if x > 0 else g.inverse[tup[-x - 1]] for x in word]
            want = functools.reduce(lambda acc, x: g.table[acc][x], elements, 0)
            assert evaluate_word(g.table, g.inverse, tup, word) == want, (name, tup, word)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_delta_matches_word_evaluation_oracle(name, rng):
    g = load_group(name)
    for d in (2, 3, 4):
        classes = enumerate_classes(g, d)
        for aut in random_automorphisms(rng, d):
            for c in classes:
                new = tuple(
                    evaluate_word(g.table, g.inverse, c, w.letters) for w in aut.images
                )
                want = canonical_tuple(g.table, g.inverse, new)
                assert delta_on_class(c, aut, g) == want, (name, d, c, aut)


def conjugation_cases(rng, d: int) -> list:
    """Monodromy of random cluster forests, each also composed with an
    inner automorphism on either side (conjugators with inverse letters),
    and maps with some or all images not conjugates of a generator."""
    auts = []
    for _ in range(3):
        a = monodromy_automorphism(compute_clusters(random_ultrametric_matrix(rng, d, rng.randint(1, 3))))
        w = FreeWord(tuple(rng.choice((-1, 1)) * rng.randint(1, d) for _ in range(rng.randint(1, 5))))
        auts += [a, compose(inner(w, d), a), compose(a, inner(w, d))]
    images = list(auts[0].images)
    images[rng.randrange(d)] = FreeWord((1, 1, -2) if d > 1 else (1, 1))
    auts.append(FreeAutomorphism(d, tuple(images)))
    auts.append(FreeAutomorphism(d, (FreeWord(()),) * d))
    auts += random_automorphisms(rng, d)[2:]
    return auts


@pytest.mark.parametrize("name", ("c6", "s3", "d4", "q8", "a4", "s4"))
def test_conjugation_delta_matches_letter_by_letter(name, rng):
    g = load_group(name)
    for d in (2, 3, 5, 8):
        tuples = [tuple(rng.randrange(g.order) for _ in range(d)) for _ in range(25)]
        for aut in conjugation_cases(rng, d):
            form = conjugation_form(aut)
            for tup in tuples:
                want = letter_delta_on_class(tup, aut, g)
                assert delta_on_class(tup, aut, g, form=form) == want, (name, tup, aut)
                assert delta_on_class(tup, aut, g) == want, (name, tup, aut)


def test_conjugation_form_shares_prefixes(rng):
    """Each conjugate image's trie node spells its conjugator u, and the trie
    has one node per distinct prefix of the u's."""
    for _ in range(20):
        d = rng.randint(2, 12)
        for aut in conjugation_cases(rng, d)[:9]:
            trie, images, _ = conjugation_form(aut)
            prefixes = set()
            for (node, k), w in zip(images, aut.images):
                u, core = w.cyclic_decomposition()
                slots = [x - 1 if x > 0 else d - x - 1 for x in u.letters + core.letters]
                spelled = [k]
                while node:
                    node, letter = trie[node - 1]
                    spelled.append(letter)
                assert spelled[::-1] == slots, (aut, w)
                prefixes.update(tuple(slots[:n]) for n in range(1, len(slots)))
            assert len(trie) == len(prefixes)


def test_moduli_report_refuses_images_outside_the_class_set():
    g = load_group("s3")
    squares = FreeAutomorphism(3, (FreeWord((1, 1)), FreeWord((2,)), FreeWord((3,))))
    with pytest.raises(UnsupportedForm):
        moduli_report(g, squares, surjective_only=False)


def test_moduli_report_refuses_a_map_that_is_not_a_permutation():
    """x1 -> x1*x2, x2 -> 1 keeps every product-one tuple product-one, but
    sends both classes of C2 at d=2 to (0, 0): the orbit of (1, 1) never
    closes, so the walk along it must not start."""
    collapse = FreeAutomorphism(2, (FreeWord((1, 2)), FreeWord(())))
    with pytest.raises(UnsupportedForm, match="same delta image"):
        moduli_report(load_group("c2"), collapse, surjective_only=False)


def test_moduli_degree_refuses_an_orbit_that_misses_its_start():
    """The same map takes (1, 1) to the fixed point (0, 0), so delta^N
    never fixes (1, 1); the walk must stop, not loop forever."""
    collapse = FreeAutomorphism(2, (FreeWord((1, 2)), FreeWord(())))
    with pytest.raises(UnsupportedForm, match=r"returns to \(0, 0\) before \(1, 1\)"):
        moduli_degree((1, 1), collapse, load_group("c2"))
    assert moduli_degree((0, 0), collapse, load_group("c2")) == 1


def report_cases():
    for name in SMALL_GROUPS:
        for d in (2, 3, 4):
            for surjective_only in (True, False):
                yield name, d, surjective_only


def twist(d: int) -> FreeAutomorphism:
    return monodromy_automorphism(ClusterForest(d, (Cluster(1, 2, 1),)))


def streamed(report) -> str:
    out = io.StringIO()
    report.write_json(out)
    return out.getvalue()


@pytest.mark.parametrize("chunk", (quotients.JSON_CHUNK, 1, 3))
def test_streamed_json_is_json_dumps(chunk, monkeypatch):
    monkeypatch.setattr(quotients, "JSON_CHUNK", chunk)
    empty = 0
    for name, d, surjective_only in report_cases():
        g = load_group(name)
        report = moduli_report(g, twist(d), p=0, surjective_only=surjective_only)
        empty += report.class_count == 0
        assert streamed(report) == json.dumps(report.to_json_dict(), indent=2) + "\n", (
            name, d, surjective_only,
        )
    report = moduli_report(load_group("s3"), twist(2), surjective_only=True)
    assert report.class_count == 0 and empty > 0
    assert streamed(report) == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_streamed_json_escapes_the_group_name_and_spans_chunks():
    g = load_group({"name": 'K"é\\\n', "table": load_group("s3").table})
    report = moduli_report(g, twist(7), p=7)
    assert report.class_count > quotients.JSON_CHUNK
    assert streamed(report) == json.dumps(report.to_json_dict(), indent=2) + "\n"


# -- Light's associativity test ----------------------------------------------

def cubic_failures(table) -> set:
    n = len(table)
    return {
        (a, b, c)
        for a, b, c in itertools.product(range(n), repeat=3)
        if table[table[a][b]][c] != table[a][table[b][c]]
    }


def random_loop(rng, n: int) -> tuple:
    """A random latin square on 0..n-1 whose row and column 0 are the
    identity: a loop, rarely a group."""
    table = [[-1] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        r, c = cells[k]
        used = set(table[r][:c]) | {table[i][c] for i in range(r)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            table[r][c] = v
            if fill(k + 1):
                return True
        table[r][c] = -1
        return False

    assert fill(0)
    return tuple(tuple(row) for row in table)


def test_light_test_agrees_with_the_cubic_check(rng):
    tables = [find_nonassociative_loop()]
    tables += [random_loop(rng, n) for n in (2, 3, 4, 5, 6, 7) for _ in range(25)]
    tables += [load_group(name).table for name in SMALL_GROUPS]
    failing = 0
    for table in tables:
        failures = cubic_failures(table)
        got = associativity_failure(table)
        assert (got is None) == (not failures), table
        if got is not None:
            failing += 1
            assert got in failures, table
    assert failing > 50  # loops of order 4 or less are groups


def test_light_test_checks_every_generator():
    """C3 x loop5, element (c, l) at index c + 3l: the first generator the
    greedy search picks, (1, e), lies in the nucleus, so only a later
    generator exposes a failing triple."""
    loop = find_nonassociative_loop()
    table = tuple(
        tuple((a % 3 + b % 3) % 3 + 3 * loop[a // 3][b // 3] for b in range(15)) for a in range(15)
    )
    assert all(
        table[table[a][1]][c] == table[a][table[1][c]] for a in range(15) for c in range(15)
    )
    assert associativity_failure(table) in cubic_failures(table)


def test_not_a_group_names_a_failing_triple():
    table = find_nonassociative_loop()
    with pytest.raises(NotAGroup) as info:
        FiniteGroup("loop5", table)
    triple = tuple(int(x) for x in str(info.value).split("(")[1].rstrip(")").split(","))
    assert triple in cubic_failures(table)


def test_light_test_accepts_list_rows():
    table = [list(row) for row in load_group("s3").table]
    assert associativity_failure(table) is None
    loop = [list(row) for row in find_nonassociative_loop()]
    assert associativity_failure(loop) in cubic_failures(loop)
