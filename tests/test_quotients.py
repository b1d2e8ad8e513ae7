"""Finite groups, cover-class enumeration against a naive oracle, the
delta action, and the moduli-degree divisibility check."""

import io
import itertools
import json

import pytest

from branchmono import _kernels
from branchmono.clusters import Cluster, ClusterForest
from branchmono.errors import (
    NotAGroup,
    PrimeToPViolation,
    SizeLimit,
    UnknownBuiltin,
)
from branchmono.freegroup import FreeWord
from branchmono.monodromy import monodromy_automorphism
from branchmono.quotients import (
    DEFAULT_TUPLE_CAP,
    MAX_GROUP_ORDER,
    FiniteGroup,
    center_and_exponent,
    delta_on_class,
    enumerate_classes,
    forest_twists,
    load_group,
    moduli_report,
)
from conftest import random_forests
from oracles import (
    canonical_tuple,
    compose,
    evaluate_word,
    identity,
    inner,
    letter_delta_on_class,
    moduli_degree,
)


# -- groups ------------------------------------------------------------------

def test_builtin_aliases():
    assert load_group("cyclic 3").order == 3
    assert load_group("c3").order == 3
    assert load_group("z5").order == 5
    assert load_group("symmetric 3").order == 6
    assert load_group("s4").order == 24
    assert load_group("d4").order == 8
    assert load_group("a4").order == 12
    assert load_group("q8").order == 8
    assert load_group("cyclic  3").name == "C3"
    assert load_group("Z_5").name == "C5"
    assert load_group("dihedral4").name == "D4"
    assert load_group("quaternion 8").name == "Q8"
    assert load_group("c007").name == "C7"
    with pytest.raises(UnknownBuiltin):
        load_group("s6")
    with pytest.raises(UnknownBuiltin):
        load_group("monster")


def test_group_order_cap():
    """The cap is checked before a table is built or scanned: every table
    below has cap + 1 empty rows, which a scan would call NotAGroup."""
    assert load_group("d100").order == 200
    rows = [[]] * (MAX_GROUP_ORDER + 1)
    for make in (
        lambda: FiniteGroup("big", tuple(tuple(r) for r in rows)),
        lambda: load_group({"table": rows}),
        lambda: load_group(f"c{MAX_GROUP_ORDER + 1}"),
        lambda: load_group(f"d{MAX_GROUP_ORDER // 2 + 1}"),
        lambda: load_group("s" + "9" * 5000),
    ):
        with pytest.raises(SizeLimit) as info:
            make()
        assert info.value.details == {"cap": MAX_GROUP_ORDER}


def test_load_group_from_dict():
    g = load_group({"name": "K", "table": [[0, 1], [1, 0]]})
    assert g.order == 2 and g.name == "K"


def test_not_a_group_latin_violation():
    with pytest.raises(NotAGroup):
        FiniteGroup("bad", ((0, 1), (1, 1)))


def find_nonassociative_loop():
    """DFS for a 5x5 Cayley table with two-sided identity and inverses that
    fails associativity; deterministic, used as the broken-table fixture."""
    n = 5
    table = [[-1] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i

    def ok_partial(r, c):
        v = table[r][c]
        if any(table[r][k] == v for k in range(c)):
            return False
        if any(table[k][c] == v for k in range(r)):
            return False
        return True

    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def associative(t):
        return all(
            t[t[a][b]][c] == t[a][t[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    def two_sided_inverses(t):
        for g in range(n):
            h = t[g].index(0)
            if t[h][g] != 0:
                return False
        return True

    def dfs(k):
        if k == len(cells):
            if two_sided_inverses(table) and not associative(table):
                return True
            return False
        r, c = cells[k]
        for v in range(n):
            table[r][c] = v
            if ok_partial(r, c) and dfs(k + 1):
                return True
        table[r][c] = -1
        return False

    assert dfs(0)
    return tuple(tuple(row) for row in table)


def test_not_a_group_broken_associativity():
    table = find_nonassociative_loop()
    with pytest.raises(NotAGroup, match="associativity"):
        FiniteGroup("loop5", table)


def element_order(g: FiniteGroup, x: int) -> int:
    k, acc = 1, x
    while acc != 0:
        acc = g.table[acc][x]
        k += 1
    return k


def element_order_profile(g: FiniteGroup) -> dict[int, int]:
    profile: dict[int, int] = {}
    for x in range(g.order):
        k = element_order(g, x)
        profile[k] = profile.get(k, 0) + 1
    return profile


def test_builtin_isomorphism_types():
    """Element-order profiles pin the isomorphism classes of the builtins
    (in particular D4 vs Q8, the two non-abelian groups of order 8)."""
    assert element_order_profile(load_group("d4")) == {1: 1, 2: 5, 4: 2}
    assert element_order_profile(load_group("q8")) == {1: 1, 2: 1, 4: 6}
    assert element_order_profile(load_group("s3")) == {1: 1, 2: 3, 3: 2}
    assert element_order_profile(load_group("a4")) == {1: 1, 2: 3, 3: 8}
    assert element_order_profile(load_group("s4")) == {1: 1, 2: 9, 3: 8, 4: 6}
    assert element_order_profile(load_group("c6")) == {1: 1, 2: 1, 3: 2, 6: 2}


def test_center_and_exponent_examples():
    z, exp = center_and_exponent(load_group("s3"))
    assert z == (0,) and exp == 6

    z, exp = center_and_exponent(load_group("c6"))
    assert len(z) == 6 and exp == 1

    z, exp = center_and_exponent(load_group("q8"))
    assert len(z) == 2 and exp == 2

    z, exp = center_and_exponent(load_group("d4"))
    assert len(z) == 2 and exp == 2


# -- enumeration -------------------------------------------------------------

def naive_classes(g: FiniteGroup, d: int, surjective_only: bool):
    """Independent double-loop oracle: enumerate all product-one tuples,
    then group them by expanding conjugation orbits."""
    tuples = set()
    for prefix in itertools.product(range(g.order), repeat=d - 1):
        acc = 0
        for x in prefix:
            acc = g.table[acc][x]
        tup = prefix + (g.inverse[acc],)
        if surjective_only and not g.generates(set(tup)):
            continue
        tuples.add(tup)
    classes = []
    while tuples:
        seed = tuples.pop()
        orbit = {tuple(g.conj[h][x] for x in seed) for h in range(g.order)}
        tuples -= orbit
        classes.append(min(orbit))
    return sorted(classes)


def test_z2_d2_classes():
    got = enumerate_classes(load_group("c2"), 2)
    assert list(got) == [(0, 0), (1, 1)]


def test_z3_d2_classes():
    got = enumerate_classes(load_group("c3"), 2)
    assert len(got) == 3


def test_s3_d3_surjective_matches_naive_oracle():
    g = load_group("s3")
    got = list(enumerate_classes(g, 3, surjective_only=True))
    expected = naive_classes(g, 3, surjective_only=True)
    assert got == expected
    # frozen from the oracle's first verified run: the three orderings of
    # (transposition, transposition, 3-cycle)
    assert len(got) == 3


def test_enumeration_matches_naive_oracle_various():
    for name, d in (("c4", 3), ("s3", 2), ("d4", 3), ("q8", 3), ("a4", 2)):
        g = load_group(name)
        got = list(enumerate_classes(g, d))
        assert got == naive_classes(g, d, surjective_only=False), (name, d)


def test_size_limit():
    with pytest.raises(SizeLimit):
        enumerate_classes(load_group("s4"), 4, cap=1000)


def test_product_of_class_is_identity():
    g = load_group("d4")
    for c in enumerate_classes(g, 3):
        acc = 0
        for x in c:
            acc = g.table[acc][x]
        assert acc == 0


# -- delta action ------------------------------------------------------------

def example2_forest(m: int = 1) -> ClusterForest:
    return ClusterForest(4, tuple(Cluster(1, 2, n) for n in range(1, m + 1)))


def test_delta_identity_automorphism():
    g = load_group("s3")
    for c in enumerate_classes(g, 3)[:5]:
        assert delta_on_class(c, forest_twists(ClusterForest(3, ())), g) == c
        assert moduli_degree(c, identity(3), g) == 1


def test_delta_conjugates_first_two_slots():
    g = load_group("s3")
    aut = monodromy_automorphism(example2_forest(1))
    # any product-one tuple: check slots 1,2 are conjugated by g1*g2 and
    # slots 3,4 are fixed, on the raw tuple before canonicalization
    tup = (1, 2, g.inverse[g.table[g.table[1][2]][3]], 3)
    acc = 0
    for x in tup:
        acc = g.table[acc][x]
    assert acc == 0
    y = g.table[tup[0]][tup[1]]
    for i in (0, 1):
        expected = g.conj[g.inverse[y]][tup[i]]  # y g_i y^-1
        assert evaluate_word(g.table, g.inverse, tup, aut.images[i].letters) == expected
    for i in (2, 3):
        assert evaluate_word(g.table, g.inverse, tup, aut.images[i].letters) == tup[i]
    expected = (g.conj[g.inverse[y]][tup[0]], g.conj[g.inverse[y]][tup[1]], tup[2], tup[3])
    assert delta_on_class(tup, forest_twists(example2_forest(1)), g) == g.canonical(expected)


def test_delta_abelian_trivial():
    g = load_group("c5")
    form = forest_twists(example2_forest(2))
    for c in enumerate_classes(g, 4):
        assert delta_on_class(c, form, g) == c


def test_delta_well_defined_on_representatives(rng):
    g = load_group("s3")
    form = forest_twists(example2_forest(1))
    classes = enumerate_classes(g, 4)
    for _ in range(30):
        c = classes[rng.randrange(len(classes))]
        h = rng.randrange(g.order)
        conj_rep = tuple(g.conj[h][x] for x in c)
        assert g.canonical(conj_rep) == c
        assert delta_on_class(conj_rep, form, g) == delta_on_class(c, form, g)


def test_inner_shift_acts_trivially_on_classes():
    g = load_group("s3")
    forest = example2_forest(1)
    shifted = compose(inner(FreeWord((1, 3, -1)), 4), monodromy_automorphism(forest))
    for c in enumerate_classes(g, 4, surjective_only=True):
        assert delta_on_class(c, forest_twists(forest), g) == letter_delta_on_class(c, shifted, g)


# -- moduli degrees ----------------------------------------------------------

def test_moduli_degree_divides_exponent_spot():
    g = load_group("s3")
    aut = monodromy_automorphism(example2_forest(1))
    exp = center_and_exponent(g)[1]
    for c in enumerate_classes(g, 4, surjective_only=True):
        assert exp % moduli_degree(c, aut, g) == 0


def test_s3_d4_regression_values():
    """Frozen after the first verified run of this artifact."""
    g = load_group("s3")
    rep = moduli_report(g, example2_forest(1), p=5, surjective_only=True)
    assert rep.class_count == 28
    assert rep.max_degree == 3
    assert rep.exponent == 6
    assert rep.all_divide
    rep_all = moduli_report(g, example2_forest(1), p=5, surjective_only=False)
    assert rep_all.class_count == 49
    assert rep_all.max_degree == 3


def test_moduli_report_matches_per_class_degrees(rng):
    """The cycle walk's degrees are the orbit lengths under the monodromy
    images folded letter by letter: with no cluster, on chains and on
    sibling clusters, every class or only the generating ones."""
    for name in ("c6", "s3", "d4", "q8", "a4", "s4"):
        g = load_group(name)
        for d in (2, 3, 4):
            for forest in random_forests(rng, d):
                aut = monodromy_automorphism(forest)
                for surjective_only in (True, False):
                    rep = moduli_report(g, forest, p=0, surjective_only=surjective_only)
                    for c, deg in zip(rep.classes, rep.degrees):
                        assert moduli_degree(c, aut, g) == deg, (name, c, forest)


def test_prime_to_p_violation():
    g = load_group("c6")
    with pytest.raises(PrimeToPViolation):
        moduli_report(g, example2_forest(1), p=3)


def test_report_json_and_csv():
    g = load_group("c3")
    rep = moduli_report(g, example2_forest(1), p=5, surjective_only=False)
    out = io.StringIO()
    rep.write_json(out)
    doc = json.loads(out.getvalue())
    assert doc["kind"] == "orbits"
    assert doc["class_count"] == len(doc["classes"])
    out = io.StringIO()
    rep.write_csv(out)
    text = out.getvalue()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "class,representative,degree"
    assert len(lines) == rep.class_count + 1


# -- independent oracles for the orderly enumeration -------------------------

BUILTIN_NAMES = (
    "c1", "c2", "c3", "c5", "c6", "d3", "d4", "d5", "q8",
    "s1", "s2", "s3", "s4", "s5", "a3", "a4", "a5",
)


def burnside_class_count(g: FiniteGroup, d: int) -> int:
    """Orbits of conjugation on the free (d-1)-prefixes, counted without
    enumeration: (1/|G|) * sum over h of |C(h)|^(d-1)."""
    n = g.order
    total = 0
    for h in range(n):
        centraliser = sum(1 for x in range(n) if g.table[h][x] == g.table[x][h])
        total += centraliser ** (d - 1)
    assert total % n == 0
    return total // n


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_enumeration_matches_burnside_count(name):
    g = load_group(name)
    for d in (2, 3, 4):
        if g.order ** (d - 1) > DEFAULT_TUPLE_CAP:
            continue
        assert len(enumerate_classes(g, d)) == burnside_class_count(g, d), (name, d)


def test_enumeration_matches_naive_oracle_larger_groups():
    for name in ("a4", "s4", "a5"):
        g = load_group(name)
        got = list(enumerate_classes(g, 3))
        assert got == naive_classes(g, 3, surjective_only=False), name
    g = load_group("a4")
    got = list(enumerate_classes(g, 3, surjective_only=True))
    assert got == naive_classes(g, 3, surjective_only=True)


def brute_force_chunk(g: FiniteGroup, d: int, lo: int, hi: int) -> set:
    """Least conjugates of all product-one tuples, kept where the first
    coordinate lies in [lo, hi): what a chunk of the walk is defined to
    return."""
    out = set()
    for prefix in itertools.product(range(g.order), repeat=d - 1):
        acc = 0
        for x in prefix:
            acc = g.table[acc][x]
        tup = prefix + (g.inverse[acc],)
        least = min(tuple(g.conj[h][x] for x in tup) for h in range(g.order))
        if lo <= least[0] < hi:
            out.add(least)
    return out


def test_single_coordinate_chunks_partition_the_whole_set():
    for name, d in (("s3", 3), ("d4", 4), ("a4", 3), ("q8", 3), ("s4", 2), ("c7", 3), ("c8", 3)):
        g = load_group(name)
        whole = _kernels.product_one_classes_chunk(g.table, g.inverse, d, 0, g.order, conj=g.conj)
        assert all(a < b for a, b in zip(whole, whole[1:])), (name, d)
        pieces = set()
        for lo in range(g.order):
            chunk = _kernels.product_one_classes_chunk(g.table, g.inverse, d, lo, lo + 1, conj=g.conj)
            assert all(a < b for a, b in zip(chunk, chunk[1:])), (name, d, lo)
            assert set(chunk) == brute_force_chunk(g, d, lo, lo + 1), (name, d, lo)
            assert not pieces & set(chunk), (name, d, lo)
            pieces |= set(chunk)
        assert pieces == set(whole), (name, d)
        assert not _kernels.product_one_classes_chunk(g.table, g.inverse, d, 2, 2, conj=g.conj)
    g = load_group("s3")
    for d in (1, 0, -1):
        assert not _kernels.product_one_classes_chunk(g.table, g.inverse, d, 0, g.order, conj=g.conj)


def test_canonical_tuple_is_least_conjugate(rng):
    for name in ("c6", "s3", "d4", "q8", "a4", "s4", "a5"):
        g = load_group(name)
        for _ in range(100):
            tup = tuple(rng.randrange(g.order) for _ in range(rng.randint(1, 6)))
            least = min(tuple(g.conj[h][x] for x in tup) for h in range(g.order))
            assert canonical_tuple(g.table, g.inverse, tup) == least, (name, tup)


def naive_closure(g: FiniteGroup, gens) -> frozenset:
    """Fixpoint of products of pairs, starting from the identity and gens."""
    current = {0, *gens}
    while True:
        grown = current | {g.table[a][b] for a in current for b in current}
        if grown == current:
            return frozenset(current)
        current = grown


def test_closure_matches_naive_fixpoint(rng):
    for name in ("c1", "c6", "s3", "d4", "q8", "a4", "s4", "a5"):
        g = load_group(name)
        assert g.closure([]) == frozenset({0})
        for _ in range(40):
            gens = [rng.randrange(g.order) for _ in range(rng.randint(1, 3))]
            assert g.closure(gens) == naive_closure(g, gens), (name, gens)

