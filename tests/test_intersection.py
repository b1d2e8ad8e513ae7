"""Input modes, valuations, matrix validation, and canonical ordering."""

import itertools
from fractions import Fraction as F

import pytest

from branchmono.errors import (
    BranchMonoError,
    DuplicatePoint,
    IndistinguishableTruncation,
    InvalidInput,
    NonIntegralPoint,
    SizeLimit,
    UltrametricViolation,
)
from branchmono.intersection import (
    DIGIT_CAP,
    ECHO_LIMIT,
    PRIME_CAP,
    BranchInput,
    IntersectionMatrix,
    canonical_order,
    compute_matrix,
    is_prime,
    parse_rational,
    satisfies_interval_hypothesis,
)
from conftest import random_ultrametric_entries, random_ultrametric_matrix, shuffled
from oracles import entries, padic_valuation, pairwise_oracle, prim_tree, reindex


def test_padic_valuation():
    assert padic_valuation(F(9), 3) == 2
    assert padic_valuation(F(1, 3), 3) == -1
    assert padic_valuation(F(10, 7), 5) == 1
    with pytest.raises(ValueError):
        padic_valuation(F(0), 5)


def test_example2_matrix():
    bi = BranchInput(mode="padic", p=3, points=(F(0), F(3), F(1), F(2)))
    e = entries(compute_matrix(bi))
    assert e[0][1] == 1
    for i, j in itertools.combinations(range(4), 2):
        if (i, j) != (0, 1):
            assert e[i][j] == 0


def test_example1_matrix_all_zero():
    bi = BranchInput(mode="padic", p=5, points=(F(0), F(1), F(2)))
    e = entries(compute_matrix(bi))
    assert all(e[i][j] == 0 for i, j in itertools.combinations(range(3), 2))


def test_padic_errors():
    with pytest.raises(NonIntegralPoint):
        BranchInput(mode="padic", p=5, points=(F(1, 5), F(0)))
    with pytest.raises(DuplicatePoint):
        BranchInput(mode="padic", p=5, points=(F(2), F(2)))
    with pytest.raises(InvalidInput):
        BranchInput(mode="padic", p=6, points=(F(0), F(1)))
    with pytest.raises(InvalidInput):
        BranchInput(mode="padic", p=5, points=(F(0),))


def test_series_mode():
    bi = BranchInput(
        mode="series",
        truncation=3,
        points=((F(0), F(1), F(0)), (F(0), F(2), F(0)), (F(1), F(1), F(0))),
    )
    e = entries(compute_matrix(bi))
    assert e[0][1] == 1
    assert e[0][2] == 0
    assert e[1][2] == 0


def test_series_indistinguishable():
    bi = BranchInput(
        mode="series",
        truncation=2,
        points=((F(0), F(1)), (F(0), F(1)), (F(1), F(0))),
    )
    with pytest.raises(IndistinguishableTruncation):
        compute_matrix(bi)


def test_matrix_mode_ultrametric_violation():
    # spec example: e12=2, e13=0, e23=1 -> min 0 attained once
    bi = BranchInput(mode="matrix", matrix=((0, 2, 0), (2, 0, 1), (0, 1, 0)))
    with pytest.raises(UltrametricViolation):
        compute_matrix(bi)


def test_matrix_mode_passthrough():
    rows = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    m = compute_matrix(BranchInput(mode="matrix", matrix=rows))
    assert entries(m) == rows


def test_from_json_dict():
    bi = BranchInput.from_json_dict(
        {"mode": "padic", "p": 5, "points": ["1/5" if False else "2", 0, "7"]}
    )
    assert bi.points == (F(2), F(0), F(7))
    with pytest.raises(InvalidInput):
        BranchInput.from_json_dict({"mode": "nope"})
    with pytest.raises(InvalidInput):
        BranchInput.from_json_dict({"mode": "padic", "p": 5, "points": [0.5, 1]})


def assert_trie_matches_oracle(bi):
    """compute_matrix's tree against the validated pairwise matrix."""
    fast = compute_matrix(bi)
    slow = IntersectionMatrix(bi.d, pairwise_oracle(bi))  # validates the ultrametric rule
    assert (fast.order, fast.steps, entries(fast)) == (slow.order, slow.steps, pairwise_oracle(bi))
    return fast, slow


def random_padic_input(rng):
    """Points x0 + p^k * y/b around a few bases x0: several p, non-unit
    denominators b, repeated digits and shared prefixes up to k = 200."""
    p = rng.choice([2, 3, 5, 7])
    dens = (1, p + 1, 2 * p + 1)
    bases = [F(rng.randint(-p**6, p**6), rng.choice(dens)) for _ in range(rng.randint(1, 3))]
    points: dict = {}
    while len(points) < 2:
        points = dict.fromkeys(
            rng.choice(bases)
            + p ** rng.choice([0, 1, 2, 3, 30, 200]) * F(rng.randint(-p**4, p**4), rng.choice(dens))
            for _ in range(rng.randint(2, 24))
        )
    return BranchInput(mode="padic", p=p, points=tuple(points))


def random_series_input(rng):
    """Series that copy a random prefix of an earlier one, so that deep
    shared prefixes and truncation ties are common."""
    t = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(2, 12)):
        k = rng.randint(0, t) if rows and rng.random() < 0.6 else 0
        prefix = rng.choice(rows)[:k] if k else ()
        rows.append(prefix + tuple(F(rng.choice([0, 1, 2, -1]), rng.choice([1, 2])) for _ in range(t - k)))
    return BranchInput(mode="series", truncation=t, points=tuple(rows))


def test_computed_matrices_are_ultrametric(rng):
    """Valuation axioms force the two-minima rule: the validator accepts
    every padic input's pairwise matrix, and the trie gives its order,
    consecutive depths and entries."""
    for _ in range(400):
        assert_trie_matches_oracle(random_padic_input(rng))


def test_series_matrices_are_ultrametric(rng):
    ties = 0
    for _ in range(400):
        bi = random_series_input(rng)
        try:
            pairwise_oracle(bi)
        except IndistinguishableTruncation as expected:
            ties += 1
            with pytest.raises(IndistinguishableTruncation) as info:
                compute_matrix(bi)
            assert str(info.value) == str(expected)
            assert info.value.details == expected.details
            continue
        assert_trie_matches_oracle(bi)
    assert 50 < ties < 350


def test_series_tie_names_the_first_pair_of_a_scan():
    """Series 3 and 5 tie in the subtree the trie visits first, but the
    scan of pairs i < j meets 2 and 4 first."""
    rows = ((0, 0), (1, 0), (0, 1), (1, 0), (0, 1))
    bi = BranchInput(mode="series", truncation=2, points=tuple(tuple(map(F, r)) for r in rows))
    with pytest.raises(IndistinguishableTruncation, match="series 2 and 4 agree") as info:
        compute_matrix(bi)
    assert info.value.details == {"pair": [2, 4], "truncation": 2}


def test_deep_shared_prefixes():
    """Shared runs of 20000 digits, 2-adic and 3-adic, give exact depths;
    each node takes one valuation per member, not one level per digit."""
    bi = BranchInput(mode="padic", p=2, points=(F(0), F(2**20000), F(3 * 2**20000)))
    m = compute_matrix(bi)
    assert m.order == (1, 2, 3)
    assert m.steps == (20000, 20001)
    x = 3**20000
    bi = BranchInput(mode="padic", p=3, points=(F(x), F(0), F(4 * x), F(2 * x, 5)))
    m = compute_matrix(bi)
    assert (m.order, m.steps) == ((1, 3, 4, 2), (20001, 20002, 20000))


def test_points_past_the_digit_limit_without_labels():
    """A point too long for str() is accepted but has no default label when
    its labels are read, and a non-integral one is echoed bounded; both are
    domain errors, not a bare ValueError."""
    bi = BranchInput(mode="padic", p=2, points=(F(0), F(2**20000)))
    with pytest.raises(InvalidInput, match="point 2 = <Fraction too long to print> has no default label$") as info:
        bi.labels
    assert info.value.to_json_dict()["details"] == {"point": 2}
    with pytest.raises(NonIntegralPoint, match=r"point 2 = <Fraction too long to print> has v_2 < 0"):
        BranchInput(mode="padic", p=2, points=(F(0), F(2**20000 + 1, 2)))


def test_forest_from_trie_matches_oracle_clusters(rng):
    """The forest swept from the trie's depths equals compute_clusters on
    the oracle's reordered matrix, and, pushed back through sigma, the
    brute-force clusters of the oracle matrix."""
    from branchmono.clusters import compute_clusters
    from conftest import brute_force_clusters

    for trial in range(150):
        bi = random_padic_input(rng) if trial % 2 else random_series_input(rng)
        try:
            slow = IntersectionMatrix(bi.d, pairwise_oracle(bi))
        except IndistinguishableTruncation:
            continue
        sigma, fast = canonical_order(compute_matrix(bi))
        forest = compute_clusters(fast)
        assert forest == compute_clusters(reindex(slow, sigma))
        if bi.d <= 7 and max(slow.steps) <= 40:
            relabeled = {
                (frozenset(sigma[i - 1] for i in c.indices()), c.depth) for c in forest.clusters
            }
            assert relabeled == brute_force_clusters(slow)


# -- canonical order ---------------------------------------------------------

def brute_force_lex_least_order(m: IntersectionMatrix):
    """Oracle: try all d! permutations, keep valid ones, pick lex least."""
    best = None
    for perm in itertools.permutations(range(1, m.d + 1)):
        if satisfies_interval_hypothesis(reindex(m, perm)):
            if best is None or perm < best:
                best = perm
    return best


def test_canonical_order_spec_example():
    m = IntersectionMatrix(3, ((0, 0, 2), (0, 0, 0), (2, 0, 0)))
    sigma, m2 = canonical_order(m)
    assert sigma == (1, 3, 2)
    assert sigma == brute_force_lex_least_order(m)
    assert entries(m2)[0][1] == 2


def test_canonical_order_identity_when_ordered():
    m = IntersectionMatrix(4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    sigma, m2 = canonical_order(m)
    assert sigma == (1, 2, 3, 4)
    assert m2 == m


def test_canonical_order_all_zero():
    m = IntersectionMatrix(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    sigma, _ = canonical_order(m)
    assert sigma == (1, 2, 3)


def test_canonical_order_matches_brute_force(rng):
    for _ in range(60):
        m = shuffled(random_ultrametric_matrix(rng, rng.randint(2, 5), 3), rng)
        sigma, m2 = canonical_order(m)
        assert satisfies_interval_hypothesis(m2)
        assert sigma == brute_force_lex_least_order(m)


def test_reindex_commutes_with_cluster_relabeling(rng):
    """Clusters of the reordered matrix, pushed back through sigma, are the
    brute-force clusters of the original."""
    from branchmono.clusters import compute_clusters
    from conftest import brute_force_clusters

    for _ in range(30):
        m = shuffled(random_ultrametric_matrix(rng, rng.randint(2, 6), 3), rng)
        sigma, m2 = canonical_order(m)
        relabeled = {
            (frozenset(sigma[i - 1] for i in c.indices()), c.depth)
            for c in compute_clusters(m2).clusters
        }
        assert relabeled == brute_force_clusters(m)


def test_canonical_order_idempotent(rng):
    for _ in range(40):
        m = shuffled(random_ultrametric_matrix(rng, rng.randint(2, 6), 4), rng)
        _, m2 = canonical_order(m)
        sigma2, m3 = canonical_order(m2)
        assert sigma2 == tuple(range(1, m.d + 1))
        assert m3 == m2


def test_oracle_unvalidated_reorder_matches_validated(rng):
    """canonical_order builds its matrix without validating it again; a
    validated construction of the same rows must agree on every entry, and
    its own canonical order must be the identity that the trusted one holds."""
    for trial in range(120):
        m = random_ultrametric_matrix(rng, rng.randint(2, 24), rng.randint(1, 5))
        if trial % 3:
            m = shuffled(m, rng)
        sigma, fast = canonical_order(m)
        e = entries(m)
        rows = tuple(tuple(e[s - 1][t - 1] for t in sigma) for s in sigma)
        checked = IntersectionMatrix(m.d, rows)
        assert fast.d == checked.d
        assert entries(fast) == rows
        assert fast.order == checked.order == tuple(range(1, m.d + 1))
        assert entries(reindex(m, sigma)) == rows


# -- input checks and the one-pass validation ------------------------------

def test_matrix_row_length_checked_before_diagonal():
    with pytest.raises(InvalidInput, match="row 1 has wrong length"):
        IntersectionMatrix(3, ((0, 1), (1, 0, 0), (0, 0, 0)))


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "matrix", "matrix": [None]},
        {"mode": "matrix", "matrix": "ab"},
        {"mode": "matrix", "matrix": [[0, 0], []]},
        {"mode": "series", "truncation": "", "points": [[0], [1]]},
        {"mode": "series", "truncation": True, "points": [[0], [1]]},
        {"mode": "matrix", "matrix": [["x", 1], [1, 0]]},
        {"mode": "matrix", "matrix": [[0, 1], [1, -1]]},
    ],
    ids=[
        "row-not-array", "string-matrix", "later-row-short", "string-truncation", "bool-truncation",
        "string-diagonal", "negative-diagonal",
    ],
)
def test_malformed_shapes_are_invalid_input(doc):
    with pytest.raises(InvalidInput):
        compute_matrix(BranchInput.from_json_dict(doc))


def test_matrix_rejects_bool_entries():
    with pytest.raises(InvalidInput, match=r"entry \(1,2\)"):
        IntersectionMatrix(2, ((0, True), (True, 0)))


def test_exponent_strings_are_capped_by_their_digits():
    """Mantissa digits (underscores not counted) plus |exponent| may reach
    DIGIT_CAP; past it the string is refused before Fraction expands it,
    echoed bounded.  An exponent past int()'s own digit limit stays
    INVALID_INPUT, as Fraction would have it."""
    assert parse_rational("1e19999") == 10**19999
    assert parse_rational(" 1_2.5_0e-19_996 ") == F(12_50, 10**19998)
    assert parse_rational("1e5000") == 10**5000
    for text in ("1e20000", "9.9E-19999", "1" * 4000 + "e16001", "1e" + "9" * 4000):
        with pytest.raises(SizeLimit, match=r"has more digits than the cap 20000$") as info:
            parse_rational(text)
        assert info.value.details == {"cap": DIGIT_CAP}
        assert len(str(info.value)) < ECHO_LIMIT + 80
    with pytest.raises(InvalidInput, match="cannot parse rational"):
        parse_rational("1e" + "9" * 5000)
    with pytest.raises(InvalidInput, match="cannot parse rational"):
        parse_rational("1/2e99999999")


HUGE_EXPONENT = "1e20001"


def test_padic_point_past_the_digit_cap_is_named():
    doc = {"mode": "padic", "p": 2, "points": ["1", "2", HUGE_EXPONENT]}
    with pytest.raises(SizeLimit) as info:
        BranchInput.from_json_dict(doc)
    assert info.value.details == {"cap": DIGIT_CAP, "point": 3}


def test_series_coefficient_past_the_digit_cap_is_named():
    doc = {"mode": "series", "truncation": 3, "points": [["0", "1", "2"], ["0", HUGE_EXPONENT, "1"]]}
    with pytest.raises(SizeLimit) as info:
        BranchInput.from_json_dict(doc)
    assert info.value.details == {"cap": DIGIT_CAP, "point": 2, "coefficient": 1}


def test_error_messages_echo_bounded_input():
    huge = "9" * 5000 + "x"
    for call in (
        lambda: parse_rational(huge),
        lambda: parse_rational([1] * 5000),
        lambda: BranchInput.from_json_dict({"mode": huge}),
        lambda: BranchInput.from_json_dict({"mode": "padic", "p": huge, "points": []}),
    ):
        with pytest.raises(InvalidInput) as info:
            call()
        assert len(str(info.value)) < ECHO_LIMIT + 80
    with pytest.raises(InvalidInput, match="'abc'"):
        parse_rational("abc")


def first_violating_triple(e):
    """Oracle: the first triple i < j < k (1-based) whose minimum is
    attained once, or None for an ultrametric."""
    for i, j, k in itertools.combinations(range(len(e)), 3):
        trio = sorted((e[i][j], e[i][k], e[j][k]))
        if trio[0] != trio[1]:
            return [i + 1, j + 1, k + 1]
    return None


def test_oracle_validation_matches_triple_scan(rng):
    rejected = 0
    for _ in range(400):
        m = shuffled(random_ultrametric_matrix(rng, rng.randint(2, 8), 3), rng)
        e = [list(row) for row in entries(m)]
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(m.d), 2)
            e[i][j] = e[j][i] = rng.randint(0, 4)
        expected = first_violating_triple(e)
        if expected is None:
            assert entries(IntersectionMatrix(m.d, tuple(map(tuple, e)))) == tuple(map(tuple, e))
            continue
        rejected += 1
        with pytest.raises(UltrametricViolation) as info:
            IntersectionMatrix(m.d, tuple(map(tuple, e)))
        assert info.value.details == {"triple": expected}
    assert rejected > 100


def random_matrix_draw(rng, dmax):
    """A square matrix of nonnegative integers, d = 2..dmax: an
    ultrametric, the all-zero matrix or the caterpillar
    e_ab = min(a, b) + 1, each shuffled and half the time with one pair of
    entries changed, or random entries in 0..3, symmetric or not.  The
    diagonal is random: no check may read it."""
    d = rng.randint(2, dmax)
    kind = rng.randrange(5)
    if kind == 0:
        e = random_ultrametric_entries(rng, d, rng.randint(1, 5))
    elif kind == 1:
        e = [[0] * d for _ in range(d)]
    elif kind == 2:
        e = [[min(a, b) + 1 for b in range(d)] for a in range(d)]
    else:
        e = [[rng.randint(0, 3) for _ in range(d)] for _ in range(d)]
        if kind == 3:
            e = [[e[min(a, b)][max(a, b)] for b in range(d)] for a in range(d)]
    if kind < 3:
        perm = rng.sample(range(d), d)
        e = [[e[perm[a]][perm[b]] for b in range(d)] for a in range(d)]
        if rng.random() < 0.5:
            i, j = rng.sample(range(d), 2)
            e[i][j] = e[j][i] = rng.randint(0, 6)
    for i in range(d):
        e[i][i] = rng.randint(0, 5)
    return tuple(map(tuple, e))


def outcome(build):
    """What build() returns, or the type, message and details of the
    domain error it raises."""
    try:
        return build()
    except BranchMonoError as exc:
        return type(exc), str(exc), exc.details


def oracle_tree(e):
    """The first asymmetric pair as the validator names it, then Prim's
    order and the consecutive-minimum check of ``prim_tree``."""
    d = len(e)
    for i, j in itertools.combinations(range(d), 2):
        if e[i][j] != e[j][i]:
            raise InvalidInput(f"matrix not symmetric at ({i + 1},{j + 1})")
    return prim_tree(e)


def test_split_order_and_run_check_match_prim_oracle(rng):
    """The split-built order and the run-length check agree with Prim's
    order and the per-entry check: the same order and steps, or the same
    error, message and details.  One draw in ten has d up to 40."""
    accepted = 0
    for n in range(4000):
        e = random_matrix_draw(rng, 40 if n % 10 == 0 else 14)
        m = outcome(lambda: IntersectionMatrix(len(e), e))
        expected = outcome(lambda: oracle_tree(e))
        if isinstance(m, IntersectionMatrix):
            accepted += 1
            m = (m.order, m.steps)
        assert m == expected, e
    assert 1000 < accepted < 3000


# -- primality ---------------------------------------------------------------

def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-3, 20000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 41041):
        assert not is_prime(n), n
    # strong pseudoprimes to every prime base up to 7, and up to 37
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)


def test_is_prime_large_mersenne_is_quick():
    """2^61 - 1 was out of reach of trial division; the first input below
    would not finish if the test were still trial division."""
    assert is_prime(2**61 - 1)
    assert is_prime(1_000_000_007)
    assert not is_prime((2**31 - 1) * 1_000_000_007)
    binput = BranchInput.from_json_dict({"mode": "padic", "p": 2**61 - 1, "points": [0, 1, 2]})
    assert binput.p == 2**61 - 1


def test_is_prime_refuses_past_cap():
    assert not is_prime(PRIME_CAP - 1)
    with pytest.raises(SizeLimit, match=str(PRIME_CAP)) as exc:
        is_prime(PRIME_CAP)
    assert exc.value.details == {"cap": PRIME_CAP}
    with pytest.raises(SizeLimit) as exc:
        BranchInput.from_json_dict({"mode": "padic", "p": 10**4000, "points": [0, 1]})
    assert len(str(exc.value)) < 200

