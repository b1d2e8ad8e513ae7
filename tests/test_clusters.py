"""Cluster enumeration against a brute-force subset oracle, and nesting."""

import copy
import pickle

import pytest

from branchmono.clusters import (
    MAX_CLUSTERS,
    Cluster,
    ClusterForest,
    TreeNode,
    compute_clusters,
    nesting_tree,
    tree_to_text,
)
from branchmono.errors import IntervalOutOfRange, NotCanonicallyOrdered, SizeLimit
from branchmono.intersection import IntersectionMatrix
from conftest import brute_force_clusters, random_forests, random_ultrametric_matrix
from oracles import entries


def forest_as_subsets(forest: ClusterForest):
    return {(frozenset(c.indices()), c.depth) for c in forest.clusters}


def test_example2_forest():
    for m_exp in (1, 2, 3):
        mat = IntersectionMatrix(
            4,
            (
                (0, m_exp, 0, 0),
                (m_exp, 0, 0, 0),
                (0, 0, 0, 0),
                (0, 0, 0, 0),
            ),
        )
        forest = compute_clusters(mat)
        assert forest.clusters == tuple(
            Cluster(1, 2, n) for n in range(1, m_exp + 1)
        )


def test_empty_forest():
    mat = IntersectionMatrix(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert compute_clusters(mat).clusters == ()


def test_nested_example():
    mat = IntersectionMatrix(3, ((0, 2, 1), (2, 0, 1), (1, 1, 0)))
    forest = compute_clusters(mat)
    assert forest_as_subsets(forest) == {
        (frozenset({1, 2, 3}), 1),
        (frozenset({1, 2}), 2),
    }
    assert forest_as_subsets(forest) == brute_force_clusters(mat)


def test_not_canonically_ordered():
    mat = IntersectionMatrix(3, ((0, 0, 2), (0, 0, 0), (2, 0, 0)))
    with pytest.raises(NotCanonicallyOrdered):
        compute_clusters(mat)


def test_singletons_never_appear(rng):
    for _ in range(30):
        forest = compute_clusters(random_ultrametric_matrix(rng, rng.randint(2, 6), 4))
        assert all(c.length >= 2 for c in forest.clusters)
    with pytest.raises(IntervalOutOfRange):
        Cluster(1, 1, 1)


def test_brute_force_equivalence(rng):
    """d <= 6, entries <= 4: runs-based enumeration equals the subset oracle."""
    for _ in range(120):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 6), 4)
        assert forest_as_subsets(compute_clusters(mat)) == brute_force_clusters(mat)


def test_depths_have_no_outward_gaps(rng):
    for _ in range(40):
        mat = random_ultrametric_matrix(rng, rng.randint(2, 6), 4)
        forest = compute_clusters(mat)
        present = {((c.start, c.length), c.depth) for c in forest.clusters}
        for c in forest.clusters:
            if c.depth >= 2:
                assert any(
                    other.depth == c.depth - 1 and other.contains_interval(c)
                    for other in forest.clusters
                ), f"cluster {c} has no container at depth {c.depth - 1}"
        # for a fixed interval the depths present are exactly 1..nu(I)
        # minus the depths at which a strict superset is still valid
        for interval in {(c.start, c.length) for c in forest.clusters}:
            start, length = interval
            members = range(start - 1, start + length - 1)
            e = entries(mat)
            nu = min(e[i][j] for i in members for j in members if i < j)
            expected = set()
            for n in range(1, nu + 1):
                superset_valid = any(
                    other != interval
                    and other[0] <= start
                    and start + length <= other[0] + other[1]
                    and (other, n) in present
                    for other in {(c.start, c.length) for c in forest.clusters}
                )
                if not superset_valid:
                    expected.add(n)
            got = {c.depth for c in forest.clusters if (c.start, c.length) == interval}
            assert got == expected


def test_nesting_tree_example():
    mat = IntersectionMatrix(3, ((0, 2, 1), (2, 0, 1), (1, 1, 0)))
    roots = nesting_tree(compute_clusters(mat))
    assert len(roots) == 1
    root = roots[0]
    assert root.cluster == Cluster(1, 3, 1)
    assert len(root.children) == 1
    assert root.children[0].cluster == Cluster(1, 2, 2)


def test_nesting_tree_chain():
    forest = ClusterForest(2, (Cluster(1, 2, 1), Cluster(1, 2, 2)))
    roots = nesting_tree(forest)
    assert len(roots) == 1
    assert roots[0].cluster.depth == 1
    assert roots[0].children[0].cluster.depth == 2
    assert roots[0].children[0].children == ()


def test_nesting_tree_empty():
    assert nesting_tree(ClusterForest(3, ())) == ()


def test_tree_text_deterministic():
    forest = ClusterForest(4, (Cluster(1, 2, 1), Cluster(3, 2, 1), Cluster(3, 2, 2)))
    text = tree_to_text(nesting_tree(forest))
    assert text == "({1..2}, 1)\n({3..4}, 1)\n  ({3..4}, 2)"


def test_nesting_tree_covers_forest_once(rng):
    for _ in range(30):
        forest = compute_clusters(random_ultrametric_matrix(rng, rng.randint(2, 6), 4))
        seen = []

        def walk(node, parent):
            seen.append(node.cluster)
            if parent is not None:
                assert parent.contains_interval(node.cluster)
                assert parent.depth <= node.cluster.depth
            for child in node.children:
                walk(child, node.cluster)

        for root in nesting_tree(forest):
            walk(root, None)
        assert sorted(seen, key=lambda c: (c.depth, c.start)) == list(forest.clusters)


@pytest.mark.parametrize(
    "clusters",
    (
        (Cluster(1, 3, 1), Cluster(2, 3, 2)),  # overlapping, neither inside the other
        (Cluster(1, 3, 1), Cluster(2, 3, 1)),  # the same, at one depth
        (Cluster(2, 2, 1), Cluster(1, 4, 2)),  # the deeper one outside
    ),
    ids=("overlap", "overlap_at_one_depth", "shallower_inside"),
)
def test_forest_refuses_clusters_that_are_not_nested(clusters):
    """Twists of clusters that overlap without nesting do not commute, so
    no forest holds them: the tree, its text, the presentation and delta
    never see such clusters."""
    with pytest.raises(IntervalOutOfRange, match="overlaps a cluster that does not contain it"):
        ClusterForest(4, clusters)
    for c in clusters:
        assert ClusterForest(4, (c,)).clusters == (c,)


def test_forest_refuses_a_cluster_inside_one_of_its_depth():
    for clusters in ((Cluster(1, 4, 1), Cluster(2, 2, 1)), (Cluster(1, 2, 3), Cluster(1, 2, 3))):
        with pytest.raises(IntervalOutOfRange, match="of the same depth"):
            ClusterForest(4, clusters)


# A hand-built forest on 7 strands, its parents and its innermost clusters.
HAND_BUILT = (
    ClusterForest(7, (
        Cluster(1, 7, 1), Cluster(1, 3, 2), Cluster(5, 3, 2), Cluster(1, 3, 3),
        Cluster(2, 2, 5), Cluster(6, 2, 4),
    )),
    (-1, 0, 0, 1, 2, 3),
    (3, 5, 5, 0, 2, 4, 4),
)


def test_forest_tables_by_hand():
    forest, parents, innermost = HAND_BUILT
    assert [(c.start, c.depth) for c in forest.clusters] == [(1, 1), (1, 2), (5, 2), (1, 3), (6, 4), (2, 5)]
    assert (forest.parents, forest.innermost) == (parents, innermost)


def test_forest_tables_match_a_brute_force_scan(rng):
    """``parents[k]`` is the deepest shallower cluster whose interval
    contains cluster k's, and comes before it; ``innermost[i]`` the
    deepest cluster holding strand i + 1; -1 where there is none."""
    forests = [HAND_BUILT[0]]
    for _ in range(20):
        forests += random_forests(rng, rng.randint(2, 12))
    for forest in forests:
        cs = forest.clusters

        def deepest(ks):
            return max(ks, key=lambda k: cs[k].depth, default=-1)

        for k, c in enumerate(cs):
            parent = deepest(j for j, o in enumerate(cs) if o.depth < c.depth and o.contains_interval(c))
            assert forest.parents[k] == parent < k, forest
        holding = [[k for k, c in enumerate(cs) if c.start <= i <= c.end] for i in range(1, forest.d + 1)]
        assert forest.innermost == tuple(map(deepest, holding)), forest


def test_forests_built_differently_are_the_same_value(rng):
    """The tables are derived, so forests from the same clusters in any
    order compare, hash, print, copy and pickle alike."""
    for forest in [HAND_BUILT[0]] + [f for _ in range(5) for f in random_forests(rng, rng.randint(2, 10))]:
        listed = list(forest.clusters)
        rng.shuffle(listed)
        again = ClusterForest(forest.d, tuple(listed))
        assert again == forest and hash(again) == hash(forest)
        assert repr(again) == repr(forest) == f"ClusterForest(d={forest.d}, clusters={forest.clusters!r})"
        for other in (again, copy.copy(forest), copy.deepcopy(forest), pickle.loads(pickle.dumps(forest))):
            assert other == forest
            assert (other.parents, other.innermost) == (forest.parents, forest.innermost)


def test_forest_sorted_deterministically(rng):
    for _ in range(20):
        forest = compute_clusters(random_ultrametric_matrix(rng, 6, 4))
        keys = [(c.depth, c.start) for c in forest.clusters]
        assert keys == sorted(keys)


# -- the one-sweep forms against the per-depth scan they replaced -----------

def scan_clusters(m: IntersectionMatrix) -> tuple[Cluster, ...]:
    """Maximal runs of steps >= n, one pass per depth n."""
    out = []
    e = entries(m)
    for n in range(1, max(m.steps) + 1):
        i = 0
        while i < m.d:
            j = i
            while j + 1 < m.d and e[j][j + 1] >= n:
                j += 1
            if j > i:
                out.append(Cluster(start=i + 1, length=j - i + 1, depth=n))
            i = j + 1
    return ClusterForest(m.d, tuple(out)).clusters


def scan_tree(forest: ClusterForest) -> tuple[TreeNode, ...]:
    """Each parent found by a scan of all clusters."""

    def parent_of(c):
        containers = [
            o for o in forest.clusters
            if o != c and o.contains_interval(c) and o.depth <= c.depth
        ]
        return max(containers, key=lambda o: (o.depth, -o.length)) if containers else None

    children = {c: [] for c in forest.clusters}
    roots = []
    for c in forest.clusters:
        p = parent_of(c)
        (roots if p is None else children[p]).append(c)

    def build(c):
        kids = sorted(children[c], key=lambda o: (o.start, o.depth))
        return TreeNode(c, tuple(build(k) for k in kids))

    return tuple(build(r) for r in sorted(roots, key=lambda o: (o.start, o.depth)))


def test_oracle_sweep_matches_per_depth_scan(rng):
    for _ in range(300):
        m = random_ultrametric_matrix(rng, rng.randint(2, 16), rng.randint(1, 6))
        forest = compute_clusters(m)
        assert forest.clusters == scan_clusters(m)
        assert nesting_tree(forest) == scan_tree(forest)


def test_cluster_cap_counted_before_enumeration():
    # Steps 0, 1, 0 (one cluster), then a pair at depth cap + 1: refused
    # before any of them is built; the cap itself is not run here.
    steps = {(0, 1): 1, (2, 3): MAX_CLUSTERS}
    e = [[0] * 4 for _ in range(4)]
    for (i, j), v in steps.items():
        e[i][j] = e[j][i] = v
    with pytest.raises(SizeLimit) as info:
        compute_clusters(IntersectionMatrix(4, tuple(map(tuple, e))))
    assert info.value.details == {"cap": MAX_CLUSTERS}
    with pytest.raises(SizeLimit):
        compute_clusters(IntersectionMatrix(2, ((0, 10**30), (10**30, 0))))


def test_deep_chain_has_no_recursion_limit():
    depth = 3000
    forest = compute_clusters(IntersectionMatrix(2, ((0, depth), (depth, 0))))
    assert len(forest.clusters) == depth
    text = tree_to_text(nesting_tree(forest))
    lines = text.split("\n")
    assert len(lines) == depth
    assert lines[-1] == "  " * (depth - 1) + f"({{1..2}}, {depth})"
