"""The cluster set of an intersection matrix and its nesting structure.

A cluster is a pair (I, n): a maximal index set whose points pairwise
intersect to depth at least n.  The matrix must be in canonical order
(Hypothesis: rows weakly decreasing right of the diagonal), which makes
every cluster a contiguous interval; maximal depth-n clusters are then
exactly the maximal runs of consecutive indices with e[i][i+1] >= n.
Singletons are excluded: their twists act trivially.  ``ClusterForest``
finds each cluster's parent and each strand's innermost cluster once;
the tree here, the monodromy images and ``quotients``' delta read them.
"""

from __future__ import annotations

from typing import Any

from ._value import Value
from .errors import IntervalOutOfRange, NotCanonicallyOrdered, SizeLimit
from .intersection import IntersectionMatrix, satisfies_interval_hypothesis


class Cluster(Value):
    """Interval {start, ..., start+length-1} at nesting depth >= 1."""

    __slots__ = ("start", "length", "depth")

    def __init__(self, start: int, length: int, depth: int):
        if start < 1 or length < 2 or depth < 1:
            raise IntervalOutOfRange(f"bad cluster (start={start}, length={length}, depth={depth})")
        super().__init__(start, length, depth)

    @property
    def end(self) -> int:
        """Last index of the interval (inclusive)."""
        return self.start + self.length - 1

    def indices(self) -> range:
        return range(self.start, self.end + 1)

    def contains_interval(self, other: "Cluster") -> bool:
        return self.start <= other.start and other.end <= self.end

    def __str__(self) -> str:
        return f"({{{self.start}..{self.end}}}, {self.depth})"


class ClusterForest(Value):
    """Clusters on d strands, sorted by (depth, start), that are nested or
    disjoint, the inner one deeper: the forest ``compute_clusters`` builds.

    The constructor checks this in O(sum of lengths) and keeps the tree
    it finds.  In depth order, the last cluster seen at a cluster's
    strands is the deepest earlier one holding them, its parent; so it
    must be one cluster, shallower than this one.  Anything else is
    IntervalOutOfRange: overlapping clusters would twist without
    commuting, and a cluster inside one of its own depth is a repeat or
    not maximal.  Equality, hashing and the repr skip the two tables:

    - ``parents[k]``, the index in ``clusters`` of cluster k's parent (the
      deepest shallower cluster containing its interval), always below k,
      or -1 for a root;
    - ``innermost[i]``, the deepest cluster holding strand i + 1, or -1.
    """

    __slots__ = ("d", "clusters", "parents", "innermost")
    _fields = ("d", "clusters")

    def __init__(self, d: int, clusters: tuple[Cluster, ...]):
        for c in clusters:
            if c.end > d:
                raise IntervalOutOfRange(f"cluster {c} exceeds d = {d}")
        clusters = tuple(sorted(clusters, key=lambda c: (c.depth, c.start)))
        last = [-1] * d
        parents = []
        for k, c in enumerate(clusters):
            lo, n = c.start - 1, c.length
            parent = last[lo]
            if last[lo : lo + n].count(parent) != n:
                raise IntervalOutOfRange(f"cluster {c} overlaps a cluster that does not contain it")
            if parent >= 0 and clusters[parent].depth == c.depth:
                raise IntervalOutOfRange(f"cluster {c} lies in {clusters[parent]}, of the same depth")
            parents.append(parent)
            last[lo : lo + n] = [k] * n
        super().__init__(d, clusters, tuple(parents), tuple(last))

    def to_json_list(self) -> list[dict[str, Any]]:
        return [
            {"interval": [c.start, c.length], "depth": c.depth} for c in self.clusters
        ]


# Most clusters a matrix may have.  The text tree indents each cluster by
# its nesting level, so a chain of c nested clusters prints O(c^2) bytes:
# at the cap (two points at depth 10^4) `clusters` prints 100 MB in about
# 0.7 s, and `present` 0.36 MB in 0.4 s.  2-adic points 0..d-1 have d - 1
# clusters.
MAX_CLUSTERS = 10_000


def compute_clusters(m: IntersectionMatrix) -> ClusterForest:
    """All pairs (I, n) with |I| >= 2, pairwise e >= n and I maximal.

    Requires canonical order; raises NotCanonicallyOrdered otherwise
    (equivalently, some maximal subset would not be an interval).  A
    depth-n cluster is a maximal run of consecutive steps e[k][k+1] >= n;
    one sweep with a stack of open runs emits each when the run ends, in
    O(d + clusters).  There are sum of max(0, step_k - step_(k-1)) of
    them, counted first: past MAX_CLUSTERS is SizeLimit.
    """
    if not satisfies_interval_hypothesis(m):
        raise NotCanonicallyOrdered(
            "matrix is not in canonical order; apply canonical_order first"
        )
    steps = list(m.steps)
    count = sum(max(0, b - a) for a, b in zip([0] + steps, steps))
    if count > MAX_CLUSTERS:
        raise SizeLimit(
            f"the matrix has {count} clusters, past the cap of {MAX_CLUSTERS}", cap=MAX_CLUSTERS
        )
    clusters: list[Cluster] = []
    # Open runs as (first step, depth), depths strictly increasing.
    stack: list[tuple[int, int]] = []
    for k, step in enumerate(steps + [0]):
        first = k
        while stack and stack[-1][1] > step:
            first, depth = stack.pop()
            floor = max(step, stack[-1][1] if stack else 0)
            # Steps first..k-1 join points first+1..k+1 (1-based).
            clusters.extend(
                Cluster(start=first + 1, length=k - first + 1, depth=n)
                for n in range(floor + 1, depth + 1)
            )
        if step > (stack[-1][1] if stack else 0):
            stack.append((first, step))
    return ClusterForest(m.d, tuple(clusters))


class TreeNode(Value):
    """A cluster and the TreeNodes of the clusters directly inside it."""

    __slots__ = ("cluster", "children")


def nesting_tree(forest: ClusterForest) -> tuple[TreeNode, ...]:
    """Roots of the containment tree, read off ``forest.parents`` from
    the last cluster back, so each node after its children.  Siblings
    keep the forest's (depth, start) order: start order in a forest from
    ``compute_clusters``, whose siblings share a depth."""
    kids: list[list[TreeNode]] = [[] for _ in range(len(forest.clusters) + 1)]  # kids[-1]: the roots
    for k in reversed(range(len(forest.clusters))):
        kids[forest.parents[k]].append(TreeNode(forest.clusters[k], tuple(reversed(kids[k]))))
    return tuple(reversed(kids[-1]))


def tree_to_text(roots: tuple[TreeNode, ...]) -> str:
    lines: list[str] = []
    todo = [(r, 0) for r in reversed(roots)]
    while todo:  # preorder, without recursion: chains are as long as the depth
        node, indent = todo.pop()
        lines.append("  " * indent + str(node.cluster))
        todo.extend((child, indent + 1) for child in reversed(node.children))
    return "\n".join(lines)
