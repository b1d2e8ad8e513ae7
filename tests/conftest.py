"""Shared test helpers: seeded generators for ultrametric matrices and
cluster forests, independent brute-force oracles used to freeze
expected values, and the witness families of perfbench's
verify-topology pool and of tests/data."""

from __future__ import annotations

import glob
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from branchmono.clusters import Cluster, ClusterForest, compute_clusters
from branchmono.intersection import IntersectionMatrix
from branchmono.topocheck import WitnessFamily
from oracles import entries

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses looks its module up by name
_spec.loader.exec_module(workloads)

POOL = [
    WitnessFamily.from_json_dict(json.loads(workloads.family_case(i).files["family"]))
    for i in range(workloads.FAMILY_POOL)
]
DATA_FAMILIES = {
    Path(path).stem: WitnessFamily.from_json_dict(json.loads(Path(path).read_text()))
    for path in sorted(glob.glob(str(ROOT / "tests" / "data" / "family_*.json")))
}


def random_ultrametric_entries(
    rng: random.Random, d: int, max_depth: int
) -> list[list[int]]:
    """Random ultrametric matrix already in canonical (interval) order.

    Built from a random nested partition into consecutive blocks: pairs
    split apart at level n receive entry n-1.
    """
    e = [[0] * d for _ in range(d)]

    def build(block: list[int], n: int) -> None:
        if len(block) == 1:
            return
        if n > max_depth:
            parts = [[i] for i in block]
        else:
            k = rng.randint(1, len(block))
            cuts = sorted(rng.sample(range(1, len(block)), k - 1))
            parts = [block[a:b] for a, b in zip([0] + cuts, cuts + [len(block)])]
        for ai in range(len(parts)):
            for bi in range(ai + 1, len(parts)):
                for i in parts[ai]:
                    for j in parts[bi]:
                        e[i][j] = e[j][i] = n - 1
        for part in parts:
            build(part, n + 1)

    build(list(range(d)), 1)
    return e


def random_ultrametric_matrix(
    rng: random.Random, d: int, max_depth: int
) -> IntersectionMatrix:
    return IntersectionMatrix(d, tuple(tuple(r) for r in random_ultrametric_entries(rng, d, max_depth)))


def chain(rng, d: int, depth: int) -> ClusterForest:
    """Clusters nested to ``depth``, each a random interval of the one
    before (an interval may repeat one depth down)."""
    clusters, lo, hi = [], 1, d
    for n in range(1, depth + 1):
        lo = rng.randint(lo, hi - 1)
        hi = rng.randint(lo + 1, hi)
        clusters.append(Cluster(lo, hi - lo + 1, n))
    return ClusterForest(d, tuple(clusters))


def random_forests(rng, d: int) -> list:
    """The empty forest, a chain to depth 5 or more, and the cluster
    forests of random ultrametric matrices, which have sibling clusters
    and chains of their own."""
    forests = [ClusterForest(d, ()), chain(rng, d, rng.randint(5, 7))]
    for depth in (1, 2, 3, 6):
        forests.append(compute_clusters(random_ultrametric_matrix(rng, d, depth)))
    return forests


def shuffled(m: IntersectionMatrix, rng: random.Random) -> IntersectionMatrix:
    perm = list(range(m.d))
    rng.shuffle(perm)
    e = entries(m)
    return IntersectionMatrix(
        m.d,
        tuple(tuple(e[perm[i]][perm[j]] for j in range(m.d)) for i in range(m.d)),
    )


def brute_force_clusters(m: IntersectionMatrix) -> set[tuple[frozenset[int], int]]:
    """Independent oracle: enumerate every subset and depth, keep maximal
    ones (1-based indices, |I| >= 2)."""
    import itertools

    found = set()
    indices = range(1, m.d + 1)
    e = entries(m)
    for n in range(1, max(m.steps) + 1):
        for size in range(2, m.d + 1):
            for sub in itertools.combinations(indices, size):
                if any(e[i - 1][j - 1] < n for i, j in itertools.combinations(sub, 2)):
                    continue
                maximal = True
                for extra in indices:
                    if extra in sub:
                        continue
                    if all(e[extra - 1][i - 1] >= n for i in sub):
                        maximal = False
                        break
                if maximal:
                    found.add((frozenset(sub), n))
    return found


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
