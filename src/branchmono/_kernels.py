"""Kernels: free-word reduction and Cayley-table tuple operations.

These are the hot inner loops of the package, in plain Python on ints,
lists and tuples.  Words are sequences of signed generator indices (+i
the i-th generator, -i its inverse); groups are Cayley tables with
element 0 the identity.

``FreeWord``'s constructor reduces every word here, and ``quotients``
enumerates cover classes with ``product_one_classes_chunk``.  The direct
definitions that ``quotients``' precomputed lookups are tested against
live with the tests' other oracles.
"""

from __future__ import annotations

from typing import Sequence

BACKEND = "pure"


def reduce_word(letters: Sequence[int]) -> list[int]:
    """Freely reduce a word given as signed generator indices.

    A letter +i is the i-th generator, -i its inverse; adjacent cancelling
    pairs are removed until none remain.
    """
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def product_one_classes_chunk(
    table: Sequence[Sequence[int]],
    inv: Sequence[int],
    d: int,
    first_lo: int,
    first_hi: int,
    *,
    conj: Sequence[Sequence[int]],
) -> set[tuple[int, ...]]:
    """Canonical representatives of the product-one d-tuple classes whose
    canonical first coordinate lies in [first_lo, first_hi).  Chunks over
    disjoint ranges are disjoint, and chunks over a partition of [0, |G|)
    together hold every class once.

    Orderly generation (McKay 1998): a depth-first walk over prefixes that
    are lexicographically least in their conjugation orbit.  With S the
    stabiliser of a canonical prefix (the elements commuting with all of
    it), the prefix extended by x is canonical iff x <= h^-1 x h for every
    h in S, and its stabiliser is {h in S : h^-1 x h = x}.  The last
    coordinate is forced to the inverse of the prefix product; S fixes
    that product, so it passes the same test.  Each class is reached once,
    and the accepted children are computed once per distinct stabiliser,
    so the walk costs O(d) per canonical prefix plus O(|G|·|S|) per
    distinct S.  ``conj[h][x]`` is h^-1 x h, the group's conjugation
    table.
    """
    if d < 2 or first_lo >= first_hi:
        return set()
    elements = tuple(range(len(inv)))
    accepted: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}

    def children(stab: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """(x, stabiliser of x in stab) for each x least in its stab-orbit."""
        if stab not in accepted:
            rows = [conj[h] for h in stab]
            accepted[stab] = [
                (x, tuple(h for h, row in zip(stab, rows) if row[x] == x))
                for x in elements
                if all(row[x] >= x for row in rows)
            ]
        return accepted[stab]

    classes: set[tuple[int, ...]] = set()
    free = d - 1
    stack: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = [((), 0, elements)]
    while stack:
        prefix, acc, stab = stack.pop()
        options = children(stab)
        if not prefix:
            options = [(x, sub) for x, sub in options if first_lo <= x < first_hi]
        row = table[acc]
        if len(prefix) == free - 1:
            classes.update(prefix + (x, inv[row[x]]) for x, _ in options)
        else:
            stack.extend((prefix + (x,), row[x], sub) for x, sub in options)
    return classes
