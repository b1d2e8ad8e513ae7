"""Kernels: the orderly walk over cover classes and the subgroup closure
it shares with ``FiniteGroup``.

These are the hot inner loops of ``orbits``, in plain Python on ints,
lists and tuples.  Groups are Cayley tables with element 0 the identity.
``quotients`` enumerates cover classes with ``product_one_classes_chunk``,
an orderly walk that emits them sorted and decides generation as it goes,
and ``FiniteGroup.closure`` is ``closure``.  The benchmark's tracer hooks
``product_one_classes_chunk`` by this module's name and unpacks its five
positional arguments, so both stay.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence


def closure(table: Sequence[Sequence[int]], gens: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by ``gens``: a breadth-first search from the
    identity that multiplies by the generators only, in O(|G|·|gens|).  In
    a finite group every inverse is a positive power, so positive words
    reach the whole subgroup."""
    gens = tuple(set(gens))
    seen = {0}
    queue = [0]
    for a in queue:  # the queue grows while it is read
        row = table[a]
        for b in gens:
            c = row[b]
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return frozenset(seen)


def product_one_classes_chunk(
    table: Sequence[Sequence[int]],
    inv: Sequence[int],
    d: int,
    first_lo: int,
    first_hi: int,
    *,
    conj: Sequence[Sequence[int]],
    generates: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> list[tuple[int, ...]]:
    """Canonical representatives of the product-one d-tuple classes whose
    canonical first coordinate lies in [first_lo, first_hi), in increasing
    lexicographic order; with ``generates``, only the classes whose
    elements generate the group.  Chunks over disjoint ranges are
    disjoint, and chunks over a partition of [0, |G|) together hold every
    class once.

    Orderly generation (McKay 1998): a depth-first walk over prefixes that
    are lexicographically least in their conjugation orbit.  With S the
    stabiliser of a canonical prefix (the elements commuting with all of
    it), the prefix extended by x is canonical iff x <= h^-1 x h for every
    h in S, and its stabiliser is {h in S : h^-1 x h = x}.  The last
    coordinate is forced to the inverse of the prefix product; S fixes
    that product, so it passes the same test.  Each class is reached once,
    and the accepted children are computed once per distinct stabiliser,
    so the walk costs O(d) per canonical prefix plus O(|G|·|S|) per
    distinct S.  Children are pushed largest first, so the least prefix
    is always walked next and the classes come out sorted.  ``conj[h][x]``
    is h^-1 x h, the group's conjugation table.

    Generation is decided along the walk.  Each prefix carries the
    subgroup H its elements generate, found once per (H, x) by
    ``closure``; the forced last coordinate lies in H_{d-1} = <H, x> for
    x the last free one, so a class generates iff ``generates`` accepts
    H's generators and x, asked once per distinct (H, x).
    """
    if d < 2 or first_lo >= first_hi:
        return []
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

    # Subgroups generated by prefixes, numbered as found: ``gens[s]`` is
    # the prefix elements that grew subgroup s, ``members[s]`` its elements.
    gens: list[tuple[int, ...]] = [()]
    members: list[frozenset[int]] = [frozenset((0,))]
    number = {members[0]: 0}
    grown: dict[tuple[int, int], int] = {}
    verdict: dict[tuple[int, int], bool] = {}
    last: dict[tuple[tuple[int, ...], int], list[int]] = {}

    def grow(s: int, x: int) -> int:
        """The number of <subgroup s, x>."""
        if (s, x) not in grown:
            if x in members[s]:
                grown[s, x] = s
            else:
                new = gens[s] + (x,)
                key = closure(table, new)
                if key not in number:
                    number[key] = len(gens)
                    gens.append(new)
                    members.append(key)
                grown[s, x] = number[key]
        return grown[s, x]

    def finals(options: list[tuple[int, tuple[int, ...]]], stab: tuple[int, ...], s: int) -> list[int]:
        """The last free coordinates x among options whose class generates."""
        if (stab, s) not in last:
            xs = [x for x, _ in options]
            if generates is not None:
                for x in xs:
                    if (s, x) not in verdict:
                        verdict[s, x] = generates(gens[s] + (x,))
                xs = [x for x in xs if verdict[s, x]]
            last[stab, s] = xs
        return last[stab, s]

    classes: list[tuple[int, ...]] = []
    free = d - 1
    stack: list[tuple[tuple[int, ...], int, tuple[int, ...], int]] = [((), 0, elements, 0)]
    while stack:
        prefix, acc, stab, s = stack.pop()
        options = children(stab)
        if not prefix:
            options = [(x, sub) for x, sub in options if first_lo <= x < first_hi]
        row = table[acc]
        if len(prefix) == free - 1:
            classes.extend([prefix + (x, inv[row[x]]) for x in finals(options, stab, s)])
        elif generates is None:
            stack.extend([(prefix + (x,), row[x], sub, 0) for x, sub in reversed(options)])
        else:
            stack.extend([(prefix + (x,), row[x], sub, grow(s, x)) for x, sub in reversed(options)])
    return classes
