"""Monodromy automorphism of a cluster forest, and the resulting
generators-and-relations presentation.

A cluster I = {m..m+l-1} twists x_i -> P_I x_i P_I^-1 for i in I, where
P_I = x_m...x_{m+l-1}.  The twists of a forest commute and nest, so their
product is x_i -> W_i x_i W_i^-1, W_i = P_C1...P_Ck over the clusters
containing i, shallowest first.  The emitter performs free reduction only
and never simplifies across relations, so output is stable for goldens.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ._value import Value, _set
from .clusters import ClusterForest
from .freegroup import FreeAutomorphism, FreeWord


def monodromy_automorphism(forest: ClusterForest) -> FreeAutomorphism:
    """Product of the forest's twists in closed form, W_i built shallowest
    first (``forest.clusters`` is sorted by depth); empty forest: identity."""
    conj: list[list[int]] = [[] for _ in range(forest.d)]
    for c in forest.clusters:
        for i in c.indices():
            conj[i - 1].extend(c.indices())
    images = (FreeWord((*w, i, *(-x for x in reversed(w)))) for i, w in enumerate(conj, 1))
    return FreeAutomorphism(forest.d, tuple(images))


class Presentation(Value):
    """Generators x_1..x_d and delta with the product relation and the
    delta-conjugation relations."""

    __slots__ = ("d", "images", "p", "point_labels", "sigma")

    def __init__(
        self,
        d: int,
        images: tuple[FreeWord, ...],
        p: int = 0,
        point_labels: tuple[str, ...] = (),
        sigma: tuple[int, ...] = (),
    ):
        _set(self, "d", d)
        _set(self, "images", images)
        _set(self, "p", p)
        _set(self, "point_labels", point_labels)
        _set(self, "sigma", sigma)

    def generators(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.d + 1)] + ["delta"]

    def product_word(self) -> str:
        return "*".join(f"x{i}" for i in range(1, self.d + 1))

    def relation_pairs(self) -> list[tuple[str, str]]:
        """Machine form: every relation as (lhs word, rhs word)."""
        rels = [(self.product_word(), "1")]
        for i, w in enumerate(self.images, start=1):
            rels.append((f"delta^-1*x{i}*delta", str(w)))
        return rels

    def relation_displays(self) -> list[str]:
        """Paper-style display: commutators for fixed generators."""
        out = [f"{self.product_word()} = 1"]
        for i, w in enumerate(self.images, start=1):
            if w.letters == (i,):
                out.append(f"[delta, x{i}] = 1")
            else:
                out.append(f"delta^-1*x{i}*delta = {w}")
        return out

    def text(self) -> str:
        lines = []
        if self.p:
            lines.append(f"# p = {self.p}")
        if self.point_labels:
            lines.append("# points (reordered) = " + ", ".join(self.point_labels))
        if self.sigma:
            lines.append("# sigma = [" + ", ".join(str(s) for s in self.sigma) + "]")
        body = self.relation_displays()
        lines.append("< " + ", ".join(self.generators()) + " |")
        for k, rel in enumerate(body):
            sep = "," if k + 1 < len(body) else " >"
            lines.append(f"  {rel}{sep}")
        return "\n".join(lines) + "\n"

    def relator_lines(self) -> list[str]:
        """Flat relator list: every relation as a word equal to 1."""
        out = [self.product_word()]
        for i, w in enumerate(self.images, start=1):
            inv = str(w.inv()) if w.letters else "1"
            if inv == "1":
                out.append(f"delta^-1*x{i}*delta")
            else:
                out.append(f"delta^-1*x{i}*delta*{inv}")
        return out

    def relators_text(self) -> str:
        lines = ["generators: " + ", ".join(self.generators())]
        lines.extend(self.relator_lines())
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": "branchmono/1",
            "kind": "presentation",
            "d": self.d,
            "p": self.p,
            "points": list(self.point_labels),
            "sigma": list(self.sigma),
            "generators": self.generators(),
            "relations": [
                {"lhs": lhs, "rhs": rhs} for lhs, rhs in self.relation_pairs()
            ],
        }


def emit_presentation(
    forest: ClusterForest,
    p: int = 0,
    point_labels: Optional[Sequence[str]] = None,
    sigma: Optional[Sequence[int]] = None,
) -> Presentation:
    aut = monodromy_automorphism(forest)
    return Presentation(
        d=forest.d,
        images=aut.images,
        p=p,
        point_labels=tuple(point_labels or ()),
        sigma=tuple(sigma or ()),
    )
