"""Monodromy automorphism of a cluster forest, and the resulting
generators-and-relations presentation.

A cluster I = {m..m+l-1} twists x_i -> P_I x_i P_I^-1 for i in I, where
P_I = x_m...x_{m+l-1}.  The twists of a forest commute and nest, so their
product is x_i -> W_i x_i W_i^-1, W_i = P_C1...P_Ck over the clusters
containing i, shallowest first.  Each P_C and P_C^-1 is built once per
cluster, and each image is one ``FreeWord.product`` of them along the
chain of clusters containing i, which the forest's parent table gives
from i's innermost cluster outward, so letters are copied in blocks and
cancel only where x_i meets P_Ck^-1.  The emitter performs free reduction
only and never simplifies across relations, so output is stable for
goldens; each output names its letters through one table.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ._value import Value
from .clusters import ClusterForest
from .freegroup import FreeAutomorphism, FreeWord, format_letters, letter_names


def monodromy_automorphism(forest: ClusterForest) -> FreeAutomorphism:
    """Product of the forest's twists in closed form; empty forest:
    identity.  Each strand walks its chain up ``forest.parents`` from its
    entry in ``forest.innermost``: a chain kept per cluster would hold
    c^2/2 words for c nested clusters."""
    words = [FreeWord(c.indices()) for c in forest.clusters]
    inverses = [w.inv() for w in words]
    images = []
    for i, k in enumerate(forest.innermost, 1):
        chain = []  # innermost first
        while k >= 0:
            chain.append(k)
            k = forest.parents[k]
        left = [words[k] for k in reversed(chain)]
        images.append(FreeWord.product(*left, FreeWord.generator(i), *[inverses[k] for k in chain]))
    return FreeAutomorphism(forest.d, tuple(images))


class Presentation(Value):
    """Generators x_1..x_d and delta with the product relation and the
    delta-conjugation relations, read off the FreeWord ``images`` of x_i;
    ``point_labels`` are the input points in canonical order ``sigma``."""

    __slots__ = ("d", "images", "p", "point_labels", "sigma")
    _defaults = {"p": 0, "point_labels": (), "sigma": ()}

    def generators(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.d + 1)] + ["delta"]

    def product_word(self) -> str:
        return "*".join(f"x{i}" for i in range(1, self.d + 1))

    def _image_words(self, inverse: bool = False) -> list[str]:
        """The images, or their inverses, as ``str(FreeWord)`` writes them,
        through one table of letter names built here for all of them."""
        names = letter_names([*range(-self.d, 0), *range(1, self.d + 1)])
        if inverse:
            names = {x: names[-x] for x in names}
            return [format_letters(w.letters[::-1], names=names) for w in self.images]
        return [format_letters(w.letters, names=names) for w in self.images]

    def relation_pairs(self) -> list[tuple[str, str]]:
        """Machine form: every relation as (lhs word, rhs word)."""
        rels = [(self.product_word(), "1")]
        for i, w in enumerate(self._image_words(), start=1):
            rels.append((f"delta^-1*x{i}*delta", w))
        return rels

    def relation_displays(self) -> list[str]:
        """Paper-style display: commutators for fixed generators."""
        out = [f"{self.product_word()} = 1"]
        for i, w in enumerate(self._image_words(), start=1):
            if w == f"x{i}":
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
        for i, inv in enumerate(self._image_words(inverse=True), start=1):
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
