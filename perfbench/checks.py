"""Output checks that do not import the package under test.

Each checker takes a command's stdout and the facts its generator planted
(``Case.expect``) and raises ``CheckFailed`` when the output is wrong.
Byte-level agreement with the baseline is checked separately, against the
digests in ``goldens.json``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reduce(letters: list[int]) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _parse_word(text: str, symbol: str) -> list[int]:
    if text == "1":
        return []
    letters = []
    for token in text.split("*"):
        m = re.fullmatch(symbol + r"(\d+)(\^-1)?", token)
        _require(m is not None, f"bad word token {token!r}")
        letters.append(-int(m.group(1)) if m.group(2) else int(m.group(1)))
    return letters


def _strip(line: str, prefix: str) -> str:
    _require(line.startswith(prefix), f"expected a line starting {prefix!r}")
    return line[len(prefix):]


def _int_list(text: str) -> list[int]:
    m = re.fullmatch(r"\[(.*)\]", text)
    _require(m is not None, f"bad list {text!r}")
    return [int(x) for x in m.group(1).split(", ")] if m.group(1) else []


def check_present(out: str, expect: dict[str, Any]) -> None:
    """Every image is a conjugate of its x_i, and substituting the images
    into x1...xd reduces back to x1...xd (the twists fix the boundary)."""
    d = expect["d"]
    lines = out.split("\n")
    _require(len(lines) == d + 6 and lines[-1] == "", f"expected {d + 5} lines")
    _require(lines[0] == "# p = 2", "missing p header")
    labels = _strip(lines[1], "# points (reordered) = ").split(", ")
    _require(sorted(labels) == expect["labels"], "point labels are not the input points")
    sigma = _int_list(_strip(lines[2], "# sigma = "))
    _require(sorted(sigma) == list(range(1, d + 1)), "sigma is not a permutation")
    gens = ", ".join([f"x{i}" for i in range(1, d + 1)] + ["delta"])
    _require(lines[3] == f"< {gens} |", "bad generator line")
    product = "*".join(f"x{i}" for i in range(1, d + 1))
    _require(lines[4] == f"  {product} = 1,", "bad product relation")
    boundary: list[int] = []
    for i in range(1, d + 1):
        line = lines[4 + i]
        sep = " >" if i == d else ","
        _require(line.endswith(sep), f"relation {i} lacks {sep!r}")
        rel = line[2 : -len(sep)]
        if rel == f"[delta, x{i}] = 1":
            image = [i]
        else:
            lhs, _, rhs = rel.partition(" = ")
            _require(lhs == f"delta^-1*x{i}*delta", f"relation {i} has lhs {lhs!r}")
            image = _parse_word(rhs, "x")
            _require(_reduce(image) == image, f"image of x{i} is not reduced")
            k = 0
            while len(image) - 2 * k > 1 and image[k] == -image[-1 - k]:
                k += 1
            _require(image[k:len(image) - k] == [i], f"image of x{i} is not a conjugate of x{i}")
        boundary = _reduce(boundary + image)
    _require(boundary == list(range(1, d + 1)), "images do not fix x1...xd")


_CLUSTER = re.compile(r"( *)\(\{(\d+)\.\.(\d+)\}, (\d+)\)")


def check_clusters(out: str, expect: dict[str, Any]) -> None:
    """The clusters, mapped back through sigma, are the planted ones."""
    d = expect["d"]
    lines = out.rstrip("\n").split("\n")
    _require(lines[0] == f"d = {d}", "bad d line")
    sigma = _int_list(_strip(lines[1], "sigma = "))
    _require(sorted(sigma) == list(range(1, d + 1)), "sigma is not a permutation")
    found = []
    for line in lines[2:]:
        m = _CLUSTER.fullmatch(line)
        _require(m is not None, f"bad cluster line {line!r}")
        lo, hi, depth = int(m.group(2)), int(m.group(3)), int(m.group(4))
        _require(1 <= lo < hi <= d, f"bad interval in {line!r}")
        found.append([sorted(sigma[lo - 1 : hi]), depth])
    _require(sorted(found) == expect["clusters"], "clusters differ from the planted tree")


def check_orbits(out: str, expect: dict[str, Any]) -> None:
    """Every moduli degree divides the exponent of G/Z(G)."""
    doc = json.loads(out)
    for key in ("group", "order", "d", "p"):
        _require(doc[key] == expect[key], f"{key} is {doc[key]!r}, expected {expect[key]!r}")
    _require(doc["kind"] == "orbits" and doc["surjective_only"] is True, "bad header")
    classes = doc["classes"]
    _require(classes and doc["class_count"] == len(classes), "bad class count")
    exponent = doc["exponent_mod_center"]
    degrees = [c["degree"] for c in classes]
    _require(all(deg >= 1 and exponent % deg == 0 for deg in degrees), "a degree does not divide the exponent")
    _require(doc["max_degree"] == max(degrees) and doc["all_degrees_divide_exponent"] is True, "bad verdict")
    reps = [tuple(c["rep"]) for c in classes]
    _require(all(len(r) == expect["d"] and all(0 <= g < expect["order"] for g in r) for r in reps), "bad representative")
    _require(all(a < b for a, b in zip(reps, reps[1:])), "representatives not strictly sorted")


def check_topology(out: str, expect: dict[str, Any]) -> None:
    """All checks pass over the planted clusters and the tracked braid is
    pure and consistent with the cluster twists."""
    doc = json.loads(out)
    d, clusters = expect["d"], expect["clusters"]
    n = len(clusters)
    sep, bound, oracle = doc["separation"], doc["cluster_bound"], doc["oracle"]
    _require(sep["passed"] is True and bound["passed"] is True, "geometry check failed")
    _require(len(sep["checks"]) == d * (d - 1) // 2 + n * (n - 1) // 2 + n * d, "separation checks do not match the planted clusters")
    _require(len(bound["checks"]) == sum(length for _, length, _ in clusters), "cluster-bound checks do not match the planted clusters")
    _require(oracle["consistent"] is True, "tracked braid is inconsistent with the twists")
    perm = list(range(d))
    for x in _parse_word(oracle["braid"], "b"):
        k = abs(x) - 1
        _require(0 <= k < d - 1, "braid letter out of range")
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    _require(perm == list(range(d)), "tracked braid is not pure")


CHECKERS: dict[str, Callable[[str, dict[str, Any]], None]] = {
    "present-deep": check_present,
    "clusters-flat": check_clusters,
    "orbits": check_orbits,
    "verify-topology": check_topology,
}
