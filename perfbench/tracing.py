"""In-process tracing of the CLI's layers.

The traced run calls ``branchmono.cli.main`` in this process with the
same arguments the untraced run passes to a fresh process.  Spans are
recorded around the public functions each subcommand reaches, by
replacing them, for the duration of one command, in every module
namespace the command looks them up from.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Optional

Counter = Callable[["Tracer", tuple, Any, Optional[BaseException]], None]


class Tracer:
    """Spans as (command, span id, parent id, name, start, end) tuples,
    timed by this process's CPU clock."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, Optional[int], str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[tuple[int, str, float]] = []
        self._next = 0

    def enter(self, name: str) -> None:
        self._next += 1
        self._stack.append((self._next, name, time.process_time()))

    def exit(self) -> None:
        end = time.process_time()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((self.command, sid, parent, name, start, end))

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def total(self, name: str) -> float:
        return sum(end - start for _, _, _, n, start, end in self.spans if n == name)


def _count_clusters(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    if result is not None:
        t.count("clusters.count", len(result.clusters))


def _count_letters(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    if result is not None:
        t.count("monodromy.image_letters", sum(len(w.letters) for w in result.images))


def _count_bytes(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    if result is not None:
        t.count("monodromy.output_bytes", len(result.encode()))


def _count_tuples(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    table, _, d, lo, hi = args
    t.count("quotients.tuples", (hi - lo) * len(table) ** (d - 2))
    if result is not None:
        t.count("quotients.classes", len(result))


def _count_generating(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    if result is not None:
        t.count("quotients.generating_classes", len(result))


def _count_gensets(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    t.count("quotients.distinct_gensets", 1)


def _count_braid(t: Tracer, args: tuple, result: Any, exc: Optional[BaseException]) -> None:
    if result is not None:
        t.count("topocheck.braid_letters", len(result.letters))
    elif type(exc).__name__ == "UnresolvedCrossing":
        t.count("topocheck.unresolved", 1)


# (owner, attribute, span name or None for a counter only, counter).
# An owner is a module of the package, or "module:Class".  A function
# imported by name into several modules is hooked in each of them.
HOOKS: tuple[tuple[str, str, Optional[str], Optional[Counter]], ...] = (
    ("intersection:BranchInput", "from_json_dict", "intersection.parse", None),
    ("cli", "compute_matrix", "intersection.compute_matrix", None),
    ("topocheck", "compute_matrix", "intersection.compute_matrix", None),
    ("cli", "canonical_order", "intersection.canonical_order", None),
    ("cli", "compute_clusters", "clusters.compute_clusters", _count_clusters),
    ("topocheck", "compute_clusters", "clusters.compute_clusters", _count_clusters),
    ("cli", "nesting_tree", "clusters.nesting_tree", None),
    ("cli", "tree_to_text", "clusters.nesting_tree", None),
    ("monodromy", "monodromy_automorphism", "monodromy.automorphism", _count_letters),
    ("cli", "monodromy_automorphism", "monodromy.automorphism", _count_letters),
    ("topocheck", "monodromy_automorphism", "monodromy.automorphism", _count_letters),
    ("cli", "emit_presentation", "monodromy.emit", None),
    ("monodromy:Presentation", "text", "monodromy.text", _count_bytes),
    ("cli", "load_group", "quotients.load_group", None),
    ("cli", "moduli_report", "quotients.moduli_report", None),
    ("quotients", "enumerate_classes", "quotients.enumerate", _count_generating),
    ("quotients:FiniteGroup", "generates", "quotients.generation_filter", _count_gensets),
    ("quotients", "delta_on_class", "quotients.delta", None),
    ("_kernels", "product_one_classes_chunk", None, _count_tuples),
    ("topocheck:WitnessFamily", "from_json_dict", "topocheck.parse", None),
    ("cli", "verify_separation", "topocheck.separation", None),
    ("cli", "verify_cluster_bound", "topocheck.cluster_bound", None),
    ("topocheck", "track_braid", "topocheck.track", _count_braid),
    ("topocheck", "braid_action", "braid.action", None),
    ("topocheck", "is_inner_shift", "freegroup.is_inner_shift", None),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in HOOKS if span))
COUNTER_NAMES = (
    "clusters.count",
    "monodromy.image_letters",
    "monodromy.output_bytes",
    "quotients.tuples",
    "quotients.classes",
    "quotients.generating_classes",
    "quotients.distinct_gensets",
    "topocheck.braid_letters",
    "topocheck.unresolved",
)


def _wrap(fn: Callable, tracer: Tracer, span: Optional[str], counter: Optional[Counter]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if span:
            tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if counter:
                counter(tracer, args, None, exc)
            raise
        finally:
            if span:
                tracer.exit()
        if counter:
            counter(tracer, args, result, None)
        return result

    return traced


class Hooks:
    """Installs the spans of ``HOOKS`` and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self._tracer = tracer

    def __enter__(self) -> "Hooks":
        for owner_name, attr, span, counter in HOOKS:
            module_name, _, class_name = owner_name.partition(":")
            owner: Any = importlib.import_module(f"branchmono.{module_name}")
            if class_name:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                hooked: Any = classmethod(_wrap(raw.__func__, self._tracer, span, counter))
            else:
                hooked = _wrap(raw, self._tracer, span, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, hooked)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
