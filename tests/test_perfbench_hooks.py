"""perfbench's layer hooks against the package: every span it names and
every function it hooks is reached by one small command per subcommand,
and a witness family builds its cluster forest once per command."""

import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

from branchmono import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

COMMANDS = (
    ("clusters", "--input", str(DATA / "example2_p5_m2.json")),
    ("present", "--input", str(DATA / "example2_p5_m2.json")),
    ("orbits", "--group", "s3", "--input", str(DATA / "example2_p5_m2.json")),
    ("verify-topology", "--family", str(DATA / "family_3pt.json")),
)


def traced_spans() -> list[tuple[str, str]]:
    """(subcommand, span name) of every span the commands record, each
    command run once under ``tracing.Hooks``."""
    tracer = tracing.Tracer()
    for number, argv in enumerate(COMMANDS):
        tracer.command = number
        out, err = io.StringIO(), io.StringIO()
        with tracing.Hooks(tracer), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(list(argv)) == 0, err.getvalue()
    return [(COMMANDS[command][0], name) for command, _, _, name, _, _ in tracer.spans]


def test_every_span_fires():
    fired = {name for _, name in traced_spans()}
    assert set(tracing.SPAN_NAMES) <= fired


def test_every_hooked_owner_fires(monkeypatch):
    # One span per hook entry, named after its owner and attribute, so
    # that entries sharing a span name (or counting only) are told apart.
    keyed = tuple((owner, attr, f"{owner}.{attr}", None) for owner, attr, _, _ in tracing.HOOKS)
    monkeypatch.setattr(tracing, "HOOKS", keyed)
    calls = Counter(traced_spans())
    fired = {name for _, name in calls}
    assert {span for _, _, span, _ in keyed} <= fired
    assert calls["verify-topology", "topocheck.compute_clusters"] == 1
    assert calls["verify-topology", "topocheck.compute_matrix"] == 1
