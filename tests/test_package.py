"""The package surface: lazy public names, the modules each subcommand
imports, and the CLI names that callers may replace."""

import contextlib
import copy
import io
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import branchmono
from branchmono import cli

DATA = Path(__file__).parent / "data"

# Layers a subcommand must not load: `clusters` stops at the cluster
# layer, and `present` adds only the monodromy and the free group.
LATER_LAYERS = ("monodromy", "freegroup", "_kernels", "quotients", "topocheck", "braid")
NOT_FOR_PRESENT = ("quotients", "topocheck", "braid")


def test_every_public_name_resolves():
    for name in branchmono.__all__:
        assert getattr(branchmono, name) is not None, name
    assert branchmono.kernel_backend == "pure"
    assert branchmono.__version__ == "0.1.0"
    assert set(branchmono.__all__) <= set(dir(branchmono))


def test_star_import():
    namespace: dict = {}
    exec("from branchmono import *", namespace)
    assert set(branchmono.__all__) <= set(namespace)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError):
        branchmono.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


def _loaded_modules(*argv):
    """Every module a fresh process has imported after running the CLI
    with ``argv``."""
    script = (
        "import sys\n"
        "from branchmono.cli import main\n"
        "try:\n"
        f"    main({list(argv)!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(sys.modules), file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    return set(eval(out.stderr.strip().splitlines()[-1]))


def _imported_modules(*argv):
    """The package modules among ``_loaded_modules(*argv)``."""
    return {m for m in _loaded_modules(*argv) if m.startswith("branchmono")}


HYGIENE = [
    ["--version"],
    ["clusters", "--input", str(DATA / "example2_p3_m1.json")],
    ["present", "--input", str(DATA / "example2_p3_m1.json")],
    ["orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"), "--p", "5"],
    ["verify-topology", "--family", str(DATA / "family_3pt.json")],
]


@pytest.mark.parametrize("argv", HYGIENE, ids=[a[0] for a in HYGIENE])
def test_commands_import_no_dataclasses_or_inspect(argv):
    """Each command's fresh process stays clear of ``dataclasses`` and the
    ``inspect`` it pulls in, about 12 ms of start-up."""
    loaded = _loaded_modules(*argv)
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_clusters_imports_no_later_layer():
    loaded = _imported_modules("clusters", "--input", str(DATA / "example1.json"))
    assert {"branchmono.cli", "branchmono.intersection", "branchmono.clusters"} <= loaded
    for layer in LATER_LAYERS:
        assert f"branchmono.{layer}" not in loaded, layer


def test_version_imports_no_more_than_clusters():
    loaded = _imported_modules("--version")
    assert loaded <= _imported_modules("clusters", "--input", str(DATA / "example1.json"))


def test_present_imports_only_the_monodromy_layers():
    loaded = _imported_modules("present", "--input", str(DATA / "example1.json"))
    assert {"branchmono.monodromy", "branchmono.freegroup", "branchmono._kernels"} <= loaded
    for layer in NOT_FOR_PRESENT:
        assert f"branchmono.{layer}" not in loaded, layer


# Each name the benchmark's tracer replaces on ``cli``, with a command
# that must call the replacement.
PATCHABLE = [
    ("compute_matrix", ["clusters", "--input", str(DATA / "example1.json")]),
    ("canonical_order", ["clusters", "--input", str(DATA / "example1.json")]),
    ("compute_clusters", ["clusters", "--input", str(DATA / "example1.json")]),
    ("nesting_tree", ["clusters", "--input", str(DATA / "example2_p3_m1.json")]),
    ("tree_to_text", ["clusters", "--input", str(DATA / "example2_p3_m1.json")]),
    ("emit_presentation", ["present", "--input", str(DATA / "example1.json")]),
    ("monodromy_automorphism", ["orbits", "--group", "s3", "--input", str(DATA / "example1.json")]),
    ("load_group", ["orbits", "--group", "s3", "--input", str(DATA / "example1.json")]),
    ("moduli_report", ["orbits", "--group", "s3", "--input", str(DATA / "example1.json")]),
    ("verify_separation", ["verify-topology", "--family", str(DATA / "family_3pt.json")]),
    ("verify_cluster_bound", ["verify-topology", "--family", str(DATA / "family_3pt.json")]),
]


@pytest.mark.parametrize("name, argv", PATCHABLE, ids=[n for n, _ in PATCHABLE])
def test_cli_names_are_patchable(name, argv, monkeypatch):
    original = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert calls, f"cli.{name} was resolved but the command did not call it"


def test_max_tuples_default_is_the_library_cap(monkeypatch):
    from branchmono.quotients import DEFAULT_TUPLE_CAP

    seen = {}
    original = cli.moduli_report

    def spy(*args, **kwargs):
        seen["cap"] = kwargs["cap"]
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "moduli_report", spy)
    argv = ["orbits", "--group", "s3", "--input", str(DATA / "example1.json"), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    json.loads(out.getvalue())
    assert seen["cap"] == DEFAULT_TUPLE_CAP
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--max-tuples", "12345678"]) == 0
    assert seen["cap"] == 12345678


def _value_cases():
    from fractions import Fraction as F

    from branchmono.braid import BraidWord
    from branchmono.clusters import Cluster
    from branchmono.freegroup import FreeWord
    from branchmono.intersection import IntersectionMatrix
    from branchmono.quotients import FiniteGroup, cyclic_group
    from branchmono.topocheck import RationalComplex

    c2 = ((0, 1), (1, 0))
    # (value, an equal one built another way, an unequal one, repr, a field)
    return {
        "FreeWord": (FreeWord((1, 2, -2, 3)), FreeWord([1, 3]), FreeWord((3, 1)), "FreeWord('x1*x3')", "letters"),
        "BraidWord": (
            BraidWord(3, (1, -2)),
            BraidWord.parse("b1*b2^-1", 3),
            BraidWord(4, (1, -2)),
            "BraidWord(3, 'b1*b2^-1')",
            "letters",
        ),
        "Cluster": (
            Cluster(2, 3, 1),
            Cluster(start=2, length=3, depth=1),
            Cluster(2, 3, 2),
            "Cluster(start=2, length=3, depth=1)",
            "depth",
        ),
        "IntersectionMatrix": (
            IntersectionMatrix(3, ((0, 2, 1), (2, 0, 1), (1, 1, 0))),
            IntersectionMatrix.from_tree((1, 2, 3), (2, 1)),
            IntersectionMatrix.from_tree((1, 2, 3), (1, 1)),
            "IntersectionMatrix(d=3, order=(1, 2, 3), steps=(2, 1))",
            "steps",
        ),
        "RationalComplex": (
            RationalComplex(F(1, 2)),
            RationalComplex(re=F(2, 4), im=F(0)),
            RationalComplex(F(1, 2), F(1)),
            "RationalComplex(re=Fraction(1, 2), im=Fraction(0, 1))",
            "re",
        ),
        "FiniteGroup": (
            cyclic_group(2),
            FiniteGroup("C2", c2),
            FiniteGroup("Z2", c2),
            "FiniteGroup(name='C2', table=((0, 1), (1, 0)), inverse=(0, 1))",
            "table",
        ),
    }


@pytest.mark.parametrize("name", ["FreeWord", "BraidWord", "Cluster", "IntersectionMatrix", "RationalComplex", "FiniteGroup"])
def test_value_semantics(name):
    """Equality and hashing on the fields, an exact repr, and no assignment
    or deletion after construction."""
    value, equal, unequal, text, field = _value_cases()[name]
    assert value == equal and hash(value) == hash(equal)
    assert value != unequal and not value == unequal
    assert value != (value, text) and value != getattr(value, field)
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(unequal, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == equal
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and repr(twin) == text
