"""The package surface: lazy public names, the modules each subcommand
imports, and the CLI names that callers may replace."""

import contextlib
import copy
import functools
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
NOT_FOR_PRESENT = ("_kernels", "quotients", "topocheck", "braid")


def test_every_public_name_resolves():
    for name in branchmono.__all__:
        assert getattr(branchmono, name) is not None, name
    assert branchmono.kernel_backend == "pure"
    assert branchmono.__version__ == "0.1.0"
    assert set(branchmono.__all__) <= set(dir(branchmono))


def test_public_names():
    """The exported names, written out, so that a change to them is a
    visible edit here."""
    assert branchmono.__all__ == [
        "BraidWord", "BranchInput", "Cluster", "ClusterForest", "FiniteGroup", "FreeAutomorphism",
        "FreeWord", "IntersectionMatrix", "Presentation", "WitnessFamily", "braid_action",
        "canonical_order", "center_and_exponent", "compute_clusters", "compute_matrix",
        "delta_on_class", "emit_presentation", "enumerate_classes", "is_inner_shift", "load_group",
        "moduli_report", "monodromy_automorphism", "nesting_tree", "track_braid",
        "verify_cluster_bound", "verify_monodromy_oracle", "verify_separation", "__version__",
        "kernel_backend",
    ]


def test_star_import():
    namespace: dict = {}
    exec("from branchmono import *", namespace)
    assert set(branchmono.__all__) <= set(namespace)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError):
        branchmono.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


@functools.cache
def _loaded_modules(*argv):
    """Every module a fresh process has imported after running the CLI
    with ``argv``; one process per distinct ``argv``."""
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
    return frozenset(eval(out.stderr.strip().splitlines()[-1]))


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


@pytest.mark.parametrize("argv", HYGIENE, ids=[a[0] for a in HYGIENE])
def test_well_formed_commands_import_no_argparse(argv):
    """A well-formed command line is read without argparse, the gettext it
    imports and the locale its first translated string loads: about 4 ms
    of start-up."""
    assert not {"argparse", "gettext", "locale"} & _loaded_modules(*argv)


@pytest.mark.parametrize("command", ["clusters", "present", "orbits"])
@pytest.mark.parametrize("name", ["example1.json", "example2_p3_m1.json"])
def test_integer_points_import_no_fractions(command, name):
    """Integer p-adic points stay ints, so ``fractions`` (and the
    ``decimal`` it imports) loads only for a rational string."""
    argv = [command, "--input", str(DATA / name)] + (["--group", "s3", "--p", "5"] if command == "orbits" else [])
    assert not {"fractions", "decimal"} & _loaded_modules(*argv)


def test_matrix_input_imports_no_fractions(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"mode": "matrix", "matrix": [[0, 2, 1], [2, 0, 1], [1, 1, 0]]}))
    assert not {"fractions", "decimal"} & _loaded_modules("clusters", "--input", str(path))


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
    assert {"branchmono.monodromy", "branchmono.freegroup"} <= loaded
    for layer in NOT_FOR_PRESENT:
        assert f"branchmono.{layer}" not in loaded, layer


def test_orbits_imports_no_monodromy_or_free_group():
    """``orbits`` reads delta off the cluster forest: no free-group words."""
    loaded = _imported_modules("orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"), "--p", "5")
    assert "branchmono.quotients" in loaded
    assert "branchmono.monodromy" not in loaded and "branchmono.freegroup" not in loaded


def test_only_orbits_imports_the_kernels():
    """``_kernels`` holds the orbit walk, so no other command loads it."""
    topology = _imported_modules("verify-topology", "--family", str(DATA / "family_3pt.json"))
    assert "branchmono._kernels" not in topology
    orbits = _imported_modules("orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"), "--p", "5")
    assert {"branchmono.quotients", "branchmono._kernels"} <= orbits


# Each name the benchmark's tracer replaces on ``cli``, with a command
# that must call the replacement; no command calls
# ``cli.monodromy_automorphism``, which the tracer only needs to resolve.
PATCHABLE = [
    ("compute_matrix", ["clusters", "--input", str(DATA / "example1.json")]),
    ("canonical_order", ["clusters", "--input", str(DATA / "example1.json")]),
    ("compute_clusters", ["clusters", "--input", str(DATA / "example1.json")]),
    ("nesting_tree", ["clusters", "--input", str(DATA / "example2_p3_m1.json")]),
    ("tree_to_text", ["clusters", "--input", str(DATA / "example2_p3_m1.json")]),
    ("emit_presentation", ["present", "--input", str(DATA / "example1.json")]),
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
    from branchmono.braid import BraidWord
    from branchmono.clusters import Cluster
    from branchmono.freegroup import FreeWord
    from branchmono.intersection import IntersectionMatrix
    from branchmono.quotients import FiniteGroup, OrbitReport, cyclic_group
    from branchmono.topocheck import CheckRecord

    c2 = ((0, 1), (1, 0))
    # (value, an equal one built another way, an unequal one, repr, a field)
    return {
        "FreeWord": (FreeWord((1, 2, -2, 3)), FreeWord([1, 3]), FreeWord((3, 1)), "FreeWord('x1*x3')", "letters"),
        "BraidWord": (
            BraidWord(3, (1, -2)),
            BraidWord(3, [1, -2]),
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
        "FiniteGroup": (
            cyclic_group(2),
            FiniteGroup("C2", c2),
            FiniteGroup("Z2", c2),
            "FiniteGroup(name='C2', table=((0, 1), (1, 0)), inverse=(0, 1))",
            "table",
        ),
        "CheckRecord": (
            CheckRecord("distinct-values", "a1 vs a2", True),
            CheckRecord(kind="distinct-values", subject="a1 vs a2", ok=True, detail=""),
            CheckRecord("distinct-values", "a1 vs a2", False),
            "CheckRecord(kind='distinct-values', subject='a1 vs a2', ok=True, detail='')",
            "ok",
        ),
        "OrbitReport": (
            OrbitReport("S3", 6, 3, 7, True, 1, 6, ((1, 2, 2),), (1,)),
            OrbitReport(
                group_name="S3", group_order=6, d=3, p=7, surjective_only=True,
                center_size=1, exponent=6, classes=((1, 2, 2),), degrees=(1,),
            ),
            OrbitReport("S3", 6, 3, 7, True, 1, 6, ((1, 2, 2),), (2,)),
            "OrbitReport(group_name='S3', group_order=6, d=3, p=7, surjective_only=True,"
            " center_size=1, exponent=6, classes=((1, 2, 2),), degrees=(1,))",
            "degrees",
        ),
    }


@pytest.mark.parametrize(
    "name",
    ["FreeWord", "BraidWord", "Cluster", "IntersectionMatrix", "FiniteGroup", "CheckRecord", "OrbitReport"],
)
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


def _stored_values():
    """The classes that only store their fields, by name, each with
    positional arguments for every field."""
    from branchmono.braid import BraidWord
    from branchmono.clusters import Cluster, TreeNode
    from branchmono.freegroup import FreeAutomorphism, FreeWord
    from branchmono.monodromy import Presentation
    from branchmono.quotients import OrbitReport
    from branchmono.topocheck import CheckRecord, GeometryReport, OracleReport

    twist = FreeAutomorphism(2, (FreeWord((1, 2, -1)), FreeWord((1, 2, -2, -1))))
    record = ("circle-separation", "c1 vs c2", False, "violated")
    cases = [
        (TreeNode, (Cluster(1, 2, 1), ())),
        (Presentation, (2, twist.images, 3, ("0", "1"), (1, 2))),
        (OrbitReport, ("S3", 6, 3, 7, False, 1, 6, ((1, 2, 2),), (1,))),
        (CheckRecord, record),
        (GeometryReport, ("separation", (CheckRecord(*record),))),
        (OracleReport, (BraidWord(2, (1, 1)), twist, twist, FreeWord(), True)),
    ]
    return {cls.__name__: (cls, args) for cls, args in cases}


STORED = ["TreeNode", "Presentation", "OrbitReport", "CheckRecord", "GeometryReport", "OracleReport"]


@pytest.mark.parametrize("name", STORED)
def test_stored_values_take_positional_or_keyword_fields(name):
    """The base's one constructor: positional, keyword and mixed calls give
    equal values, and the class defines no constructor of its own."""
    cls, args = _stored_values()[name]
    assert "__init__" not in cls.__dict__
    value = cls(*args)
    assert [getattr(value, field) for field in cls.__slots__] == list(args)
    assert cls(**dict(zip(cls.__slots__, args))) == value
    assert cls(*args[:1], **dict(zip(cls.__slots__[1:], args[1:]))) == value
    assert repr(cls(**dict(zip(cls.__slots__, args)))) == repr(value)


def test_value_constructor_refuses_bad_arguments():
    """TypeError wherever a signature would refuse the call."""
    from branchmono.clusters import Cluster, TreeNode
    from branchmono.topocheck import CheckRecord

    leaf = Cluster(1, 2, 1)
    with pytest.raises(TypeError, match=r"CheckRecord\(\) takes 4 arguments, got 5"):
        CheckRecord("k", "s", True, "detail", "extra")
    with pytest.raises(TypeError, match=r"TreeNode\(\) takes 2 arguments, got 3"):
        TreeNode(leaf, (), ())
    with pytest.raises(TypeError, match="unknown or repeated keyword 'colour'"):
        CheckRecord("k", "s", True, colour="red")
    with pytest.raises(TypeError, match="unknown or repeated keyword 'kind'"):
        CheckRecord("k", "s", True, kind="k")
    with pytest.raises(TypeError, match="unknown or repeated keyword 'cluster'"):
        TreeNode(leaf, (), cluster=leaf)
    with pytest.raises(TypeError, match="missing argument 'ok'"):
        CheckRecord("k", "s")
    with pytest.raises(TypeError, match="missing argument 'subject'"):
        CheckRecord("k", ok=True)
    with pytest.raises(TypeError):
        Cluster(1, 2)  # a validating class keeps its own signature


def test_defaults_fill_only_the_missing_fields():
    from branchmono.monodromy import Presentation
    from branchmono.topocheck import CheckRecord

    assert CheckRecord("k", "s", True).detail == ""
    assert CheckRecord("k", "s", True, "given").detail == "given"
    assert CheckRecord("k", "s", True, detail="given").detail == "given"
    pres = Presentation(2, (), sigma=(2, 1))
    assert (pres.p, pres.point_labels, pres.sigma) == (0, (), (2, 1))
