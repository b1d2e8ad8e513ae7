"""End-to-end CLI behavior: golden outputs, exit codes, error JSON,
determinism, and stable error codes for every fixture."""

import contextlib
import io
import json
import random
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchmono import cli
from branchmono.intersection import DIGIT_CAP, ECHO_LIMIT
from branchmono.topocheck import MAX_SAMPLES
from conftest import random_ultrametric_entries
from oracles import orbit_json

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "branchmono.cli", *args],
        capture_output=True,
        text=True,
    )


def test_version():
    out = run_cli("--version")
    assert out.returncode == 0
    assert "branchmono" in out.stdout


def test_usage_error_is_exit_2():
    assert run_cli("clusters").returncode == 2
    assert run_cli("no-such-command").returncode == 2


# -- the fast path against argparse ------------------------------------------

FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag, _ in options} | {"--no-surjective-only"})
VALUES = ["text", "json", "relators", "csv", "xml", "", "-x", "-7", "+7", " 7", "0x7", "7", "5" * 5000, "s3", "in.json"]


def well_formed(flag, kwargs):
    """Tokens for one option that argparse reads without complaint."""
    if kwargs.get("action") == cli.BOOLEAN:
        return st.sampled_from([(flag,), ("--no-" + flag[2:],)])
    if "choices" in kwargs:
        values = kwargs["choices"]
    elif "type" in kwargs:
        values = ["7", "+7", " 7", "1_0", "0"]
    else:
        values = ["in.json", "", "s3", "7"]
    return st.tuples(st.just(flag), st.sampled_from(values))


@st.composite
def command_lines(draw):
    """A head word, then well-formed options of it, half the time with one
    more piece of anything: one of its flags with any value, a flag of any
    subcommand, a prefix, a ``--flag=value`` form or help, alone or with
    any value, or a lone value; most of the time with every required flag
    of the head."""
    head = draw(st.sampled_from([*cli.COMMANDS, "nope", "--version", "-h", "--help"]))
    options = cli.COMMANDS[head][2] if head in cli.COMMANDS else ()
    pieces = draw(st.lists(st.one_of([well_formed(*option) for option in options]), max_size=4)) if options else []
    if options and draw(st.integers(0, 3)):
        pieces += [(flag, "in.json") for flag, kwargs in options if kwargs.get("required")]
    if draw(st.booleans()):
        values = st.sampled_from(VALUES) | st.sampled_from(["-x", "-7", "-", "--", "--input"])
        own = st.sampled_from([flag for flag, _ in options] or FLAGS)
        flags = (
            st.sampled_from(FLAGS)
            | st.builds(lambda flag, k: flag[:k], st.sampled_from(FLAGS), st.integers(2, 8))
            | st.builds("{}={}".format, st.sampled_from(FLAGS), values)
            | st.sampled_from(["-h", "--help", "--", "--version"])
        )
        pieces.append(draw(st.tuples(own, values) | st.tuples(flags, values) | st.tuples(flags) | st.tuples(values)))
    pieces = draw(st.permutations(pieces))
    return [head] + [token for piece in pieces for token in piece]


def argparse_reading(argv):
    """vars() of argparse's namespace for ``argv``, or (exit code, stdout)
    where argparse exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_fast_path_reads_command_lines_as_argparse_does(argv):
    """Where the fast path returns a namespace, argparse returns one with
    the same fields; where argparse prints help or a usage error, the
    fast path has declined; ``--version`` prints the same line on both
    and exits 0.  In process: no process is started."""
    expected = argparse_reading(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            fast = cli._parse_fast(argv)
        except SystemExit as exc:
            assert argv == ["--version"]
            assert (exc.code, out.getvalue()) == expected == (0, "branchmono 0.1.0\n")
            return
    assert out.getvalue() == ""
    if fast is not None:
        assert vars(fast) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["clusters", "--input", "in.json"],
        ["present", "--format", "relators", "--input", ""],
        ["present", "--input", "a", "--input", "b", "--format", "json", "--format", "text"],
        ["orbits", "--input", "in.json", "--group", "s3", "--p", "+7", "--threads", " 7", "--max-tuples", "1_000"],
        ["orbits", "--group", "s3", "--input", "x", "--no-surjective-only", "--surjective-only", "--format", "csv"],
        ["orbits", "--group", "s3", "--input", "x", "--surjective-only", "--no-surjective-only"],
        ["verify-topology", "--family", "f.json", "--samples", "64", "--format", "json"],
    ],
)
def test_fast_path_reads_well_formed_command_lines(argv):
    """Well-formed command lines, repeated flags and switches included,
    are read by the fast path, into argparse's fields."""
    fast = cli._parse_fast(argv)
    assert fast is not None and vars(fast) == argparse_reading(argv)


@pytest.mark.parametrize(
    "args, golden",
    [
        (("present", "--input", str(DATA / "example1.json")), "example1_present.txt"),
        (
            ("present", "--input", str(DATA / "example2_p3_m1.json")),
            "example2_p3_m1_present.txt",
        ),
        (
            ("present", "--input", str(DATA / "example2_p5_m2.json")),
            "example2_p5_m2_present.txt",
        ),
        (
            ("present", "--input", str(DATA / "example2_p3_m1.json"), "--format", "json"),
            "example2_p3_m1_present.json",
        ),
        (
            ("present", "--input", str(DATA / "example2_p3_m1.json"), "--format", "relators"),
            "example2_p3_m1_relators.txt",
        ),
        (
            ("clusters", "--input", str(DATA / "example1.json"), "--format", "json"),
            "example1_clusters.json",
        ),
    ],
)
def test_golden_outputs(args, golden):
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN / golden).read_text()


def test_present_reorders_noncanonical_input(tmp_path):
    src = tmp_path / "points.json"
    src.write_text('{"mode": "padic", "p": 3, "points": [0, 1, 3]}')
    out = run_cli("present", "--input", str(src))
    assert out.returncode == 0, out.stderr
    assert "# sigma = [1, 3, 2]" in out.stdout
    assert "# points (reordered) = 0, 3, 1" in out.stdout
    assert "delta^-1*x1*delta = x1*x2*x1*x2^-1*x1^-1" in out.stdout


def test_identical_runs_identical_bytes():
    args = ("present", "--input", str(DATA / "example2_p3_m1.json"), "--format", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_json_outputs_reparse():
    for args in (
        ("clusters", "--input", str(DATA / "example2_p3_m1.json"), "--format", "json"),
        ("present", "--input", str(DATA / "example1.json"), "--format", "json"),
        (
            "orbits",
            "--group",
            "c3",
            "--input",
            str(DATA / "example2_p3_m1.json"),
            "--p",
            "5",
            "--format",
            "json",
        ),
    ):
        out = run_cli(*args)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["schema"] == "branchmono/1"


def test_orbits_text_verdict():
    out = run_cli(
        "orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"), "--p", "5"
    )
    assert out.returncode == 0, out.stderr
    assert "all degrees divide 6" in out.stdout


def test_orbits_csv():
    out = run_cli(
        "orbits",
        "--group",
        "c3",
        "--input",
        str(DATA / "example1.json"),
        "--p",
        "5",
        "--no-surjective-only",
        "--format",
        "csv",
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "class,representative,degree"
    assert len(lines) > 1


def test_orbits_matrix_mode_with_explicit_p(tmp_path):
    src = tmp_path / "valuations.json"
    src.write_text('{"mode": "matrix", "matrix": [[0, 2, 0], [2, 0, 0], [0, 0, 0]]}')
    out = run_cli(
        "orbits", "--group", "s3", "--input", str(src), "--p", "7", "--format", "json"
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["p"] == 7
    assert doc["all_degrees_divide_exponent"] is True


def test_orbits_threads_match_single():
    args = (
        "orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"),
        "--p", "5", "--format", "json",
    )
    single = run_cli(*args)
    multi = run_cli(*args, "--threads", "2")
    assert single.stdout == multi.stdout


def test_verify_topology_text():
    out = run_cli(
        "verify-topology", "--family", str(DATA / "family_3pt.json"), "--samples", "1024"
    )
    assert out.returncode == 0, out.stderr
    assert "separation: pass" in out.stdout
    assert "monodromy agreement:" in out.stdout


def test_verify_topology_json():
    out = run_cli(
        "verify-topology",
        "--family",
        str(DATA / "family_4pt.json"),
        "--samples",
        "1024",
        "--format",
        "json",
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["separation"]["passed"] is True
    assert doc["oracle"]["consistent"] is True


ERROR_CASES = [
    (("clusters", "--input", str(DATA / "matrix_bad.json")), "ULTRAMETRIC_VIOLATION"),
    (("present", "--input", str(DATA / "series_truncated.json")), "INDISTINGUISHABLE_TRUNCATION"),
    (
        ("orbits", "--group", str(DATA / "group_broken.json"), "--input", str(DATA / "example1.json")),
        "NOT_A_GROUP",
    ),
    (
        ("orbits", "--group", "c6", "--input", str(DATA / "example2_p3_m1.json")),
        "PRIME_TO_P_VIOLATION",
    ),
    (("verify-topology", "--family", str(DATA / "family_eta10.json")), "PARAMETERS_TOO_LARGE"),
    (("verify-topology", "--family", str(DATA / "family_collision.json")), "UNRESOLVED_CROSSING"),
    (
        (
            "orbits", "--group", "s4", "--input", str(DATA / "example2_p3_m1.json"),
            "--p", "5", "--max-tuples", "100",
        ),
        "SIZE_LIMIT",
    ),
    (("clusters", "--input", str(DATA / "huge_integer.json")), "INVALID_INPUT"),
]


@pytest.mark.parametrize("args, code", ERROR_CASES, ids=[c for _, c in ERROR_CASES])
def test_stable_error_codes(args, code):
    out = run_cli(*args)
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"] == code
    assert err["message"]


@pytest.mark.parametrize("kind", ["huge_integer", "deep_array"])
def test_hostile_json_is_invalid_input(kind, tmp_path):
    """A 5000-digit integer literal and an array nested 100k deep exceed
    the decoder's limits; both end in INVALID_INPUT, not a traceback."""
    path = DATA / "huge_integer.json"
    if kind == "deep_array":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
    out = run_cli("clusters", "--input", str(path))
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"] == "INVALID_INPUT"


MALFORMED_GROUP_FILES = [
    ("missing_comma", '{"name": "K", "table": [[0, 1] [1, 0]]}'),
    ("huge_integer", '{"name": "K", "table": [[0, ' + "9" * 5000 + "]]}"),
    ("deep_array", '{"table": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    ("not_an_object", "[[0, 1], [1, 0]]"),
    ("rows_not_arrays", '{"table": [0, 1]}'),
]


@pytest.mark.parametrize("kind, text", MALFORMED_GROUP_FILES, ids=[k for k, _ in MALFORMED_GROUP_FILES])
def test_malformed_group_file_is_invalid_input(kind, text, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    out = run_cli("orbits", "--group", str(path), "--input", str(DATA / "example2_p3_m1.json"))
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"] == "INVALID_INPUT"


def test_orbits_p_past_primality_cap_is_size_limit():
    out = run_cli(
        "orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"),
        "--p", str(10**30 + 57),
    )
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"] == "SIZE_LIMIT"
    assert err["details"]["cap"] == 3_317_044_064_679_887_385_961_981


@pytest.mark.parametrize(
    "samples, code",
    [
        ("0", "INVALID_INPUT"),
        ("-5", "INVALID_INPUT"),
        ("1", "INVALID_INPUT"),
        (str(MAX_SAMPLES + 1), "SIZE_LIMIT"),
    ],
)
def test_verify_topology_samples_out_of_range(samples, code):
    out = run_cli("verify-topology", "--family", str(DATA / "family_3pt.json"), "--samples", samples)
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"] == code
    if code == "SIZE_LIMIT":
        assert err["details"]["cap"] == MAX_SAMPLES


def test_verify_topology_mismatch_keeps_report():
    # No clusters, so the checks pass vacuously, yet strands 1 and 2 wind
    # around each other once.
    out = run_cli("verify-topology", "--family", str(DATA / "family_inconsistent.json"))
    assert out.returncode == 1
    assert out.stdout.endswith("tracked braid: b1*b1\nmonodromy agreement: INCONSISTENT\n")
    assert json.loads(out.stderr)["error"] == "MONODROMY_MISMATCH"


@pytest.mark.parametrize(
    "coefficient",
    ["1" + "0" * 400, "1/1" + "0" * 400],
    ids=["overflows", "underflows_to_zero"],
)
def test_verify_topology_coefficient_outside_double_range(coefficient, tmp_path):
    """A double cannot hold 10^400, and 10^-400 would become 0.0 and look
    like a collision: both are refused before any tracking."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(
        {"coefficients": [["0"], [coefficient]], "eta": "1/8", "r": "1/16", "z0": ["3/64", "0"]}
    ))
    out = run_cli("verify-topology", "--family", str(path))
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    assert out.stdout == ""
    err = json.loads(out.stderr)
    assert err["error"] == "SIZE_LIMIT"
    assert err["details"] == {"strand": 2, "coefficient": 0}


# Families whose exact check values pass str()'s limit of 4300 digits: 1200
# terms of 1/3 and 1/5 past depth 2, r = 10^-2200, and z0 within 10^-4000
# of 3/64.
LONG_TAILS = {
    "coefficients": [["0"], ["0", "1"] + ["1/3"] * 1200, ["0", "2"] + ["1/5"] * 1200],
    "eta": "1/8",
    "r": "1/16",
    "z0": ["3/64", "0"],
    "samples": 16,
}
# Its z0 = 3/4 * 10^-2200 is below a double's range, so the command refuses
# it before printing anything.
TINY_R = {
    "coefficients": [["0"], ["0", "1"], ["0", "2"]],
    "eta": "1/8",
    "r": "1/1" + "0" * 2200,
    "z0": ["3/4" + "0" * 2200, "0"],
}
# z0 = 3/64 + 10^-4000 as one fraction.
NEAR_Z0 = {
    "coefficients": [["0"], ["0", "1"], ["0", "2"]],
    "eta": "1/8",
    "r": "1/16",
    "z0": ["3" + "0" * 3998 + "64/64" + "0" * 4000, "0"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "doc, codes", [(LONG_TAILS, (0, 1)), (TINY_R, (1,)), (NEAR_Z0, (0,))], ids=["long-tails", "tiny-r", "near-z0"]
)
def test_verify_topology_exact_values_past_the_digit_limit(doc, codes, fmt, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    out = run_cli("verify-topology", "--family", str(path), "--format", fmt)
    assert "Traceback" not in out.stderr
    assert out.returncode in codes
    if doc is TINY_R:
        assert out.stdout == ""
        err = json.loads(out.stderr)
        assert (err["error"], err["details"]) == ("SIZE_LIMIT", {"field": "z0"})
    elif out.returncode:
        assert json.loads(out.stderr)["error"]
    elif fmt == "json":
        details = [rec["detail"] for rec in json.loads(out.stdout)["cluster_bound"]["checks"]]
        assert any("= ~" in detail for detail in details)
        assert max(map(len, details)) < 200


def test_padic_points_past_the_digit_limit_have_no_labels_only_in_present(tmp_path):
    """Only `present` prints the points: `clusters` and `orbits` accept a
    p-adic point too long for str(), and `present` refuses it by index."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"mode": "padic", "p": 3, "points": [0, "1e5000", "2e5000"]}))
    for args in (("clusters",), ("orbits", "--group", "q8")):
        out = run_cli(*args, "--input", str(path))
        assert (out.returncode, out.stderr) == (0, "")
    out = run_cli("present", "--input", str(path))
    assert (out.returncode, out.stdout) == (1, "")
    assert json.loads(out.stderr) == {
        "error": "INVALID_INPUT",
        "message": "point 2 = <Fraction too long to print> has no default label",
        "details": {"point": 2},
    }


@pytest.mark.parametrize(
    "args, doc, where",
    [
        (("clusters", "--input"), {"mode": "padic", "p": 3, "points": [0, 1, "1e10000000"]}, {"point": 3}),
        (
            ("verify-topology", "--family"),
            {"coefficients": [["0"], ["1"]], "eta": "1/8", "r": "1e-3000000", "z0": ["3e-3000000", "0"]},
            {"field": "r"},
        ),
    ],
    ids=["clusters-point", "verify-topology-radius"],
)
def test_exponent_past_the_digit_cap_is_refused_at_once(args, doc, where, tmp_path):
    """Fraction expands an exponent in full: "1e10000000" alone is a
    33-Mbit integer and seconds of work.  The exponent is read first, and
    the error names where the value was."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = subprocess.run(
        [sys.executable, "-m", "branchmono.cli", *args, str(path)], capture_output=True, text=True, timeout=5
    )
    assert (out.returncode, out.stdout) == (1, "")
    err = json.loads(out.stderr)
    assert err["error"] == "SIZE_LIMIT"
    assert err["details"] == {"cap": 20000, **where}


FAMILY = {"coefficients": [["0"], ["0", "1"]], "eta": "1/8", "r": "1/16", "z0": ["3/64", "0"]}


@pytest.mark.parametrize(
    "args, doc, message, where",
    [
        (
            ("verify-topology", "--family"),
            {**FAMILY, "coefficients": [["0"], ["0", {"a": 1}]]},
            "not a rational: {'a': 1} (a JSON object)",
            {"strand": 2, "coefficient": 1},
        ),
        (
            ("clusters", "--input"),
            {"mode": "padic", "p": 3, "points": [0, None, 1]},
            "not a rational: None (JSON null)",
            {"point": 2},
        ),
        (("verify-topology", "--family"), {**FAMILY, "z0": {"re": 1}}, "not a rational: {'re': 1} (a JSON object)", {"field": "z0"}),
        (("verify-topology", "--family"), {**FAMILY, "z0": [0.5, 0]}, "not a rational: 0.5 (floats are not accepted)", {"field": "z0"}),
        (("verify-topology", "--family"), {**FAMILY, "eta": "1/0"}, "cannot parse rational '1/0'", {"field": "eta"}),
    ],
    ids=["object-coefficient", "null-padic-point", "object-z0", "float-z0", "unparsable-eta"],
)
def test_a_value_that_is_no_rational_is_named_with_its_place(args, doc, message, where, tmp_path):
    """The error names the value's JSON type, keeps the note on floats for
    floats, and its details say where the value was."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = run_cli(*args, str(path))
    assert (out.returncode, out.stdout) == (1, "")
    assert json.loads(out.stderr) == {"error": "INVALID_INPUT", "message": message, "details": where}


@pytest.mark.parametrize("parts", [3, 100000])
def test_a_z0_array_of_another_length_is_named_and_echoed_bounded(parts, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**FAMILY, "z0": ["1"] * parts}))
    out = run_cli("verify-topology", "--family", str(path))
    assert (out.returncode, out.stdout) == (1, "")
    err = json.loads(out.stderr)
    assert (err["error"], err["details"]) == ("INVALID_INPUT", {"field": "z0"})
    assert len(out.stderr) < 2 * ECHO_LIMIT + 100


@pytest.mark.parametrize("group", ["c²", "s①"], ids=["superscript_two", "circled_one"])
def test_orbits_non_decimal_digits_are_unknown_builtin(group):
    """str.isdigit() accepts these characters but int() does not parse them;
    the name is unknown, not a traceback."""
    out = run_cli("orbits", "--group", group, "--input", str(DATA / "example1.json"))
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"] == "UNKNOWN_BUILTIN"


@pytest.mark.parametrize(
    "group",
    ["c401", "cyclic 401", "d201", "c" + "9" * 5000, "table"],
    ids=["c401", "cyclic_401", "d201", "c_5000_digits", "table_file"],
)
def test_orbits_group_past_order_cap(group, tmp_path):
    from branchmono.quotients import MAX_GROUP_ORDER

    if group == "table":
        # cap + 1 rows, each empty: the order is refused before any row is read.
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"name": "big", "table": [[]] * (MAX_GROUP_ORDER + 1)}))
        group = str(path)
    out = run_cli("orbits", "--group", group, "--input", str(DATA / "example1.json"))
    assert "Traceback" not in out.stderr
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"] == "SIZE_LIMIT"
    assert err["details"]["cap"] == MAX_GROUP_ORDER


# Generated witness families, canonical and in label order more often than
# not, and then mutated: any field may be dropped or replaced by a value of
# the wrong type, and any row by a non-array.
RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 4)),
)
BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.integers(-(10**30), 10**30),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def witness_documents(draw):
    def padded(poly):
        return tuple(Fraction(c) for c in poly) + (Fraction(0),) * (4 - len(poly))

    polys = draw(
        st.lists(
            st.lists(RATIONALS, min_size=1, max_size=4), min_size=2, max_size=4, unique_by=padded
        )
    )
    polys.sort(key=padded)
    doc = {
        "coefficients": polys,
        "eta": draw(st.sampled_from(["1/8", "1/64", "0", "1"])),
        "r": "1/16",
        "z0": draw(st.sampled_from([["3/64", "0"], ["0", "3/64"], ["3/128", "1/32"], "3/64"])),
        "samples": draw(st.integers(16, 64)),
    }
    mutation = draw(st.sampled_from(["none", "drop", "replace", "row"]))
    key = draw(st.sampled_from(sorted(doc)))
    if mutation == "drop":
        del doc[key]
    elif mutation == "replace":
        doc[key] = draw(BAD_VALUES)
    elif mutation == "row":
        polys[draw(st.integers(0, len(polys) - 1))] = draw(BAD_VALUES)
    return doc


SAMPLE_ARGS = st.one_of(
    st.none(),
    st.integers(16, 64).map(str),
    st.integers(-20, 20).map(str),
    st.sampled_from([str(MAX_SAMPLES + 1), "1e3", "16.5", "abc", ""]),
)


@settings(max_examples=60, deadline=None)
@given(doc=witness_documents(), samples=SAMPLE_ARGS)
def test_verify_topology_never_raises(doc, samples):
    """Exit 0, exit 1 with an error JSON on stderr, or a usage error;
    never an exception out of ``cli.main``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(json.dumps(doc))
        argv = ["verify-topology", "--family", str(path), "--format", "json"]
        if samples is not None:
            argv += ["--samples", samples]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                return
    assert code in (0, 1)
    if code == 1:
        assert "error" in json.loads(err.getvalue())


# Generated branch inputs in all three modes, and group files, mutated the
# same way: a field dropped or replaced by a value of the wrong type (bools
# and huge integers among them), or one point, row or entry replaced.
HUGE = st.integers(10**30, 10**60) | st.integers(-(10**60), -(10**30))
POINTS = st.one_of(
    st.integers(-8, 8),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-8, 8), st.integers(1, 9)),
    HUGE,
)


@st.composite
def branch_documents(draw):
    mode = draw(st.sampled_from(["padic", "series", "matrix"]))
    d = draw(st.sampled_from([1, 2, 3, 3, 4, 4, 5, 6]))
    doc = {"mode": mode}
    if mode == "padic":
        doc["p"] = draw(st.sampled_from([2, 2, 3, 3, 5, 7, 2**61 - 1, 4, 1, 0]))
        doc["points"] = draw(st.lists(POINTS, min_size=d, max_size=d, unique=True))
    elif mode == "series":
        t = draw(st.integers(1, 3))
        doc["truncation"] = draw(st.sampled_from([t, t, t, 0, t + 1]))
        doc["points"] = draw(
            st.lists(st.lists(POINTS, min_size=t, max_size=t), min_size=d, max_size=d, unique_by=str)
        )
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        doc["matrix"] = random_ultrametric_entries(rng, d, draw(st.integers(1, 4)))
    mutation = draw(st.sampled_from(["none"] * 4 + ["drop", "replace", "element", "deepen"]))
    key = draw(st.sampled_from(sorted(doc)))
    if mutation == "deepen" and mode == "matrix" and d >= 2:
        # Still an ultrametric, but one pair (and the clusters) very deep.
        i = draw(st.integers(0, d - 2))
        doc["matrix"][i][i + 1] = doc["matrix"][i + 1][i] = draw(HUGE.map(abs) | st.integers(5, 12_000))
    elif mutation == "drop":
        del doc[key]
    elif mutation == "replace":
        doc[key] = draw(BAD_VALUES | HUGE)
    elif mutation == "element":
        rows = doc.get("points", doc.get("matrix"))
        i = draw(st.integers(0, len(rows) - 1))
        if isinstance(rows[i], list) and rows[i] and draw(st.booleans()):
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(BAD_VALUES | HUGE)
        else:
            rows[i] = draw(BAD_VALUES | HUGE)
    return doc


@st.composite
def group_specs(draw, tmp):
    """A builtin name, or a path to a group file written into ``tmp``."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["c2", "c3", "s3", "d4", "q8", "a4", "c0", "s9", "c401", "c²", "nope"]))
    n = draw(st.sampled_from([1, 2, 3, 4]))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    doc = {"name": "K", "table": table}
    mutation = draw(st.sampled_from(["none"] * 3 + ["entry", "row", "table", "name", "drop"]))
    if mutation == "entry":
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(BAD_VALUES | HUGE | st.integers(-2, 5))
    elif mutation == "row":
        table[draw(st.integers(0, n - 1))] = draw(BAD_VALUES)
    elif mutation in ("table", "name"):
        doc[mutation] = draw(BAD_VALUES | HUGE)
    elif mutation == "drop":
        del doc["table"]
    path = Path(tmp) / "group.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_main_in_process(argv):
    """(exit code, stderr) of ``cli.main``; exceptions propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            return exc.code, ""
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(
    doc=branch_documents(),
    command=st.sampled_from(["clusters", "present", "orbits"]),
    fmt=st.sampled_from([None, "text", "json", "relators", "csv"]),
    extra=st.lists(
        st.sampled_from([
            ("--p", "0"), ("--p", "3"), ("--p", "4"), ("--p", "-7"), ("--p", str(10**30)),
            ("--max-tuples", "0"), ("--max-tuples", "-1"), ("--max-tuples", "100000"),
            ("--no-surjective-only",), ("--threads", "0"),
        ]),
        max_size=2,
    ),
    data=st.data(),
)
def test_branch_commands_never_raise(doc, command, fmt, extra, data):
    """Exit 0, exit 1 with an error JSON on stderr, or a usage error (2);
    never an exception out of ``cli.main``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--input", str(path)]
        if fmt is not None:
            argv += ["--format", fmt]
        if command == "orbits":
            argv += ["--group", data.draw(group_specs(tmp))]
            argv += [arg for option in extra for arg in option]
        code, err = run_main_in_process(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert "error" in json.loads(err)


# Every short document ends quickly.
def short_numbers(digits=DIGIT_CAP + 1):
    """Short strings that expand far: decimal exponents of up to
    ``digits`` digits (by default up to and past DIGIT_CAP, mantissa
    digits plus |exponent|), long digit runs and fractions of large
    integers."""
    exponents = st.integers(-digits, digits)
    if digits > DIGIT_CAP:
        exponents |= st.sampled_from([19998, 19999, 20000, -19998, -19999, -20000])
    return st.one_of(
        st.integers(-9, 9),
        st.integers(-(10**120), 10**120),
        st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 10**60)),
        st.builds(
            "{}{}e{}".format,
            st.sampled_from(["", "-"]),
            st.sampled_from(["1", "6", "9", "9.9", "0.5", "1_0"]),
            exponents,
        ),
        st.sampled_from(["1/3", "-1", "9" * 120, "0." + "0" * 120 + "1", "1.7e308", "-1.7e308"]),
    )


SHORT_NUMBERS = short_numbers()
SHORT_BYTES = 300
# CPU seconds, so that a busy machine does not fail the test.
SHORT_SECONDS = 10
# Witness families here give r and z0 at most FAMILY_DIGITS digits over
# the length of their longest polynomial.  A z0 past a double's range is
# refused before the exact checks, but nothing bounds their work within
# it yet (ROADMAP direction 3): their gcds grow with the square of the
# values' length, which grows with that length times z0's digits, so a
# depth-40 pair plus one strand at |z0| = 6e-300 takes about 8 CPU s.
FAMILY_DIGITS = 5000


@st.composite
def short_branch_documents(draw):
    mode = draw(st.sampled_from(["padic", "series", "matrix"]))
    d = draw(st.integers(1, 6))
    doc = {"mode": mode, "p": draw(st.sampled_from([2, 3, 7, 2**61 - 1, 10**100, 4]))}
    if mode == "padic":
        doc["points"] = draw(st.lists(SHORT_NUMBERS, min_size=d, max_size=d))
    elif mode == "series":
        t = draw(st.integers(1, 3))
        doc["truncation"] = draw(st.sampled_from([t, t, 10**9, 10**100]))
        doc["points"] = draw(st.lists(st.lists(SHORT_NUMBERS, min_size=t, max_size=t), min_size=d, max_size=d))
    else:
        depths = st.integers(0, 3) | st.sampled_from([9_999, 10_000, 10**9, 10**100])
        doc["matrix"] = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                doc["matrix"][i][j] = doc["matrix"][j][i] = draw(depths)
    return doc


@st.composite
def short_family_documents(draw):
    """Witness families: at random, or strands in canonical order that
    split from 0 at random depths, with |z0| = 0.6 r at a drawn scale, so
    that the exact checks run."""

    def padded(poly):
        return tuple(poly) + (0,) * (41 - len(poly))

    d = draw(st.integers(2, 6))
    if draw(st.booleans()):
        polys = draw(st.lists(st.lists(SHORT_NUMBERS, min_size=1, max_size=12), min_size=d, max_size=d))
        scale = short_numbers(FAMILY_DIGITS // max(map(len, polys)))
        r, z0 = draw(scale), draw(scale | st.lists(scale, min_size=2, max_size=2))
    else:
        ends = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d, unique=True))
        depths = st.integers(0, 40 // d) | st.just(40 // d)
        polys = sorted(([0] * draw(depths) + [end] for end in ends), key=padded)
        most = FAMILY_DIGITS // max(map(len, polys)) - 1
        k = draw(st.sampled_from([most, 3000, 300]).filter(lambda k: k <= most) | st.integers(1, most))
        r, z0 = f"1e-{k}", [f"6e-{k + 1}", "0"]
    return {
        "coefficients": polys,
        "eta": draw(st.sampled_from(["1/8", "1e300"]) | SHORT_NUMBERS),
        "r": r,
        "z0": z0,
        "samples": draw(st.sampled_from([16, 1024, MAX_SAMPLES, MAX_SAMPLES + 1])),
    }


class TookTooLong(BaseException):
    """Raised by the timer out of whatever the command is doing; not an
    Exception, so that Hypothesis stops at once rather than shrink by
    rerunning slow documents."""


def run_document(argv, text, seconds):
    """``run_main_in_process`` on ``text`` written to a file, whose path
    is put after ``argv[:2]``; TookTooLong past ``seconds`` of CPU time."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        argv = [*argv[:2], str(path), *argv[2:]]

        def took_too_long(signum, frame):
            raise TookTooLong(f"{' '.join(argv[:1] + argv[3:])} took over {seconds} CPU s on {text}")

        previous = signal.signal(signal.SIGPROF, took_too_long)
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            return run_main_in_process(argv)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["clusters", "present", "orbits", "verify-topology"]),
    fmt=st.sampled_from([None, "text", "json", "relators", "csv"]),
    data=st.data(),
)
def test_short_documents_end_quickly(command, fmt, data):
    """Every document of at most SHORT_BYTES bytes, families within
    FAMILY_DIGITS, ends within SHORT_SECONDS of CPU time in exit 0, 1 with
    an error JSON or 2."""
    family = command == "verify-topology"
    text = json.dumps(data.draw(short_family_documents() if family else short_branch_documents()))
    assume(len(text) <= SHORT_BYTES)
    argv = [command, "--family" if family else "--input"]
    if fmt is not None:
        argv += ["--format", fmt]
    if command == "orbits":
        argv += ["--group", data.draw(st.sampled_from(["s3", "q8", "a5"]))]
    code, err = run_document(argv, text, SHORT_SECONDS)
    assert code in (0, 1, 2)
    if code == 1:
        assert "error" in json.loads(err)


def test_deep_cluster_at_a_tiny_z0_is_refused_before_the_exact_checks():
    """A depth-5 cluster at |z0| = 6e-19999: the exact checks would take
    seconds on its 330-kbit values, but z0 is past a double's range, so
    the family is refused when it is built."""
    doc = {"coefficients": [["0"], ["0"] * 5 + ["1"]], "eta": "1/8", "r": "1e-19998", "z0": ["6e-19999", "0"]}
    code, err = run_document(["verify-topology", "--family"], json.dumps(doc), 1)
    assert code == 1
    err = json.loads(err)
    assert (err["error"], err["details"]) == ("SIZE_LIMIT", {"field": "z0"})


# -- orbits output stream ------------------------------------------------------

ORBITS_S3_D7 = '{"mode": "padic", "p": 7, "points": [7, 311, 191, 152, 324, 89, 115]}'


@pytest.mark.parametrize("surjective", ["--surjective-only", "--no-surjective-only"])
@pytest.mark.parametrize("group, points", [("s3", [0, 3, 1, 2]), ("s3", [0, 7]), ("d4", [0, 7, 1])])
def test_orbits_json_is_json_dumps_of_the_report(group, points, surjective, tmp_path, capsys):
    from branchmono.quotients import load_group, moduli_report

    src = tmp_path / "points.json"
    src.write_text(json.dumps({"mode": "padic", "p": 5 if group == "s3" else 3, "points": points}))
    assert cli.main(["orbits", "--group", group, "--input", str(src), surjective, "--format", "json"]) == 0
    forest = cli._pipeline(str(src))[-1]
    report = moduli_report(
        load_group(group),
        forest,
        p=5 if group == "s3" else 3,
        surjective_only=surjective == "--surjective-only",
    )
    assert capsys.readouterr().out == orbit_json(report)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_exits_1_without_traceback(fmt, tmp_path):
    """A reader that stops after the first line (`| head -1`): the command
    exits 1 and writes nothing to stderr."""
    src = tmp_path / "points.json"
    src.write_text(ORBITS_S3_D7)
    proc = subprocess.Popen(
        [sys.executable, "-m", "branchmono.cli", "orbits", "--group", "s3", "--input", str(src),
         "--p", "7", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()  # the output is far longer than a pipe buffer
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""
