"""End-to-end CLI behavior: golden outputs, exit codes, error JSON,
determinism, and stable error codes for every fixture."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchmono import cli
from branchmono.topocheck import MAX_SAMPLES

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


def test_pure_backend_cli_agrees():
    env = dict(os.environ, BRANCHMONO_PURE="1")
    args = [sys.executable, "-m", "branchmono.cli", "present", "--input", str(DATA / "example2_p3_m1.json")]
    pure_out = subprocess.run(args, capture_output=True, text=True, env=env)
    assert pure_out.returncode == 0
    assert pure_out.stdout == (GOLDEN / "example2_p3_m1_present.txt").read_text()


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
