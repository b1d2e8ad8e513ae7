"""``benchmarks/bench.py`` without fresh processes: the pairing of two
packages' rounds and the sign-test interval of their differences, the
least of a layer's calls, the merge of a run into its output file, the
required ``--out``, the refusal of a tree holding cached bytecode, and
the orbits layers, which replay the command's own calls, run in this
process.  No test here starts a process."""

import contextlib
import importlib.util
import io
import json
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "benchmarks" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_pairs_take_the_median_difference_and_ties_count_for_neither():
    # Differences 1, 0, -1, 3, 2: one round lower, three higher, one tie;
    # five rounds give no 95 % sign-test interval.
    assert bench.paired([3, 5, 2, 4, 6], [2, 5, 3, 1, 4]) == {
        "diff_p50": 1, "ci95": None, "coverage": 0, "lower": 1, "higher": 3,
    }
    assert bench.paired([1, 1], [1, 1]) == {"diff_p50": 0, "ci95": None, "coverage": 0, "lower": 0, "higher": 0}


def test_sign_interval_by_hand():
    """P(B <= k) for B ~ Binomial(n, 1/2): at n = 6, 1/64 for k = 0 and
    7/64 for k = 1, so only [d_(1), d_(6)] reaches 95 %, with coverage
    1 - 2/64 = 0.96875.  At n = 16, P(B <= 3) = 697/65536 and
    P(B <= 4) = 2517/65536, so k = 4: [d_(4), d_(13)] with coverage
    1 - 1394/65536 = 0.97873, and k = 5 would give 0.92319."""
    six = [0.3, -0.1, 0.5, 0.2, -0.4, 0.1]
    assert bench.sign_interval(six) == ([-0.4, 0.5], 0.9688)
    sixteen = [(7 * i) % 16 - 5 for i in range(16)]  # -5..10, shuffled
    assert bench.sign_interval(sixteen) == ([-2, 7], 0.9787)
    assert bench.paired([1.0] * 6, [0.5, 0.6, 0.7, 0.8, 0.9, 0.4])["ci95"] == [0.1, 0.6]


def test_orbit_layers_replay_the_commands_calls(tmp_path):
    """The orbits layers, in this process, on S3 at d = 3."""
    path = tmp_path / "s3.json"
    path.write_text('{"mode": "padic", "p": 7, "points": [0, 7, 1]}')
    argv = ["orbits", "--group", "s3", "--input", str(path), "--p", "7", "--format", "json"]
    case = {"input": str(path), "args": {"group": "s3", "format": "json"}, "commands": {"orbits": argv}}
    sys.path.insert(0, str(ROOT / "perfbench"))  # scaled_cpu's reference.work
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            info, layers = bench.orbit_layers(case)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert info == {"classes": 3}  # (1, 2, 3), (1, 3, 5) and (3, 1, 2)
    assert list(layers) == ["load_group", "enumerate", "delta", "report", "emit"]
    assert all(t >= 0 for t in layers.values())


def test_a_layer_records_its_least_call(monkeypatch):
    """With a clock that only the calls move, a layer whose calls take 5,
    2 and 3 units, each followed by 4 units of reference work, reads
    2/4 of REFERENCE_S; the run records LAYER_CALLS."""
    clock = [0.0]
    durations = [5.0, 2.0, 3.0]

    def advance(units):
        clock[0] += units

    monkeypatch.setattr(bench, "LAYER_CALLS", 3)
    monkeypatch.setattr(bench.time, "process_time", lambda: clock[0])
    monkeypatch.setitem(sys.modules, "reference", types.SimpleNamespace(work=lambda: advance(4.0)))
    assert bench.layer_cpu(lambda: advance(durations.pop(0))) == 2.0 / 4.0 * bench.REFERENCE_S
    assert durations == []
    doc = {}
    bench.merge(doc, {"change": {}}, {}, "change")
    assert doc["runs"]["change"]["layer_calls"] == 3


def test_a_stage_run_keeps_the_labels_other_cases():
    doc = {
        "runs": {
            "change": {"cases": {"s3 d=7": {"n": 1}, "padic d=512": {"n": 2}}},
            "old": {"cases": {"padic d=512": {"n": 0}}},
        },
        "pairs": {"change - parent": {"s3 d=7": {"n": 1}, "padic d=512": {"n": 2}}},
    }
    results = {"change": {"padic d=512": {"n": 3}}, "parent": {"padic d=512": {"n": 4}}}
    bench.merge(doc, results, {"padic d=512": {"n": 5}}, "change")
    assert doc["runs"]["change"]["cases"] == {"s3 d=7": {"n": 1}, "padic d=512": {"n": 3}}
    assert doc["runs"]["parent"]["cases"] == {"padic d=512": {"n": 4}}
    assert doc["runs"]["old"] == {"cases": {"padic d=512": {"n": 0}}}
    assert doc["pairs"]["change - parent"] == {"s3 d=7": {"n": 1}, "padic d=512": {"n": 5}}
    assert doc["runs"]["change"]["repeats"] == bench.REPEATS


def test_out_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "change"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_a_tree_with_cached_bytecode_is_refused(tmp_path):
    cache = tmp_path / "branchmono" / "__pycache__"
    cache.mkdir(parents=True)
    with pytest.raises(SystemExit, match="cached bytecode"):
        bench.source_env(tmp_path)
    cache.rmdir()
    assert bench.source_env(tmp_path)["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path)


def test_a_round_shares_one_reference_process(monkeypatch, tmp_path):
    """With ``cpu_seconds`` replaced, each round runs ``reference.py`` once,
    and both packages' ``process_s`` divide by that round's figure."""
    references = iter([0.4, 0.1])
    spawned = []

    def cpu_seconds(argv, env):
        spawned.append(argv[0] if argv[0] != "-c" else env["PYTHONPATH"])
        if argv == [str(bench.REFERENCE)]:
            return next(references)
        Path(env["BENCH_OUT"]).write_text("VmHWM:\t2048 kB\nbranchmono")
        return {"new": 0.2, "old": 0.3}[env["PYTHONPATH"]]

    monkeypatch.setattr(bench, "cpu_seconds", cpu_seconds)
    monkeypatch.setattr(bench, "REPEATS", 2)
    monkeypatch.setattr(bench, "LAYERS", {})
    case = {"stage": "verify-topology", "commands": {"verify-topology": ["verify-topology"]}}
    envs = {"change": {"PYTHONPATH": "new"}, "parent": {"PYTHONPATH": "old"}}
    samples, _ = bench.measure(case, envs, tmp_path / "launch")
    assert spawned == [str(bench.REFERENCE), "new", "old", str(bench.REFERENCE), "old", "new"]
    scale = [bench.REFERENCE_S / 0.4, bench.REFERENCE_S / 0.1]
    process_s = ("commands", "verify-topology", "process_s")
    assert samples["change"][process_s] == pytest.approx([0.2 * scale[0], 0.2 * scale[1]])
    assert samples["parent"][process_s] == pytest.approx([0.3 * scale[0], 0.3 * scale[1]])
    assert samples["change"][("commands", "verify-topology", "peak_rss_mb")] == [2.0, 2.0]


def test_claims_get_bonferroni_coverage_and_the_rounds_for_it():
    """k claims are each reported at 1 - 0.05/k.  P(B <= k) for
    B ~ Binomial(n, 1/2): at n = 8, 1/256 for k = 0 and 9/256 for k = 1, so
    at 97.5 % only [d_(1), d_(8)] qualifies, with coverage 1 - 2/256 =
    0.99219; at n = 16, P(B <= 2) = 137/65536 and P(B <= 3) = 697/65536, so
    at 99 % the interval is [d_(3), d_(14)] with coverage 1 - 274/65536 =
    0.99582 (k = 4 gives 0.97873).  n rounds reach at most 1 - 2^(1-n):
    six rounds serve one claim, eight up to six claims, ten a seventh."""
    assert bench.claim_level(1) == 0.95 and bench.claim_level(2) == 0.975
    eight = [0.4, -0.3, 0.2, 0.8, -0.1, 0.6, 0.5, 0.7]
    assert bench.sign_interval(eight, 0.975) == ([-0.3, 0.8], 0.9922)
    sixteen = [(7 * i) % 16 - 5 for i in range(16)]  # -5..10, shuffled
    assert bench.sign_interval(sixteen, 0.99) == ([-3, 8], 0.9958)
    assert bench.sign_interval(sixteen[:6], 0.975) == (None, 0)
    assert [bench.claim_rounds(bench.claim_level(k)) for k in (1, 2, 6, 7)] == [6, 8, 8, 10]
    lower = bench.claimed([1.0] * 8, [1.5, 1.2, 1.1, 1.3, 1.4, 1.6, 1.7, 1.8], 0.975)
    assert lower == {
        "diff_p50": -0.45,
        "interval": [-0.8, -0.1],
        "coverage": 0.9922,
        "level": 0.975,
        "rounds": 8,
        "resolved": "lower",
    }
    assert bench.claimed([1.0] * 8, [0.9] * 7 + [1.1], 0.975)["resolved"] is None


def test_a_claim_no_selected_case_produces_is_refused_before_measuring(monkeypatch, tmp_path, capsys):
    def measure(*args, **kwargs):
        raise AssertionError("measured")

    monkeypatch.setattr(bench, "measure", measure)
    out = tmp_path / "bench.json"
    argv = ["--label", "change", "--src", str(tmp_path), "--against", str(tmp_path)]
    argv += ["--stage", "startup", "--out", str(out)]
    with pytest.raises(SystemExit, match="no selected stage has a case 'verify-topology samples=1024'"):
        bench.main(argv + ["--claim", "verify-topology samples=1024:layers_s.track_braid"])
    with pytest.raises(SystemExit, match="expected CASE:FIGURE"):
        bench.main(argv + ["--claim", "layers_s.track_braid"])
    with pytest.raises(SystemExit) as exc:
        bench.main(argv[:4] + argv[6:] + ["--claim", "clusters:cpu_s_p50"])
    assert exc.value.code == 2
    assert "--claim needs --against" in capsys.readouterr().err
    assert not out.exists()


def test_an_unknown_claimed_figure_is_refused_when_the_run_ends(monkeypatch, tmp_path, capsys):
    """With ``measure`` replaced, a start-up run claims one figure its case
    produces and one it does not: nothing is written.  Without the second,
    the claim is recorded with its 95 % interval over claim_rounds rounds
    (6 for one claim; other cases get the default), and every other figure
    is marked exploratory."""
    rounds_seen = []

    def measure(case, envs, out, rounds=0):
        rounds_seen.append((case["name"], rounds))
        n = rounds or bench.STARTUP_RUNS
        figures = {label: {("cpu_s_p50",): [1.0 + 0.1 * (label == "parent")] * n, ("peak_rss_mb",): [16.0] * n} for label in envs}
        return figures, {label: {"modules": []} for label in envs}

    monkeypatch.setattr(bench, "measure", measure)
    out = tmp_path / "bench.json"
    argv = ["--label", "change", "--src", str(tmp_path), "--against", str(tmp_path)]
    argv += ["--stage", "startup", "--out", str(out)]
    with pytest.raises(SystemExit, match="clusters:cpu_s$"):
        bench.main(argv + ["--claim", "clusters:cpu_s_p50", "--claim", "clusters:cpu_s"])
    assert not out.exists()
    rounds_seen.clear()
    bench.main(argv + ["--claim", "clusters:cpu_s_p50"])
    assert ("clusters", 6) in rounds_seen and ("present", 0) in rounds_seen
    doc = json.loads(out.read_text())
    assert doc["claims"]["change - parent"]["clusters:cpu_s_p50"]["resolved"] == "lower"
    clusters = doc["pairs"]["change - parent"]["clusters"]
    assert clusters["cpu_s_p50"]["exploratory"] is False and clusters["peak_rss_mb"]["exploratory"] is True
    assert doc["pairs"]["change - parent"]["present"]["cpu_s_p50"]["exploratory"] is True
    capsys.readouterr()
