"""The rules of ``benchmarks/bench.py`` that need no measurement: the
pairing of two packages' rounds, the merge of a run into its output file,
the required ``--out`` and the refusal of a tree holding cached bytecode.
No test here starts a process."""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "benchmarks" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_pairs_take_the_median_difference_and_ties_count_for_neither():
    # Differences 1, 0, -1, 3, 2: one round lower, three higher, one tie.
    assert bench.paired([3, 5, 2, 4, 6], [2, 5, 3, 1, 4]) == {"diff_p50": 1, "lower": 1, "higher": 3}
    assert bench.paired([1, 1], [1, 1]) == {"diff_p50": 0, "lower": 0, "higher": 0}


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
