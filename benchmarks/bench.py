"""Cost of each subcommand: its layers in process, the whole command in
process and in a fresh process, its peak RSS, and its start-up.

Run from the root of a source checkout:

    python benchmarks/bench.py --label change --out BENCH_N.json
    python benchmarks/bench.py --label change --stage clusters --out BENCH_N.json
    python benchmarks/bench.py --label change --against PARENT_CHECKOUT/src --out BENCH_N.json
    python benchmarks/bench.py --label change --stage verify-topology --against PARENT_CHECKOUT/src \
        --claim "verify-topology samples=1024:layers_s.track_braid" --out BENCH_N.json

The package measured is the one under ``--src`` (default: this
checkout's ``src``); the inputs come from this checkout.  ``--stage``
runs one stage; by default every stage runs, in this order:

- ``startup``: ``--version``, ``clusters``, ``present``, ``orbits`` and
  ``verify-topology`` on small fixed inputs from ``tests/data``, each case
  named by its command, STARTUP_RUNS fresh processes each and no layers.
- ``orbits``: `orbits --group G --p 7 --format json` on fixed 7-adic
  points: the first five inputs of perfbench's `orbits` pool (one per
  group), then A5 and S5 at d = 4, the order-200 dihedral group `d100`
  at d = 3, and A5 at d = 5 with `--max-tuples 100000000` (60^4 tuples
  are past the default cap), once more with `--format csv`.  The layers
  replay the command's own calls: one untimed `cli.main` run records the
  arguments and results of its first calls of ``cli.moduli_report``,
  ``quotients.enumerate_classes`` and ``quotients.delta_on_class``, so
  they time the same work on either side of a change to those
  functions' parameters.  Layers: ``load_group``
  (``quotients.load_group``); ``enumerate`` (``enumerate_classes`` with
  the recorded arguments, the generation filter included); ``delta``
  (``delta_on_class`` on every class, with the arguments after the class
  that ``moduli_report`` passed it); ``report`` (``moduli_report`` with
  the recorded arguments and ``enumerate_classes`` replaced, during the
  timed call only, by a function that returns the classes already
  enumerated: delta on every class, the lookup of each image and the
  cycle walk that reads the degrees); ``emit`` (``OrbitReport.write_json``
  of the recorded report to devnull).  The CSV case times only its
  command: its layers up to the report are those of the JSON case.
- ``clusters``: the 2-adic points 0..d-1 for d = 512, 1024 and 2048,
  whose cluster tree is the complete binary tree; at d = 512 the same
  tree in series mode (point i is the series of i's binary digits,
  T = 9); a seeded random ultrametric at d = 512 and 1024, whose entry
  for two points is the common prefix length of their random labels of
  MATRIX_DEPTH base-3 digits, so its rows come in no particular order;
  and the all-zero matrix at d = 1024, the widest split.  Each input
  runs `clusters` and `present` in text form, and the 2-adic inputs run
  `present` in JSON and relators form too (commands ``present json`` and
  ``present relators``).  Layers: ``compute_matrix``,
  ``canonical_order`` and ``compute_clusters`` (the functions of
  ``intersection`` and ``clusters`` that ``cli._pipeline`` calls);
  ``monodromy`` (``monodromy.emit_presentation``); ``emit_clusters``
  (``nesting_tree`` and ``tree_to_text``); ``emit_present``
  (``Presentation.text``); with the other forms ``emit_present_json``
  (``json.dumps`` of ``Presentation.to_json_dict`` as the command prints
  it) and ``emit_present_relators`` (``Presentation.relators_text``).
- ``verify-topology``: the 64 frozen witness families of perfbench's
  `verify-topology` pool (``perfbench/workloads.py``, loaded by path),
  with the tracker at 1024, 2^14 and 2^16 samples.  Layers, each summed
  over the 64 families: ``verify_separation``, ``verify_cluster_bound``
  and ``track_braid`` of ``topocheck``, ``braid_action`` (of each
  family's tracked braid) and ``is_inner_shift`` (on that action and the
  cluster twists, as the oracle calls it).  Its one command is
  `verify-topology --samples N` on the first 12-strand family of the pool.

Figures are CPU seconds, each the median of REPEATS rounds (STARTUP_RUNS
for a start-up case), scaled by 0.2 s over the CPU time of the work of
``perfbench/reference.py``, which measures the machine's speed at that
moment.  A case's round starts one fresh process of ``reference.py``,
then runs, for each package:

- one child interpreter (CHILD, ``python -c`` with the package's ``src``
  first on its path; this process imports no ``branchmono``), which
  builds the case's data, times each layer as the least of LAYER_CALLS
  calls (the first call after the data is built carries the process's
  allocation history, which a change to other code moves) and then each
  command once through ``cli.main`` (``command_s``), stdout to devnull,
  each call scaled by ``reference.work()`` in that process;
- for each command one fresh LAUNCH process, which adds interpreter
  start-up and imports: its user plus system CPU time from wait4
  (``process_s``, for a start-up case ``cpu_s_p50`` with every run in
  ``cpu_s``), scaled by the round's reference process, so that with
  ``--against`` both packages' figures of a round share one divisor, and
  its own VmHWM (``peak_rss_mb``).  A start-up case also records the sorted
  ``branchmono`` modules the process imported (``modules``).

The two scalings differ, so in-process and fresh-process figures are not
in the same unit.  A case records ``layers_s`` and, per command, its
figures under ``commands``; a start-up case records its figures at the
top.  The processes run in the caller's environment, so a setting such
as PYTHONDONTWRITEBYTECODE applies as it does to any user.

With ``--against``, the package there runs in the same invocation and
is recorded under ``parent``: each round runs both packages, in an order
that flips every round, so both see the same drift of the machine.  For
each figure, ``pairs`` records the round-by-round differences (label
minus parent): their median (``diff_p50``) and the rounds in which the
label's figure was ``lower`` and ``higher``; a tie counts for neither.
Next to each median, ``ci95`` is a distribution-free interval for the
median paired difference, from the sign test's order statistics, and
``coverage`` its exact coverage: with REPEATS = 6 rounds it is the least
and greatest difference (96.9 %), with STARTUP_RUNS = 16 the 4th and
13th (97.9 %).  An interval that excludes 0 resolves the difference.

A claim is named before the run: ``--claim CASE:FIGURE`` (repeatable,
with ``--against``) names one figure of one case, its path joined by
dots, for example ``verify-topology samples=1024:layers_s.track_braid``.
A case that no selected stage produces is refused before anything is
measured, and a figure that its case did not produce when the run ends.
With k claims, each claimed figure's sign-test interval is reported at
coverage 1 - 0.05/k or more (Bonferroni), so that all of them hold at
once at 95 %; a claimed case runs the least even number of rounds that
reaches it, if that is more than its usual count: 8 for two to six
claims.  The claims are recorded under ``claims``, each with its median
difference, ``interval``, ``coverage``, ``level``, ``rounds`` and
``resolved`` ("lower", "higher", or None where the interval holds 0).
Every paired figure records ``exploratory``, true unless it is claimed:
with about 200 figures a run, a few exploratory intervals exclude 0 by
chance.

The results merge into ``--out``: a run replaces, under its label (and
under ``parent`` and ``"<label> - parent"`` in ``pairs`` and
``claims``), the cases and claims it measured and keeps the label's
others.  Each label's run also records the Python version, the machine,
PYTHONDONTWRITEBYTECODE, ``repeats``, ``startup_runs`` and
``layer_calls``.  Every figure is rounded to four significant digits.
Each case's medians are printed as it ends, and with ``--against`` its
paired differences, each followed by its interval and its rounds
lower/higher, then its claims.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
REFERENCE = ROOT / "perfbench" / "reference.py"
REFERENCE_S = 0.2  # as perfbench/run.py
# Even, so that with --against each package runs first in half the rounds.
REPEATS = 6
STARTUP_RUNS = 16
# Calls per layer in each round's child; the least is the layer's figure.
LAYER_CALLS = 3
STAGES = ("startup", "orbits", "clusters", "verify-topology")

STARTUP = {
    "--version": ["--version"],
    "clusters": ["clusters", "--input", str(DATA / "example2_p3_m1.json")],
    "present": ["present", "--input", str(DATA / "example2_p3_m1.json")],
    "orbits": ["orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"), "--p", "5"],
    "verify-topology": ["verify-topology", "--family", str(DATA / "family_3pt.json")],
}
P = 7
# (group, 7-adic points, --max-tuples or None for the default cap,
# --format); the first five are perfbench's orbits pool cases 0-4.
ORBITS = (
    ("s3", (7, 311, 191, 152, 324, 89, 115), None, "json"),
    ("d5", (55, 180, 236, 330, 282, 243), None, "json"),
    ("a4", (21, 7, 108, 260, 228), None, "json"),
    ("s4", (97, 85, 208, 290), None, "json"),
    ("a5", (142, 46, 274), None, "json"),
    ("a5", (142, 46, 274, 97), None, "json"),
    ("s5", (142, 46, 274, 97), None, "json"),
    ("d100", (142, 46, 274), None, "json"),
    ("a5", (0, 7, 1, 8, 2), 10**8, "json"),
    ("a5", (0, 7, 1, 8, 2), 10**8, "csv"),
)
SERIES_BITS = 9
MATRIX_DEPTH = 6
# (input kind, d) of the clusters stage.
CLUSTERS = (
    ("padic", 512),
    ("padic", 1024),
    ("padic", 2048),
    ("series", 512),
    ("matrix", 512),
    ("matrix", 1024),
    ("zero-matrix", 1024),
)
# Tracker sample counts of the verify-topology stage.
SAMPLES = (1024, 2**14, 2**16)
CLAIM_EXAMPLE = "verify-topology samples=1024:layers_s.track_braid"

# A fresh process: the CLI as its console script runs it, then its own
# VmHWM line and the package modules it imported, written to the file
# named by BENCH_OUT.  The peak comes from /proc/self/status, as
# perfbench's LAUNCH reads it: wait4's ru_maxrss would carry this
# process's peak over fork and exec.
LAUNCH = """\
import os, sys
from branchmono.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["BENCH_OUT"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
        out.write("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "branchmono")))
sys.exit(code)
"""

# One round of a case's layers and in-process commands; argv[1] is the case.
CHILD = f"""\
import sys
sys.path += [{str(ROOT / "benchmarks")!r}, {str(REFERENCE.parent)!r}]
import bench
bench.child(sys.argv[1])
"""


def source_env(src: Path) -> dict[str, str]:
    """This process's environment with ``src`` first on PYTHONPATH.

    A tree holding cached bytecode is refused: the processes measured
    would load it instead of compiling the package from source, which
    favours the tree that has it."""
    cache = src / "branchmono" / "__pycache__"
    if cache.exists():
        raise SystemExit(
            f"{cache} holds cached bytecode: delete it, and run with PYTHONDONTWRITEBYTECODE=1 to leave none"
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def cpu_seconds(argv: list[str], env: dict[str, str]) -> float:
    """User plus system CPU seconds of a fresh Python process run from the
    checkout's root, stdout to devnull."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{argv} failed")
    return usage.ru_utime + usage.ru_stime


def launch(argv: list[str], env: dict[str, str], out: Path, reference: float) -> tuple[float, float, list[str]]:
    """(CPU seconds scaled by the round's ``reference`` seconds, peak RSS
    in MB, imported package modules) of one fresh LAUNCH process."""
    cpu = cpu_seconds(["-c", LAUNCH, *argv], {**env, "BENCH_OUT": str(out)})
    hwm, *modules = out.read_text().split("\n")
    return cpu * REFERENCE_S / reference, int(hwm.split()[1]) / 1024, modules


def scaled_cpu(fn) -> float:
    """CPU seconds of one call of fn in this process, scaled by
    ``reference.work()`` right after it."""
    from reference import work

    start = time.process_time()
    fn()
    mid = time.process_time()
    work()
    return (mid - start) * REFERENCE_S / (time.process_time() - mid)


def layer_cpu(fn) -> float:
    """The least of LAYER_CALLS ``scaled_cpu`` figures of fn."""
    return min(scaled_cpu(fn) for _ in range(LAYER_CALLS))


def orbit_layers(case: dict) -> tuple[dict, dict]:
    from branchmono import cli, quotients

    # One untimed run of the command, recording the arguments of its own
    # calls, so that the layers replay them whatever their signatures.
    calls: dict[str, tuple] = {}

    def spy(owner, name: str):
        fn = getattr(owner, name)

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.setdefault(name, (args, kwargs, result))
            return result

        return mock.patch.object(owner, name, recorded)

    with spy(cli, "moduli_report"), spy(quotients, "enumerate_classes"), spy(quotients, "delta_on_class"):
        cli.main(case["commands"]["orbits"])
    report_args, report_kwargs, report = calls["moduli_report"]
    enum_args, enum_kwargs, classes = calls["enumerate_classes"]
    (_, *delta_args), delta_kwargs, _ = calls["delta_on_class"]
    info = {"classes": report.class_count}
    if case["args"]["format"] != "json":
        return info, {}
    with mock.patch.object(quotients, "enumerate_classes", lambda *args, **kwargs: classes):
        report_s = layer_cpu(lambda: quotients.moduli_report(*report_args, **report_kwargs))
    return info, {
        "load_group": layer_cpu(lambda: quotients.load_group(case["args"]["group"])),
        "enumerate": layer_cpu(lambda: quotients.enumerate_classes(*enum_args, **enum_kwargs)),
        "delta": layer_cpu(lambda: [quotients.delta_on_class(c, *delta_args, **delta_kwargs) for c in classes]),
        "report": report_s,
        "emit": layer_cpu(lambda: report.write_json(sys.stdout)),
    }


def cluster_layers(case: dict) -> tuple[dict, dict]:
    from branchmono import clusters, intersection, monodromy

    binput = intersection.BranchInput.from_json_dict(json.loads(Path(case["input"]).read_text()))
    matrix = intersection.compute_matrix(binput)
    sigma, reordered = intersection.canonical_order(matrix)
    forest = clusters.compute_clusters(reordered)
    labels = tuple(binput.labels[s - 1] for s in sigma)
    pres = monodromy.emit_presentation(forest, p=binput.p or 0, point_labels=labels, sigma=sigma)
    layers = {
        "compute_matrix": layer_cpu(lambda: intersection.compute_matrix(binput)),
        "canonical_order": layer_cpu(lambda: intersection.canonical_order(matrix)),
        "compute_clusters": layer_cpu(lambda: clusters.compute_clusters(reordered)),
        "monodromy": layer_cpu(
            lambda: monodromy.emit_presentation(forest, p=binput.p or 0, point_labels=labels, sigma=sigma)
        ),
        "emit_clusters": layer_cpu(lambda: clusters.tree_to_text(clusters.nesting_tree(forest))),
        "emit_present": layer_cpu(pres.text),
    }
    if "present json" in case["commands"]:
        layers["emit_present_json"] = layer_cpu(lambda: json.dumps(pres.to_json_dict(), indent=2))
        layers["emit_present_relators"] = layer_cpu(pres.relators_text)
    return {"clusters": len(forest.clusters)}, layers


def topology_layers(case: dict) -> tuple[dict, dict]:
    from branchmono import braid, monodromy, topocheck

    samples = case["args"]["samples"]
    families = [topocheck.WitnessFamily.from_json_dict(doc) for doc in json.loads(Path(case["input"]).read_text())]
    braids = [topocheck.track_braid(w, samples=samples) for w in families]
    pairs = [(braid.braid_action(b), monodromy.monodromy_automorphism(w.forest)) for b, w in zip(braids, families)]
    return {"families": len(families)}, {
        "verify_separation": layer_cpu(lambda: [topocheck.verify_separation(w) for w in families]),
        "verify_cluster_bound": layer_cpu(lambda: [topocheck.verify_cluster_bound(w) for w in families]),
        "track_braid": layer_cpu(lambda: [topocheck.track_braid(w, samples=samples) for w in families]),
        "braid_action": layer_cpu(lambda: [braid.braid_action(b) for b in braids]),
        "is_inner_shift": layer_cpu(lambda: [topocheck.is_inner_shift(a, b) for a, b in pairs]),
    }


LAYERS = {"orbits": orbit_layers, "clusters": cluster_layers, "verify-topology": topology_layers}


def child(spec: str) -> None:
    """One round of a case in this process: its layers, then each of its
    commands through ``cli.main``; prints them as JSON."""
    from branchmono import cli

    case = json.loads(spec)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        info, layers = LAYERS[case["stage"]](case)
        commands = {name: scaled_cpu(lambda: cli.main(argv)) for name, argv in case["commands"].items()}
    print(json.dumps({"info": info, "layers_s": layers, "command_s": commands}))


def input_doc(kind: str, d: int) -> dict:
    if kind == "padic":
        return {"mode": "padic", "p": 2, "points": list(range(d))}
    if kind == "series":
        bits = [[(i >> n) & 1 for n in range(SERIES_BITS)] for i in range(d)]
        return {"mode": "series", "truncation": SERIES_BITS, "points": bits}
    if kind == "zero-matrix":
        return {"mode": "matrix", "matrix": [[0] * d for _ in range(d)]}
    rng = random.Random(f"bench_stages/{d}")  # the seed of the matrices in earlier records
    labels = [[rng.randrange(3) for _ in range(MATRIX_DEPTH)] + [i] for i in range(d)]
    e = [[next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), 0) for b in labels] for a in labels]
    return {"mode": "matrix", "matrix": e}


def pool_families() -> list[dict]:
    """The witness families of perfbench's verify-topology pool."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up by name
    spec.loader.exec_module(workloads)
    return [json.loads(workloads.family_case(i).files["family"]) for i in range(workloads.FAMILY_POOL)]


def cases(stages: tuple[str, ...], tmp: Path) -> list[dict]:
    """Every case of the stages, with its input files written under tmp.
    ``input`` is the file a case's layers read, ``args`` what the case
    records of its parameters."""

    def written(name: str, doc) -> str:
        (tmp / name).write_text(json.dumps(doc))
        return str(tmp / name)

    out = []
    for name, argv in STARTUP.items() if "startup" in stages else ():
        out.append({"stage": "startup", "name": name, "args": {}, "commands": {name: argv}})
    for group, points, max_tuples, fmt in ORBITS if "orbits" in stages else ():
        path = written(f"{group}-{len(points)}.json", {"mode": "padic", "p": P, "points": list(points)})
        argv = ["orbits", "--group", group, "--input", path, "--p", str(P), "--format", fmt]
        out.append({
            "stage": "orbits",
            "name": f"{group} d={len(points)}" + ("" if fmt == "json" else f" {fmt}"),
            "input": path,
            "args": {"group": group, "d": len(points), "max_tuples": max_tuples, "format": fmt},
            "commands": {"orbits": argv + (["--max-tuples", str(max_tuples)] if max_tuples else [])},
        })
    for kind, d in CLUSTERS if "clusters" in stages else ():
        path = written(f"{kind}-{d}.json", input_doc(kind, d))
        commands = {"clusters": ["clusters"], "present": ["present"]}
        if kind == "padic":
            commands.update({"present json": ["present", "--format", "json"],
                             "present relators": ["present", "--format", "relators"]})
        commands = {name: [*argv, "--input", path] for name, argv in commands.items()}
        out.append({"stage": "clusters", "name": f"{kind} d={d}", "input": path, "args": {}, "commands": commands})
    if "verify-topology" in stages:
        families = pool_families()
        pool = written("pool.json", families)
        family = written("family.json", next(f for f in families if len(f["coefficients"]) == 12))
        for samples in SAMPLES:
            argv = ["verify-topology", "--family", family, "--samples", str(samples)]
            out.append({
                "stage": "verify-topology",
                "name": f"verify-topology samples={samples}",
                "input": pool,
                "args": {"samples": samples},
                "commands": {"verify-topology": argv},
            })
    return out


def one_round(case: dict, env: dict[str, str], out: Path, reference: float) -> tuple[dict, dict]:
    """(figure path -> value, other facts) of one round of a case for one
    package: its CHILD if the case has layers, then a LAUNCH per command,
    scaled by the round's ``reference`` seconds."""
    figures, facts = {}, {}
    if case["stage"] in LAYERS:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(case)], env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True
        )
        result = json.loads(proc.stdout)
        facts = result["info"]
        figures.update({("layers_s", name): t for name, t in result["layers_s"].items()})
        figures.update({("commands", name, "command_s"): t for name, t in result["command_s"].items()})
    for name, argv in case["commands"].items():
        cpu, rss, modules = launch(argv, env, out, reference)
        if case["stage"] == "startup":
            figures.update({("cpu_s_p50",): cpu, ("peak_rss_mb",): rss})
            facts["modules"] = modules
        else:
            figures.update({("commands", name, "process_s"): cpu, ("commands", name, "peak_rss_mb"): rss})
    return figures, facts


def measure(case: dict, envs: dict[str, dict[str, str]], out: Path, rounds: int = 0) -> tuple[dict, dict]:
    """(label -> figure path -> one value per round, label -> other facts);
    each round runs one reference process, then every label, in an order
    that flips every round.  The rounds are STARTUP_RUNS for a start-up
    case and REPEATS for the others, or ``rounds`` where that is more."""
    samples: dict[str, dict[tuple, list[float]]] = {label: {} for label in envs}
    facts = {}
    for k in range(max(rounds, STARTUP_RUNS if case["stage"] == "startup" else REPEATS)):
        reference = cpu_seconds([str(REFERENCE)], dict(os.environ))
        for label in list(envs)[:: 1 if k % 2 == 0 else -1]:
            figures, facts[label] = one_round(case, envs[label], out, reference)
            for path, value in figures.items():
                samples[label].setdefault(path, []).append(value)
    return samples, facts


def sig4(x: float) -> float:
    return float(f"{x:.4g}")


def nested(flat: dict[tuple, object]) -> dict:
    out: dict = {}
    for path, value in flat.items():
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return out


def sign_interval(diffs: list[float], level: float = 0.95) -> tuple[list[float] | None, float]:
    """The distribution-free interval for the median of ``diffs`` from the
    sign test, at coverage ``level`` or more, and its coverage.

    With n values sorted, [d_(k), d_(n+1-k)] holds the median with
    probability 1 - 2 P(B <= k - 1) for B ~ Binomial(n, 1/2), whatever the
    distribution; k is the largest for which that is at least ``level``.
    Where no k reaches it (below six values at 95 %, since n values reach
    at most 1 - 2^(1-n)), the interval is None, coverage 0."""
    n = len(diffs)
    k, tail = 0, 0.0  # tail = P(B <= k - 1)
    while 1 - 2 * (tail + math.comb(n, k) / 2**n) >= level:
        tail += math.comb(n, k) / 2**n
        k += 1
    if k == 0:
        return None, 0.0
    ordered = sorted(diffs)
    return [sig4(ordered[k - 1]), sig4(ordered[n - k])], sig4(1 - 2 * tail)


def _differences(a: list[float], b: list[float], level: float) -> tuple[list[float], float, list[float] | None, float]:
    """The round-by-round differences a - b, their median, and the
    median's sign-test interval at ``level`` with the interval's coverage."""
    diffs = [x - y for x, y in zip(a, b)]
    return diffs, sig4(statistics.median(diffs)), *sign_interval(diffs, level)


def paired(a: list[float], b: list[float]) -> dict:
    """The round-by-round differences a - b: their median, its sign-test
    interval (``ci95``) with the interval's coverage, and the rounds in
    which a was lower and higher; a tie counts for neither."""
    diffs, median, interval, coverage = _differences(a, b, 0.95)
    return {
        "diff_p50": median,
        "ci95": interval,
        "coverage": coverage,
        "lower": sum(d < 0 for d in diffs),
        "higher": sum(d > 0 for d in diffs),
    }


def claim_level(claims: int) -> float:
    """The coverage each of ``claims`` claimed figures is reported at:
    1 - 0.05/claims (Bonferroni), so that all of them hold at once with
    probability 95 % or more."""
    return 1 - 0.05 / claims


def claim_rounds(level: float) -> int:
    """The least even number of rounds whose sign-test interval reaches
    ``level``, which n rounds do when 1 - 2^(1-n) >= level."""
    n = 2
    while 1 - 2.0 ** (1 - n) < level:
        n += 2
    return n


def claimed(a: list[float], b: list[float], level: float) -> dict:
    """A claimed figure's round-by-round differences a - b: their median,
    its sign-test ``interval`` at ``level`` with the interval's coverage,
    the rounds, and ``resolved``: "lower" or "higher" where the interval
    excludes 0 on that side, else None."""
    diffs, median, interval, coverage = _differences(a, b, level)
    resolved = None
    if interval and interval[1] < 0:
        resolved = "lower"
    elif interval and interval[0] > 0:
        resolved = "higher"
    return {
        "diff_p50": median,
        "interval": interval,
        "coverage": coverage,
        "level": sig4(level),
        "rounds": len(diffs),
        "resolved": resolved,
    }


def parse_claims(names: list[str], produced: list[str]) -> dict[str, tuple[str, ...]]:
    """CASE:FIGURE names as {name: (case, figure path)}; SystemExit for a
    name without both parts or a case that no selected stage produces."""
    out = {}
    for name in names:
        case, _, figure = name.rpartition(":")
        if not case or not figure:
            raise SystemExit(f"--claim {name!r}: expected CASE:FIGURE, as in '{CLAIM_EXAMPLE}'")
        if case not in produced:
            raise SystemExit(
                f"--claim {name!r}: no selected stage has a case {case!r}; cases: {', '.join(produced)}"
            )
        out[name] = (case, *figure.split("."))
    return out


def merge(doc: dict, results: dict[str, dict], pairs: dict, label: str, claims: dict | None = None) -> None:
    """Record each label's cases in doc, replacing under the label the
    cases measured and keeping its others; the pairs and claims likewise."""
    for name, measured in results.items():
        run = doc.setdefault("runs", {}).setdefault(name, {})
        run.update(
            python=platform.python_version(),
            machine=platform.machine(),
            PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            repeats=REPEATS,
            startup_runs=STARTUP_RUNS,
            layer_calls=LAYER_CALLS,
        )
        run.setdefault("cases", {}).update(measured)
    if pairs:
        doc.setdefault("pairs", {}).setdefault(f"{label} - parent", {}).update(pairs)
    if claims:
        doc.setdefault("claims", {}).setdefault(f"{label} - parent", {}).update(claims)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the branchmono package")
    parser.add_argument(
        "--against", type=Path, help="a second package directory, run alternately with --src and recorded as parent"
    )
    parser.add_argument("--stage", choices=STAGES, help="run this stage only (default: every stage)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file the results merge into")
    parser.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="CASE:FIGURE",
        help=f"a figure this run claims, as in '{CLAIM_EXAMPLE}' (with --against; repeatable)",
    )
    args = parser.parse_args(argv)
    srcs = {args.label: args.src}
    if args.against:
        if args.label == "parent":
            parser.error("--against records its package as parent: choose another --label")
        srcs["parent"] = args.against
    elif args.claim:
        parser.error("--claim needs --against: a claim is a paired difference")
    results: dict[str, dict] = {label: {} for label in srcs}
    pairs, claims = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        selected = cases((args.stage,) if args.stage else STAGES, Path(tmp))
        wanted = parse_claims(args.claim, [case["name"] for case in selected])
        level = claim_level(len(wanted)) if wanted else 0.95
        for name in wanted:
            print(f"{'claim':>8} {name} at coverage {level:.4g}", flush=True)
        envs = {label: source_env(src.resolve()) for label, src in srcs.items()}
        for case in selected:
            claimed_here = {name: path[1:] for name, path in wanted.items() if path[0] == case["name"]}
            rounds = claim_rounds(level) if claimed_here else 0
            samples, facts = measure(case, envs, Path(tmp) / "launch", rounds)
            for label in envs:
                medians = {path: sig4(statistics.median(v)) for path, v in samples[label].items()}
                record = results[label][case["name"]] = {**case["args"], **facts[label], **nested(medians)}
                if case["stage"] == "startup":
                    record["cpu_s"] = [sig4(t) for t in samples[label][("cpu_s_p50",)]]
                print(f"{label:>8} {case['name']:<28}", *(f"{'.'.join(p)} {v}" for p, v in medians.items()), flush=True)
            if args.against:
                diffs = {path: paired(samples[args.label][path], samples["parent"][path]) for path in samples["parent"]}
                for path, d in diffs.items():
                    d["exploratory"] = path not in claimed_here.values()
                pairs[case["name"]] = nested(diffs)
                shown = (
                    f"{'.'.join(p)} {d['diff_p50']:+} {d['ci95']} ({d['lower']}/{d['higher']})"
                    for p, d in diffs.items()
                )
                print(f"{'diff':>8} {case['name']:<28}", *shown, flush=True)
                for name, path in claimed_here.items():
                    if path in diffs:
                        c = claims[name] = claimed(samples[args.label][path], samples["parent"][path], level)
                        shown = f"{c['diff_p50']:+} {c['interval']} ({c['coverage']}): {c['resolved']}"
                        print(f"{'claim':>8} {name} {shown}", flush=True)
    unknown = sorted(set(wanted) - set(claims))
    if unknown:
        raise SystemExit(f"--claim names figures that their cases do not produce: {', '.join(unknown)}")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    merge(doc, results, pairs, args.label, claims)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
