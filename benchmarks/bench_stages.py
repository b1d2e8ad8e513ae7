"""Per-layer cost of `clusters`, `present` and `verify-topology`: the
matrix (or trie) build, canonical order, cluster sweep, monodromy images
and emission, and the circle checks and strand tracker, with the whole
command's CPU time and peak RSS.

Run from the root of a source checkout:

    python benchmarks/bench_stages.py --label change
    python benchmarks/bench_stages.py --label parent --src OTHER_CHECKOUT/src
    python benchmarks/bench_stages.py --label change --stage verify-topology

``--stage`` runs one stage: ``clusters`` (the `clusters` and `present`
cases, most of a full run's time) or ``verify-topology``; by default both
run.  A one-stage run replaces only its own cases under the label.

The inputs are the 2-adic points 0..d-1 for d = 512, 1024 and 2048, whose
cluster tree is the complete binary tree, and at d = 512 the same tree in
series mode: point i is the series of i's binary digits, T = 9.  Three
matrix-mode inputs follow: a seeded random ultrametric at d = 512 and
1024, whose entry for two points is the common prefix length of their
random labels of MATRIX_DEPTH base-3 digits, so its rows come in no
particular order, and the all-zero matrix at d = 1024, the widest split.
Each input runs `clusters` and `present`, both in text form, and the
2-adic inputs run `present` in JSON and relators form too.  The package
under ``--src`` (default: this checkout's ``src``) is imported into this
process, and each layer is timed by calling the public function that the
commands call:

- ``compute_matrix``, ``canonical_order``, ``compute_clusters``: the
  functions of ``intersection`` and ``clusters`` that ``cli._pipeline``
  calls;
- ``monodromy``: ``monodromy.emit_presentation`` (the images of every
  generator);
- ``emit_clusters``: ``nesting_tree`` and ``tree_to_text``;
  ``emit_present``: ``Presentation.text``; at the 2-adic inputs also
  ``emit_present_json``: ``json.dumps`` of ``Presentation.to_json_dict``
  as the command prints it, and ``emit_present_relators``:
  ``Presentation.relators_text``;
- per command, ``command``: ``cli.main`` in this process, stdout to
  devnull; ``process`` and ``peak_rss_mb``: a fresh process's CPU time
  and VmHWM, measured by ``bench_orbits.launched`` as for `orbits`.

`verify-topology` runs on the 64 frozen witness families of perfbench's
`verify-topology` pool (``perfbench/workloads.py``, loaded by path), with
the tracker at 1024, 2^14 and 2^16 samples.  Its layers are
``topocheck.verify_separation``, ``verify_cluster_bound``,
``track_braid``, ``braid.braid_action`` (of each family's tracked braid)
and ``topocheck.is_inner_shift`` (on that action and the cluster twists,
as the oracle calls it), each summed over the 64 families, and its one command is
`verify-topology --samples N` on the first 12-strand family of the pool.

Times are CPU seconds, the median of ``bench_orbits.REPEATS`` runs,
scaled by ``bench_orbits``'s calibration: 0.2 s over the CPU time of the
work of ``perfbench/reference.py`` right after each run, in this process
for a layer and in a fresh process for ``process``.  The results merge
into ``BENCH_15.json`` under the label (``BENCH_11.json`` holds the
`clusters` and `present` stages before and after the trie ingest,
``BENCH_14.json`` the tracker before and after its leaps,
``BENCH_22.json`` the `clusters` stage before and after the split-built
matrix order, and ``BENCH_23.json`` both stages before and after the
monodromy images built as products of per-cluster words).  A JSON case
and a relators case name their command ``present json`` and
``present relators``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import tempfile
from pathlib import Path

from bench_orbits import REPEATS, ROOT, launched, scaled_cpu, source_env

SERIES_BITS = 9
MATRIX_DEPTH = 6

# (input kind, d)
CASES = (
    ("padic", 512),
    ("padic", 1024),
    ("padic", 2048),
    ("series", 512),
    ("matrix", 512),
    ("matrix", 1024),
    ("zero-matrix", 1024),
)
COMMANDS = {"clusters": ["clusters"], "present": ["present"]}
# The other forms of `present`, run at the 2-adic inputs only.
PRESENT_FORMS = {
    "present json": ["present", "--format", "json"],
    "present relators": ["present", "--format", "relators"],
}
# Tracker sample counts of the verify-topology stage.
SAMPLES = (1024, 2**14, 2**16)
STAGES = ("clusters", "verify-topology")


def input_doc(kind: str, d: int) -> dict:
    if kind == "padic":
        return {"mode": "padic", "p": 2, "points": list(range(d))}
    if kind == "series":
        bits = [[(i >> n) & 1 for n in range(SERIES_BITS)] for i in range(d)]
        return {"mode": "series", "truncation": SERIES_BITS, "points": bits}
    if kind == "zero-matrix":
        return {"mode": "matrix", "matrix": [[0] * d for _ in range(d)]}
    rng = random.Random(f"bench_stages/{d}")
    labels = [[rng.randrange(3) for _ in range(MATRIX_DEPTH)] + [i] for i in range(d)]
    e = [[next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), 0) for b in labels] for a in labels]
    return {"mode": "matrix", "matrix": e}


def pool_families() -> list[bytes]:
    """The JSON of the witness families of perfbench's verify-topology pool."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up by name
    spec.loader.exec_module(workloads)
    return [workloads.family_case(i).files["family"] for i in range(workloads.FAMILY_POOL)]


def command_costs(argv: list[str], env: dict[str, str]) -> dict:
    """One command's CPU time in this process and in a fresh one, and the
    fresh process's peak RSS."""
    from branchmono import cli

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        in_process = scaled_cpu(lambda: cli.main(argv))
    with tempfile.TemporaryDirectory() as tmp:
        runs = [launched(argv, env, Path(tmp) / "hwm") for _ in range(REPEATS)]
    return {
        "command_s": round(in_process, 4),
        "process_s": round(statistics.median(cpu for cpu, _ in runs), 4),
        "peak_rss_mb": round(statistics.median(rss for _, rss in runs), 1),
    }


def measure(env: dict[str, str], path: str, forms: bool) -> dict:
    from branchmono import clusters, intersection, monodromy

    binput = intersection.BranchInput.from_json_dict(json.loads(Path(path).read_text()))
    matrix = intersection.compute_matrix(binput)
    sigma, reordered = intersection.canonical_order(matrix)
    forest = clusters.compute_clusters(reordered)
    point_labels = binput.labels
    labels = tuple(point_labels[s - 1] for s in sigma)
    pres = monodromy.emit_presentation(forest, p=binput.p or 0, point_labels=labels, sigma=sigma)
    layers = {
        "compute_matrix": scaled_cpu(lambda: intersection.compute_matrix(binput)),
        "canonical_order": scaled_cpu(lambda: intersection.canonical_order(matrix)),
        "compute_clusters": scaled_cpu(lambda: clusters.compute_clusters(reordered)),
        "monodromy": scaled_cpu(
            lambda: monodromy.emit_presentation(forest, p=binput.p or 0, point_labels=labels, sigma=sigma)
        ),
        "emit_clusters": scaled_cpu(lambda: clusters.tree_to_text(clusters.nesting_tree(forest))),
        "emit_present": scaled_cpu(pres.text),
    }
    commands = dict(COMMANDS)
    if forms:
        layers["emit_present_json"] = scaled_cpu(lambda: json.dumps(pres.to_json_dict(), indent=2))
        layers["emit_present_relators"] = scaled_cpu(pres.relators_text)
        commands.update(PRESENT_FORMS)
    return {
        "clusters": len(forest.clusters),
        "layers_s": {name: round(t, 5) for name, t in layers.items()},
        "commands": {name: command_costs([*argv, "--input", path], env) for name, argv in commands.items()},
    }


def measure_topology(env: dict[str, str], docs: list[bytes], samples: int, path: str) -> dict:
    from branchmono import braid, monodromy, topocheck

    families = [topocheck.WitnessFamily.from_json_dict(json.loads(doc)) for doc in docs]
    braids = [topocheck.track_braid(w, samples=samples) for w in families]
    pairs = [(braid.braid_action(b), monodromy.monodromy_automorphism(w.forest)) for b, w in zip(braids, families)]
    layers = {
        "verify_separation": scaled_cpu(lambda: [topocheck.verify_separation(w) for w in families]),
        "verify_cluster_bound": scaled_cpu(lambda: [topocheck.verify_cluster_bound(w) for w in families]),
        "track_braid": scaled_cpu(lambda: [topocheck.track_braid(w, samples=samples) for w in families]),
        "braid_action": scaled_cpu(lambda: [braid.braid_action(b) for b in braids]),
        "is_inner_shift": scaled_cpu(lambda: [topocheck.is_inner_shift(a, b) for a, b in pairs]),
    }
    argv = ["verify-topology", "--family", path, "--samples", str(samples)]
    return {
        "families": len(families),
        "layers_s": {name: round(t, 5) for name, t in layers.items()},
        "commands": {"verify-topology": command_costs(argv, env)},
    }


def report(label: str, name: str, r: dict) -> None:
    layers = "  ".join(f"{k} {v:.4f}" for k, v in r["layers_s"].items())
    cmds = "  ".join(
        f"{c} {v['command_s']:.3f}/{v['process_s']:.3f} s {v['peak_rss_mb']} MB"
        for c, v in r["commands"].items()
    )
    print(f"{label:>8} {name:<13} {layers}  | {cmds}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the branchmono package")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_15.json")
    parser.add_argument("--stage", choices=STAGES, help="run this stage only (default: every stage)")
    args = parser.parse_args()
    src = args.src.resolve()
    env = source_env(src)
    sys.path.insert(0, str(src))
    stages = (args.stage,) if args.stage else STAGES
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, d in CASES if "clusters" in stages else ():
            path = os.path.join(tmp, f"{kind}-{d}.json")
            with open(path, "w") as out:
                json.dump(input_doc(kind, d), out)
            name = f"{kind} d={d}"
            results[name] = measure(env, path, forms=kind == "padic")
            report(args.label, name, results[name])
        if "verify-topology" in stages:
            docs = pool_families()
            path = os.path.join(tmp, "family.json")
            with open(path, "wb") as out:
                out.write(next(doc for doc in docs if len(json.loads(doc)["coefficients"]) == 12))
            for samples in SAMPLES:
                name = f"verify-topology samples={samples}"
                results[name] = measure_topology(env, docs, samples, path)
                report(args.label, name, results[name])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = doc.setdefault("runs", {})
    previous = runs.get(args.label, {}).get("cases", {}) if args.stage else {}
    runs[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "cases": {**previous, **results},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
