"""Start-up cost of each subcommand: CPU time and imported modules of
fresh processes.

Run from the root of a source checkout:

    python benchmarks/bench_startup.py --label change
    python benchmarks/bench_startup.py --label parent --src OTHER_CHECKOUT/src
    python benchmarks/bench_startup.py --label change --against OTHER_CHECKOUT/src

Each of ``--version``, ``clusters``, ``present``, ``orbits`` and
``verify-topology`` runs on a small fixed input from ``tests/data`` as
RUNS fresh processes of the package under ``--src`` (default: this
checkout's ``src``), in the caller's environment, so a setting such as
PYTHONDONTWRITEBYTECODE applies as it does to any user.  A process's CPU
time (user plus system, from wait4) is scaled as perfbench scales it: by
0.2 s over the CPU time of a fresh run of ``perfbench/reference.py`` right
after it, which measures the machine's speed at that moment.  For each
command the script records the median scaled time and the sorted list of
``branchmono`` modules the process imported, and merges them into
``BENCH_6.json`` under the label.

With ``--against``, the package there (recorded under ``parent``) runs
in the same invocation:
each of the RUNS rounds runs one process of each package, in an order
that flips every round, so both see the same drift of the machine.  The
paired differences (label minus parent) are recorded under
``pairs``: their median per command and the number of rounds the label's
process was the faster, which resolve a start-up change of a few ms that
two separate invocations cannot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path

from bench_orbits import REFERENCE, REFERENCE_S, ROOT, cpu_seconds, source_env

DATA = ROOT / "tests" / "data"
RUNS = 15

COMMANDS = {
    "--version": ["--version"],
    "clusters": ["clusters", "--input", str(DATA / "example2_p3_m1.json")],
    "present": ["present", "--input", str(DATA / "example2_p3_m1.json")],
    "orbits": ["orbits", "--group", "s3", "--input", str(DATA / "example2_p3_m1.json"), "--p", "5"],
    "verify-topology": ["verify-topology", "--family", str(DATA / "family_3pt.json")],
}

# The CLI as its console script runs it, then the package modules it
# imported, written to the file named by BENCH_MODULES.
LAUNCH = """\
import os, sys
from branchmono.cli import main
try:
    code = main()
except SystemExit as exc:
    code = exc.code
with open(os.environ["BENCH_MODULES"], "w") as out:
    out.write("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "branchmono")))
sys.exit(code)
"""


def measure(srcs: dict[str, Path], modules_file: Path) -> dict[str, dict[str, dict]]:
    """label -> command -> result, for one package per label; with two,
    their processes alternate within each round."""
    envs = {label: dict(source_env(src), BENCH_MODULES=str(modules_file)) for label, src in srcs.items()}
    results: dict[str, dict[str, dict]] = {label: {} for label in srcs}
    for name, args in COMMANDS.items():
        scaled: dict[str, list[float]] = {label: [] for label in srcs}
        modules: dict[str, list[str]] = {}
        for k in range(RUNS):
            for label in list(srcs)[:: 1 if k % 2 == 0 else -1]:
                cpu = cpu_seconds(["-c", LAUNCH, *args], envs[label])
                scaled[label].append(cpu * REFERENCE_S / cpu_seconds([str(REFERENCE)], envs[label]))
                modules[label] = modules_file.read_text().split("\n")
        for label in srcs:
            results[label][name] = {
                "cpu_s_p50": round(statistics.median(scaled[label]), 4),
                "modules": modules[label],
                "cpu_s": [round(t, 4) for t in scaled[label]],
            }
    return results


def pairs(results: dict[str, dict[str, dict]], label: str) -> dict[str, dict]:
    """Per command: the median of the round-by-round differences, label
    minus parent, and the rounds in which label was the faster."""
    out = {}
    for name in COMMANDS:
        diffs = [a - b for a, b in zip(results[label][name]["cpu_s"], results["parent"][name]["cpu_s"])]
        out[name] = {"diff_s_p50": round(statistics.median(diffs), 4), "faster": sum(d < 0 for d in diffs)}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the branchmono package")
    parser.add_argument("--against", type=Path, help="a second package directory, run interleaved with --src and recorded as parent")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_6.json")
    args = parser.parse_args()
    srcs = {args.label: args.src.resolve()}
    if args.against:
        srcs["parent"] = args.against.resolve()
    modules_file = args.out.with_suffix(".modules.tmp")
    try:
        results = measure(srcs, modules_file)
    finally:
        modules_file.unlink(missing_ok=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, commands in results.items():
        doc.setdefault("runs", {})[label] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            "runs_per_command": RUNS,
            "commands": commands,
        }
        for name, r in commands.items():
            print(f"{label:>8} {name:<16} {r['cpu_s_p50']:.4f} s  {len(r['modules'])} modules")
    if args.against:
        paired = pairs(results, args.label)
        doc.setdefault("pairs", {})[f"{args.label} - parent"] = paired
        for name, r in paired.items():
            print(f"{'diff':>8} {name:<16} {r['diff_s_p50']:+.4f} s  faster in {r['faster']}/{RUNS}")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
