"""Start-up cost of each subcommand: CPU time and imported modules of
fresh processes.

Run from the root of a source checkout:

    python benchmarks/bench_startup.py --label change
    python benchmarks/bench_startup.py --label parent --src OTHER_CHECKOUT/src

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


def measure(src: Path, modules_file: Path) -> dict[str, dict]:
    env = dict(source_env(src), BENCH_MODULES=str(modules_file))
    results = {}
    for name, args in COMMANDS.items():
        scaled = []
        for _ in range(RUNS):
            cpu = cpu_seconds(["-c", LAUNCH, *args], env)
            scaled.append(cpu * REFERENCE_S / cpu_seconds([str(REFERENCE)], env))
        results[name] = {
            "cpu_s_p50": round(statistics.median(scaled), 4),
            "modules": modules_file.read_text().split("\n"),
        }
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the branchmono package")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_6.json")
    args = parser.parse_args()
    modules_file = args.out.with_suffix(".modules.tmp")
    try:
        results = measure(args.src.resolve(), modules_file)
    finally:
        modules_file.unlink(missing_ok=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "runs_per_command": RUNS,
        "commands": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, r in results.items():
        print(f"{args.label:>8} {name:<16} {r['cpu_s_p50']:.4f} s  {len(r['modules'])} modules")


if __name__ == "__main__":
    main()
