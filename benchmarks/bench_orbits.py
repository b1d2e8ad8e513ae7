"""Per-layer cost of `orbits`: group load, enumeration plus generation
filter, delta permutation, the report around it, JSON emission, and the
whole command.

Run from the root of a source checkout:

    python benchmarks/bench_orbits.py --label change
    python benchmarks/bench_orbits.py --label parent --src OTHER_CHECKOUT/src

Each case is `orbits --group G --p 7 --format json` on fixed 7-adic
points: the first five inputs of perfbench's `orbits` pool (one per
group), then A5 and S5 at d = 4, the order-200 dihedral group `d100` at
d = 3, and A5 at d = 5 with `--max-tuples 100000000` (60^4 tuples are
past the default cap), once more with `--format csv`.  The package under
``--src`` (default: this checkout's ``src``) is imported into this
process, and each layer of a JSON case is timed by calling the public
function that the command calls:

- ``load_group``: ``quotients.load_group``;
- ``enumerate``: ``quotients.enumerate_classes`` with the generation filter;
- ``delta``: ``quotients.delta_on_class`` on every class, given the
  automorphism's ``conjugation_form`` derived once, as ``moduli_report``
  gives it;
- ``report``: ``quotients.moduli_report`` with
  ``quotients.enumerate_classes`` replaced, during the timed calls only,
  by a function that returns the classes already enumerated: delta on
  every class, the lookup of each image among the classes and the cycle
  walk that reads the degrees;
- ``emit``: ``OrbitReport.write_json``, as the command writes the report
  to stdout, here to devnull;
- ``command``: ``cli.main`` in this process, stdout to devnull;
- ``process``: a fresh ``python -c`` process calling ``cli.main``, which
  adds interpreter start-up and imports (user plus system CPU, from
  wait4), and ``peak_rss_mb``, that process's own VmHWM, read from
  /proc/self/status as it exits (as perfbench's ``LAUNCH`` does; wait4's
  ru_maxrss would carry this process's peak over fork and exec).

A case in another format times only ``command`` and ``process``: its
layers up to the report are those of the JSON case.

Times are CPU seconds, the median of REPEATS runs, each scaled by 0.2 s
over the CPU time of the calibration work of ``perfbench/reference.py``
right after it, which measures the machine's speed at that moment.  A
``process`` run is scaled as perfbench scales it, by a fresh process of
``reference.py`` (interpreter start-up included); an in-process layer by
``reference.work()`` in this process, so the two kinds of figure are not
in the same unit.  The results merge into ``BENCH_18.json`` under the
label (``BENCH_7.json`` holds the first five cases before and after the
table-lookup path, ``BENCH_16.json`` before and after the ordered walk,
``BENCH_17.json`` before and after the cut-back orbits layer).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.py"
sys.path.append(str(REFERENCE.parent))
import reference  # noqa: E402
REFERENCE_S = 0.2  # as perfbench/run.py
REPEATS = 5
P = 7

# (group, 7-adic points, --max-tuples or None for the default cap,
# --format); the first five are perfbench's orbits pool cases 0-4.
CASES = (
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

# Runs one command, then writes its VmHWM line to the file BENCH_HWM names.
LAUNCH = """\
import os, sys
from branchmono.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["BENCH_HWM"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
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


def scaled_cpu(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        fn()
        mid = time.process_time()
        reference.work()
        times.append((mid - start) * REFERENCE_S / (time.process_time() - mid))
    return statistics.median(times)


def launched(argv: list[str], env: dict[str, str], hwm: Path) -> tuple[float, float]:
    """(scaled process CPU seconds, peak RSS in MB) of one fresh LAUNCH
    process."""
    cpu = cpu_seconds(["-c", LAUNCH, *argv], {**env, "BENCH_HWM": str(hwm)})
    rss_mb = int(hwm.read_text().split()[1]) / 1024
    return cpu * REFERENCE_S / cpu_seconds([str(REFERENCE)], env), rss_mb


def measure(env: dict[str, str], group: str, points: tuple[int, ...], max_tuples, fmt: str, path: str) -> dict:
    from branchmono import cli, quotients

    argv = ["orbits", "--group", group, "--input", path, "--p", str(P), "--format", fmt]
    cap = quotients.DEFAULT_TUPLE_CAP
    if max_tuples is not None:
        argv += ["--max-tuples", str(max_tuples)]
        cap = max_tuples

    g = quotients.load_group(group)
    forest = cli._pipeline(path)[-1]
    aut = cli.monodromy_automorphism(forest)
    classes = quotients.enumerate_classes(g, aut.d, surjective_only=True, cap=cap)
    report = quotients.moduli_report(g, aut, p=P, cap=cap)
    form = quotients.conjugation_form(aut)
    with open(os.devnull, "w") as devnull:
        with contextlib.redirect_stdout(devnull):
            if fmt == "json":
                with mock.patch.object(quotients, "enumerate_classes", lambda *args, **kwargs: classes):
                    report_s = scaled_cpu(lambda: quotients.moduli_report(g, aut, p=P, cap=cap))
                layers = {
                    "load_group": scaled_cpu(lambda: quotients.load_group(group)),
                    "enumerate": scaled_cpu(
                        lambda: quotients.enumerate_classes(g, aut.d, surjective_only=True, cap=cap)
                    ),
                    "delta": scaled_cpu(lambda: [quotients.delta_on_class(c, aut, g, form=form) for c in classes]),
                    "report": report_s,
                    "emit": scaled_cpu(lambda: report.write_json(devnull)),
                }
            else:
                layers = {}
            layers["command"] = scaled_cpu(lambda: cli.main(argv))
    with tempfile.TemporaryDirectory() as tmp:
        runs = [launched(argv, env, Path(tmp) / "hwm") for _ in range(REPEATS)]
    return {
        "group": group,
        "d": len(points),
        "max_tuples": max_tuples,
        "format": fmt,
        "classes": report.class_count,
        "layers_s": {name: round(t, 5) for name, t in layers.items()},
        "process_s": round(statistics.median(cpu for cpu, _ in runs), 4),
        "peak_rss_mb": round(statistics.median(rss for _, rss in runs), 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the branchmono package")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_18.json")
    args = parser.parse_args()
    src = args.src.resolve()
    env = source_env(src)
    sys.path.insert(0, str(src))
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group, points, max_tuples, fmt in CASES:
            path = os.path.join(tmp, f"{group}-{len(points)}.json")
            with open(path, "w") as out:
                json.dump({"mode": "padic", "p": P, "points": list(points)}, out)
            name = f"{group} d={len(points)}" + ("" if fmt == "json" else f" {fmt}")
            results[name] = r = measure(env, group, points, max_tuples, fmt, path)
            layers = "  ".join(f"{k} {v * 1000:.2f} ms" for k, v in r["layers_s"].items())
            print(
                f"{args.label:>8} {name:<10} {r['classes']:>7} classes  {layers}  "
                f"process {r['process_s']:.4f} s {r['peak_rss_mb']} MB",
                flush=True,
            )
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "cases": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
