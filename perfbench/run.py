"""Benchmark of the branchmono CLI: four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-goldens [--workload NAME]

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs building.  With ``--trace 0`` every command is
a fresh ``branchmono`` process (closed loop, one client, one command at a
time, ``--threads 1``) and the end-to-end metrics of ``BENCHMARK.json``
are reported.  With ``--trace 1`` the same commands run in this process,
once untraced and once with spans around each layer, and the per-layer
metrics are reported.  Commands run in rounds of cases drawn from the
seed until ``--seconds`` have passed.  Times are CPU times scaled by a
calibration run of ``reference.py`` after each process (see METRICS.md).

Every output is checked twice: by the workload's checker in
``checks.py`` and against the stdout digest recorded at the baseline in
``goldens.json``.  The last line of stdout is the result as JSON; the same
result, with the run's provenance, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# CPU seconds that reference.py takes on the machine that defined the
# benchmark; scaled times read as seconds on that machine.
REFERENCE_S = 0.2
# The console-script entry point, plus a record of the process's peak RSS
# (VmHWM of its own address space) when it ends.  wait4's ru_maxrss is no
# use here: Linux carries a parent's peak RSS over fork and exec, so it
# would read the benchmark's own memory.
LAUNCH = """\
import os, sys
from branchmono.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
SETUP_SAMPLES = 5
SETUP_PER_ROUND = 2
COMMAND_TIMEOUT = 60.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    peak_kb: int = 0
    reference: float = 0.0


@dataclass
class Verdict:
    ok: bool
    incorrect: bool
    reason: str = ""


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], out: Any, err: Any, hwm: Optional[Path] = None) -> Outcome:
    """Run one process to completion; CPU time from wait4, peak RSS from
    the file ``hwm`` that LAUNCH writes."""
    env = _env(PERFBENCH_HWM=str(hwm)) if hwm else _env()
    if hwm:
        hwm.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(proc.returncode, b"", b"", wall, usage.ru_utime + usage.ru_stime)
    if hwm:
        try:
            outcome.peak_kb = int(hwm.read_text().split()[1])
        except (OSError, IndexError, ValueError) as exc:
            # A process killed by the timeout records nothing; it fails anyway.
            if outcome.exit == 0:
                raise BenchError(f"no peak RSS recorded: {exc}") from exc
    return outcome


def _calibrate(outcome: Outcome) -> Outcome:
    """Record the CPU time of a fresh run of reference.py right after the
    process, which measures the machine's speed at that moment."""
    reference = _spawn([str(REFERENCE)], subprocess.DEVNULL, subprocess.DEVNULL)
    if reference.exit != 0:
        raise BenchError("reference.py failed")
    outcome.reference = reference.cpu
    return outcome


def scaled(outcomes: list[Outcome]) -> list[float]:
    """CPU times as ``cpu * REFERENCE_S / reference``, the reference being
    the median of the calibration runs after the previous, this and the
    next process.  On a shared machine the speed of a CPU second drifts by
    tens of percent over minutes; the ratio does not."""
    refs = [o.reference for o in outcomes]
    return [o.cpu * REFERENCE_S / statistics.median(refs[max(i - 1, 0) : i + 2]) for i, o in enumerate(outcomes)]


def run_command(argv: list[str], scratch: Path) -> Outcome:
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        outcome = _spawn(["-c", LAUNCH, *argv], out, err, scratch / "hwm")
    outcome.stdout = out_path.read_bytes()
    outcome.stderr = err_path.read_bytes()
    return _calibrate(outcome)


def run_in_process(main: Any, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return Outcome(code, out.getvalue().encode(), err.getvalue().encode(), wall, cpu)


def _error_code(stderr: bytes) -> Optional[str]:
    try:
        return json.loads(stderr.decode().strip().splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError, TypeError):
        return None


def judge(case: workloads.Case, outcome: Outcome, goldens: dict[str, Any]) -> Verdict:
    """A command fails on an unexpected exit status, a traceback, or output
    that fails its checks; output that fails a check is also incorrect."""
    golden = goldens.get(case.key)
    if golden is None:
        raise BenchError(f"no golden for {case.workload} case {case.index}; run --record-goldens")
    if b"Traceback (most recent call last)" in outcome.stderr:
        return Verdict(False, False, "traceback")
    if outcome.exit != 0:
        return Verdict(False, False, f"exit {outcome.exit} {_error_code(outcome.stderr)}")
    try:
        checks.CHECKERS[case.workload](outcome.stdout.decode(), case.expect)
    except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, True, f"check: {exc}")
    if golden["stdout"] is not None and hashlib.sha256(outcome.stdout).hexdigest() != golden["stdout"]:
        return Verdict(False, True, "stdout differs from the golden digest")
    return Verdict(True, False)


class Inputs:
    """Writes each case's input files once, under a scratch directory."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self._paths: dict[str, dict[str, str]] = {}

    def argv(self, case: workloads.Case) -> list[str]:
        if case.key not in self._paths:
            paths = {}
            for name, data in case.files.items():
                path = self.scratch / f"{case.workload}-{case.index}-{name}.json"
                path.write_bytes(data)
                paths[name] = str(path)
            self._paths[case.key] = paths
        return case.argv(self._paths[case.key])


def summarize(times: list[float], oks: list[bool]) -> dict[str, float]:
    """Command metrics of one workload run from per-command times.  In
    the median every failure ranks slower than every success; a median
    that lands on a failure reads as the time of all commands."""
    ranked = sorted(t for t, ok in zip(times, oks) if ok) + [float("inf")] * oks.count(False)
    p50 = statistics.median(ranked)
    return {
        "cmd_s_p50": sum(times) if p50 == float("inf") else p50,
        "ok_per_s": oks.count(True) / sum(times),
        "ok_ratio": oks.count(True) / len(oks),
    }


def probe_package() -> str:
    """Warm the bytecode cache, check that the package comes from ``src/``
    and return its kernel backend."""
    probe = subprocess.run(
        [sys.executable, "-c", "import branchmono; print(branchmono.__file__); print(branchmono.kernel_backend)"],
        capture_output=True, env=_env(), cwd=ROOT, timeout=COMMAND_TIMEOUT,
    )
    lines = probe.stdout.decode().splitlines()
    if probe.returncode != 0 or len(lines) != 2 or not Path(lines[0]).resolve().is_relative_to(SRC):
        raise BenchError(f"cannot import branchmono from {SRC}: {probe.stderr.decode()[-300:]}")
    return lines[1]


def time_setup(samples: list[Outcome], count: int, hwm: Path) -> None:
    """Append ``count`` runs of a fresh ``branchmono --version`` process:
    interpreter start plus package import."""
    for _ in range(count):
        outcome = _spawn(["-c", LAUNCH, "--version"], subprocess.DEVNULL, subprocess.DEVNULL, hwm)
        if outcome.exit != 0:
            raise BenchError("branchmono --version failed")
        samples.append(_calibrate(outcome))


def timed_rounds(workload: workloads.Workload, seed: int, seconds: float) -> Iterator[list[workloads.Case]]:
    """Whole rounds of the seeded sequence, as many as end closest to
    ``seconds`` after the first round starts."""
    start = time.perf_counter()
    for done, cases in enumerate(workloads.rounds(workload, seed), start=1):
        yield cases
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 > seconds:
            return


def run_untraced(workload: workloads.Workload, seed: int, seconds: float, scratch: Path,
                 goldens: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    backend = probe_package()
    setup: list[Outcome] = []
    time_setup(setup, SETUP_SAMPLES, scratch / "hwm")
    inputs = Inputs(scratch)
    runs, oks, incorrect, reasons = [], [], 0, {}
    start = time.perf_counter()
    for cases in timed_rounds(workload, seed, seconds):
        for case in cases:
            outcome = run_command(inputs.argv(case), scratch)
            verdict = judge(case, outcome, goldens)
            outcome.stdout = outcome.stderr = b""
            runs.append(outcome)
            oks.append(verdict.ok)
            incorrect += verdict.incorrect
            if not verdict.ok:
                reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
        # Set-up samples spread over the run follow the machine's speed.
        time_setup(setup, SETUP_PER_ROUND, scratch / "hwm")
    metrics = {
        "setup_s": statistics.median(scaled(setup)),
        "peak_rss_mb": max(o.peak_kb for o in runs) / 1024,
        **summarize(scaled(runs), oks),
    }
    info = {"kernel_backend": backend, "attempted": len(oks), "failed": oks.count(False),
            "incorrect": incorrect, "failures": reasons, "wall_s": time.perf_counter() - start,
            "unscaled_p50_s": {"wall": statistics.median(o.wall for o in runs), "cpu": statistics.median(o.cpu for o in runs)}}
    return metrics, info


def run_traced(workload: workloads.Workload, seed: int, seconds: float, scratch: Path,
               goldens: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any], tracing.Tracer]:
    sys.path.insert(0, str(SRC))
    start = time.process_time()
    import branchmono.cli
    import_s = time.process_time() - start
    if not Path(branchmono.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported branchmono from {branchmono.__file__}, not {SRC}")
    main = branchmono.cli.main
    tracer = tracing.Tracer()
    inputs = Inputs(scratch)
    untraced = traced = 0.0
    commands = failed = incorrect = 0
    reasons: dict[str, int] = {}
    start = time.perf_counter()
    for cases in timed_rounds(workload, seed, seconds):
        for case in cases:
            argv = inputs.argv(case)
            tracer.command = commands
            # Alternate which of the two runs goes first, so that warm-up
            # effects cancel in trace.overhead_s.
            for traced_run in (commands % 2 == 1, commands % 2 == 0):
                if traced_run:
                    with tracing.Hooks(tracer):
                        tracer.enter("command")
                        outcome = run_in_process(main, argv)
                        tracer.exit()
                    traced += outcome.cpu
                else:
                    plain = run_in_process(main, argv)
                    untraced += plain.cpu
                    incorrect += judge(case, plain, goldens).incorrect
            commands += 1
            verdict = judge(case, outcome, goldens)
            incorrect += verdict.incorrect
            if not verdict.ok:
                failed += 1
                reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
    self_times = tracer.self_times()
    metrics = {f"{name}_s": self_times.get(name, 0.0) / commands for name in tracing.SPAN_NAMES}
    metrics.update({name: tracer.counts.get(name, 0.0) / commands for name in tracing.COUNTER_NAMES})
    tuples = tracer.counts.get("quotients.tuples", 0.0)
    metrics["quotients.useful_ratio"] = tracer.counts.get("quotients.generating_classes", 0.0) / tuples if tuples else 0.0
    metrics["cli.import_s"] = import_s
    metrics["trace.command_s"] = tracer.total("command") / commands
    metrics["trace.unattributed_s"] = self_times.get("command", 0.0) / commands
    metrics["trace.overhead_s"] = (traced - untraced) / commands
    info = {"kernel_backend": branchmono.kernel_backend, "attempted": commands, "failed": failed,
            "incorrect": incorrect, "failures": reasons, "wall_s": time.perf_counter() - start}
    return metrics, info, tracer


def _commit() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not its own git
    repository (a bare source tree, or one nested in another repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.decode().split("\n")
    if out.returncode != 0 or len(lines) < 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "branchmono").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record_goldens(names: list[str]) -> None:
    """Run every pool case of the named workloads once and pin its exit
    status and stdout digest; other workloads keep their goldens."""
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    goldens = {k: v for k, v in goldens.items() if v["case"].split("/")[0] not in names}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        scratch = Path(tmp)
        inputs = Inputs(scratch)
        for workload in map(workloads.WORKLOADS.get, names):
            for i in range(workload.pool):
                case = workload.make(i)
                outcome = run_command(inputs.argv(case), scratch)
                verdict = judge(case, outcome, {case.key: {"stdout": None}})
                if verdict.incorrect or b"Traceback" in outcome.stderr:
                    raise BenchError(f"{workload.name} case {i}: {verdict.reason}")
                goldens[case.key] = {
                    "case": f"{workload.name}/{i}",
                    "exit": outcome.exit,
                    "error": None if verdict.ok else _error_code(outcome.stderr),
                    "stdout": hashlib.sha256(outcome.stdout).hexdigest() if verdict.ok else None,
                }
                print(f"{workload.name}/{i}: exit {outcome.exit} {outcome.wall:.2f}s", file=sys.stderr)
    GOLDENS.write_text(json.dumps(dict(sorted(goldens.items())), indent=1) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "branchmono" / "cli.py").is_file():
            raise BenchError(f"no package source at {SRC / 'branchmono'}")
        if args.record_goldens:
            record_goldens([args.workload] if args.workload else sorted(workloads.WORKLOADS))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        goldens = json.loads(GOLDENS.read_text())
        workload = workloads.WORKLOADS[args.workload]
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            if args.trace:
                metrics, info, tracer = run_traced(workload, args.seed, args.seconds, Path(tmp), goldens)
            else:
                metrics, info = run_untraced(workload, args.seed, args.seconds, Path(tmp), goldens)
                tracer = None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": info["incorrect"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": info["kernel_backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _commit(), "source_sha256": _source_digest(),
        "wall_s": info["wall_s"], "unscaled_p50_s": info.get("unscaled_p50_s"),
        "failures": info["failures"], **result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(OUT / f"trace-{tag}.json.gz", "wt") as fh:
            json.dump({"fields": ["command", "span", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
