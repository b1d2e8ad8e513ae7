"""Command-line entry point wiring the full pipeline.

Exit status: 0 on success, 1 on domain errors (machine-readable JSON on
stderr), 2 on usage errors.  Output bytes are deterministic for a fixed
input; no timestamps appear in data output.

Each subcommand's options are declared once, in ``COMMANDS``.  A
well-formed command line is read off that table without importing
argparse (``_parse_fast``): argparse, with the gettext and locale it
loads, is about 4 ms of a process's start-up.  argparse builds its parser
from the same table (``build_parser``) and reads every other command
line, so help, usage errors, abbreviations and ``--flag=value`` keep its
bytes.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Optional, Sequence

from . import __version__
from .clusters import compute_clusters, nesting_tree, tree_to_text
from .errors import BranchMonoError, InvalidInput, MonodromyMismatch, read_json
from .intersection import BranchInput, canonical_order, compute_matrix, is_prime

if TYPE_CHECKING:
    import argparse

# The later layers, imported on first use, so that each subcommand loads
# only its own modules: `clusters` stops at the cluster layer, `present`
# adds the monodromy, `orbits` adds only the finite groups, and
# `verify-topology` the braid tracker.  The commands look these names up
# as attributes of this module (``_cli.name``), which resolves them once
# and calls whatever value this module then holds, patched or not.
# No command calls ``monodromy_automorphism``: perfbench's tracer hooks
# it here and needs the name to resolve.
_LAZY = {
    "emit_presentation": "monodromy",
    "monodromy_automorphism": "monodromy",
    "DEFAULT_TUPLE_CAP": "quotients",
    "load_group": "quotients",
    "moduli_report": "quotients",
    "WitnessFamily": "topocheck",
    "check_samples": "topocheck",
    "verify_cluster_bound": "topocheck",
    "verify_monodromy_oracle": "topocheck",
    "verify_separation": "topocheck",
}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


def _emit_json(obj: Any) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _pipeline(path: str):
    """input file -> (BranchInput, sigma, forest)."""
    binput = BranchInput.from_json_dict(read_json(path))
    matrix = compute_matrix(binput)
    sigma, reordered = canonical_order(matrix)
    forest = compute_clusters(reordered)
    return binput, sigma, forest


def _cmd_clusters(args: Any) -> int:
    _, sigma, forest = _pipeline(args.input)
    if args.format == "json":
        _emit_json(
            {
                "schema": "branchmono/1",
                "kind": "clusters",
                "d": forest.d,
                "sigma": list(sigma),
                "clusters": forest.to_json_list(),
            }
        )
    else:
        print(f"d = {forest.d}")
        print("sigma = [" + ", ".join(str(s) for s in sigma) + "]")
        if forest.clusters:
            print(tree_to_text(nesting_tree(forest)))
        else:
            print("(no clusters)")
    return 0


def _cmd_present(args: Any) -> int:
    binput, sigma, forest = _pipeline(args.input)
    labels = binput.labels
    pres = _cli.emit_presentation(
        forest, p=binput.p or 0, point_labels=[labels[s - 1] for s in sigma], sigma=sigma
    )
    if args.format == "json":
        _emit_json(pres.to_json_dict())
    elif args.format == "relators":
        sys.stdout.write(pres.relators_text())
    else:
        sys.stdout.write(pres.text())
    return 0


def _cmd_orbits(args: Any) -> int:
    group = _cli.load_group(args.group)
    binput, _, forest = _pipeline(args.input)
    p = args.p if args.p is not None else (binput.p or 0)
    if p != 0 and not is_prime(p):
        raise InvalidInput(f"--p must be 0 or a prime, got {p}")
    report = _cli.moduli_report(
        group,
        forest,
        p=p,
        surjective_only=args.surjective_only,
        cap=_cli.DEFAULT_TUPLE_CAP if args.max_tuples is None else args.max_tuples,
    )
    if args.format == "csv":
        report.write_csv(sys.stdout)
    elif args.format == "json":
        report.write_json(sys.stdout)
    else:
        print(f"group {report.group_name} (order {report.group_order}), d = {report.d}, p = {report.p}")
        print(f"classes: {report.class_count} (surjective_only = {report.surjective_only})")
        print(f"exponent of G/Z(G): {report.exponent}")
        print(f"max moduli degree: {report.max_degree}")
        verdict = "all degrees divide" if report.all_divide else "DIVISIBILITY VIOLATED"
        print(f"verdict: {verdict} {report.exponent}")
    return 0


def _cmd_verify_topology(args: Any) -> int:
    if args.samples is not None:
        _cli.check_samples(args.samples, "--samples")
    family = _cli.WitnessFamily.from_json_dict(read_json(args.family))
    separation = _cli.verify_separation(family)
    bound = _cli.verify_cluster_bound(family)
    oracle = _cli.verify_monodromy_oracle(family, samples=args.samples)
    if args.format == "json":
        _emit_json(
            {
                "schema": "branchmono/1",
                "kind": "verify-topology",
                "separation": separation.to_json_dict(),
                "cluster_bound": bound.to_json_dict(),
                "oracle": oracle.to_json_dict(),
            }
        )
    else:
        print(f"separation: {'pass' if separation.passed else 'fail'} ({len(separation.records)} checks)")
        print(f"cluster bound: {'pass' if bound.passed else 'fail'} ({len(bound.records)} checks)")
        print(f"tracked braid: {oracle.braid}")
        agreement = "exact" if oracle.exact else (
            f"up to inner automorphism by {oracle.conjugator}" if oracle.consistent else "INCONSISTENT"
        )
        print(f"monodromy agreement: {agreement}")
    if not oracle.consistent:
        # The report above stays on stdout; the error code goes to stderr.
        raise MonodromyMismatch(
            "the tracked braid does not act as the cluster twists, "
            "not even up to an inner automorphism"
        )
    return 0


# The subcommands: each one's help, its handler and its options in the
# order of its --help, each option as (flag, keyword arguments of
# ``add_argument``).  ``build_parser`` builds argparse's parser from this
# table and ``_parse_fast`` reads the same table.  BOOLEAN stands for
# ``argparse.BooleanOptionalAction``, which the table cannot name without
# importing argparse.
BOOLEAN = "boolean"
COMMANDS = {
    "clusters": (
        "compute the cluster forest",
        _cmd_clusters,
        (
            ("--input", {"required": True, "help": "branch input JSON file"}),
            ("--format", {"choices": ("text", "json"), "default": "text"}),
        ),
    ),
    "present": (
        "emit the fundamental-group presentation",
        _cmd_present,
        (
            ("--input", {"required": True, "help": "branch input JSON file"}),
            ("--format", {"choices": ("text", "json", "relators"), "default": "text"}),
        ),
    ),
    "orbits": (
        "moduli degrees of finite-group cover classes",
        _cmd_orbits,
        (
            ("--group", {"required": True, "help": "builtin name (s3, c7, d4, q8, a4) or Cayley JSON path"}),
            ("--input", {"required": True, "help": "branch input JSON file"}),
            ("--p", {"type": int, "default": None, "help": "residue characteristic (default: from input)"}),
            (
                "--surjective-only",
                {"action": BOOLEAN, "default": True, "help": "restrict to generating tuples (connected covers)"},
            ),
            ("--max-tuples", {"type": int, "default": None}),
            ("--threads", {"type": int, "default": 1, "help": "accepted and ignored; enumeration is serial"}),
            ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
        ),
    ),
    "verify-topology": (
        "separation checks and braid-tracking oracle",
        _cmd_verify_topology,
        (
            ("--family", {"required": True, "help": "witness family JSON file"}),
            (
                "--samples",
                {
                    "type": int,
                    "default": None,
                    "help": "tracker sample count, 16 to 2^20 (default: the family's samples)",
                },
            ),
            ("--format", {"choices": ("text", "json"), "default": "text"}),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, for help, usage errors and any command line that
    ``_parse_fast`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="branchmono",
        description="Monodromy and fundamental-group presentations from branch-point intersections",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            if kwargs.get("action") == BOOLEAN:
                kwargs = {**kwargs, "action": argparse.BooleanOptionalAction}
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse_fast(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for ``argv``, read off ``COMMANDS``
    without argparse, or None where this reading might differ from
    argparse's: then ``main`` asks argparse, for its namespace, its help
    or its usage error.

    Read here: a subcommand, then exact long flags of it, each followed by
    a value that does not start with '-' (or, for a switch, alone),
    values that convert and lie among their choices, and every required
    flag given.  A repeated flag keeps its last value, as argparse's
    ``store`` does.  Anything else declines: a prefix, ``--flag=value``,
    ``-h``, ``--``, a missing value, or a value that starts with '-'
    (argparse reads ``-7`` as a number and ``-x`` as an error).

    ``["--version"]`` alone prints the version line and exits 0, as
    argparse's version action does (which would also wrap that line in a
    terminal narrower than 18 columns).
    """
    if argv == ["--version"]:
        sys.stdout.write(f"branchmono {__version__}\n")
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    values = {_dest(flag): kwargs.get("default") for flag, kwargs in options}
    # token -> (dest, the option's keyword arguments, or a switch's value)
    flags: dict[str, tuple[str, Any]] = {}
    for flag, kwargs in options:
        if kwargs.get("action") == BOOLEAN:
            flags[flag], flags["--no-" + flag[2:]] = (_dest(flag), True), (_dest(flag), False)
        else:
            flags[flag] = (_dest(flag), kwargs)
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        dest, kwargs = flags[token]
        if isinstance(kwargs, bool):
            values[dest] = kwargs
            continue
        value = next(tokens, "-")  # a missing value declines as a flag would
        if value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if any(kwargs.get("required") and values[_dest(flag)] is None for flag, kwargs in options):
        return None
    return SimpleNamespace(command=argv[0], **values, func=func)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_fast(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BranchMonoError as exc:
        sys.stderr.write(json.dumps(exc.to_json_dict()) + "\n")
        return 1
    except BrokenPipeError:
        # The reader closed stdout (`... | head -1`).  As the signal module's
        # documentation advises, point stdout at devnull so that the flush
        # at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
