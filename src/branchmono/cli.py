"""Command-line entry point wiring the full pipeline.

Exit status: 0 on success, 1 on domain errors (machine-readable JSON on
stderr), 2 on usage errors.  Output bytes are deterministic for a fixed
input; no timestamps appear in data output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import Any, Optional, Sequence

from . import __version__
from .clusters import compute_clusters, nesting_tree, tree_to_text
from .errors import BranchMonoError, InvalidInput, MonodromyMismatch, read_json
from .intersection import BranchInput, canonical_order, compute_matrix, is_prime

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


def _cmd_clusters(args: argparse.Namespace) -> int:
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


def _cmd_present(args: argparse.Namespace) -> int:
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


def _cmd_orbits(args: argparse.Namespace) -> int:
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


def _cmd_verify_topology(args: argparse.Namespace) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchmono",
        description="Monodromy and fundamental-group presentations from branch-point intersections",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_clusters = sub.add_parser("clusters", help="compute the cluster forest")
    p_clusters.add_argument("--input", required=True, help="branch input JSON file")
    p_clusters.add_argument("--format", choices=("text", "json"), default="text")
    p_clusters.set_defaults(func=_cmd_clusters)

    p_present = sub.add_parser("present", help="emit the fundamental-group presentation")
    p_present.add_argument("--input", required=True, help="branch input JSON file")
    p_present.add_argument("--format", choices=("text", "json", "relators"), default="text")
    p_present.set_defaults(func=_cmd_present)

    p_orbits = sub.add_parser("orbits", help="moduli degrees of finite-group cover classes")
    p_orbits.add_argument("--group", required=True, help="builtin name (s3, c7, d4, q8, a4) or Cayley JSON path")
    p_orbits.add_argument("--input", required=True, help="branch input JSON file")
    p_orbits.add_argument("--p", type=int, default=None, help="residue characteristic (default: from input)")
    p_orbits.add_argument(
        "--surjective-only",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="restrict to generating tuples (connected covers)",
    )
    p_orbits.add_argument("--max-tuples", type=int, default=None)
    p_orbits.add_argument("--threads", type=int, default=1, help="accepted and ignored; enumeration is serial")
    p_orbits.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_orbits.set_defaults(func=_cmd_orbits)

    p_verify = sub.add_parser("verify-topology", help="separation checks and braid-tracking oracle")
    p_verify.add_argument("--family", required=True, help="witness family JSON file")
    p_verify.add_argument(
        "--samples",
        type=int,
        default=None,
        help="tracker sample count, 16 to 2^20 (default: the family's samples)",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify_topology)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
