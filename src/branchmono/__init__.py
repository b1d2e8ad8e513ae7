"""Monodromy and prime-to-p fundamental-group presentations from the
intersection behavior of branch points, verified by finite-quotient brute
force and a braid-tracking oracle.

The public names below are imported from their submodules on first
access (PEP 562), so ``import branchmono`` loads no layer, and a program
that uses one layer loads only the modules that layer needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "braid": ("BraidWord", "braid_action", "lambda_braid"),
    "clusters": ("Cluster", "ClusterForest", "compute_clusters", "nesting_tree"),
    "freegroup": ("FreeAutomorphism", "FreeWord", "compose", "inner", "is_inner_shift"),
    "intersection": ("BranchInput", "IntersectionMatrix", "canonical_order", "compute_matrix"),
    "monodromy": ("Presentation", "emit_presentation", "monodromy_automorphism"),
    "quotients": (
        "FiniteGroup",
        "center_and_exponent",
        "delta_on_class",
        "enumerate_classes",
        "load_group",
        "moduli_report",
    ),
    "topocheck": (
        "WitnessFamily",
        "track_braid",
        "verify_cluster_bound",
        "verify_monodromy_oracle",
        "verify_separation",
    ),
}
# name -> (submodule, attribute)
_SOURCE = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
kernel_backend = "pure"  # the only implementation of the kernels: plain Python

__all__ = sorted(_SOURCE) + ["__version__", "kernel_backend"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SOURCE[name]
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
