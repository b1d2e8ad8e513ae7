"""Kernel backend selection.

The compiled Cython kernels are used when available; setting the
environment variable ``BRANCHMONO_PURE=1`` forces the pure-Python ones
(useful for benchmarking and debugging).  Both expose the same functions.
The class enumeration is always the pure orderly generator, which beats
the compiled exhaustive walk; the compiled one is kept as a test reference.
"""

from __future__ import annotations

import os

from . import pure

if os.environ.get("BRANCHMONO_PURE"):
    _impl = pure
else:
    try:
        from . import _fast as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pure

BACKEND: str = _impl.BACKEND
reduce_word = _impl.reduce_word
substitute = _impl.substitute
evaluate_word = _impl.evaluate_word
canonical_tuple = _impl.canonical_tuple
product_one_classes_chunk = pure.product_one_classes_chunk

__all__ = [
    "BACKEND",
    "pure",
    "reduce_word",
    "substitute",
    "evaluate_word",
    "canonical_tuple",
    "product_one_classes_chunk",
]
