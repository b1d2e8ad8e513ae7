"""Benchmark the compiled kernels against the pure-Python fallback.

Run:  python benchmarks/bench_backends.py

Covers the two hot loops: free-word reduction/substitution (monodromy
composition at scale) and Cayley-table class enumeration plus the delta
permutation (the finite-quotient layer).
"""

from __future__ import annotations

import random
import time

from branchmono._kernels import pure

try:
    from branchmono._kernels import _fast
except ImportError:
    _fast = None

from branchmono.quotients import load_group


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_reduce(impl, words):
    def run():
        for w in words:
            impl.reduce_word(w)

    return run


def bench_substitute(impl, images, words):
    def run():
        for w in words:
            impl.substitute(images, w)

    return run


def bench_enumerate(impl, g, d):
    def run():
        impl.product_one_classes_chunk(g.table, g.inverse, d, 0, g.order)

    return run


def bench_delta(impl, g, classes, image_words):
    def run():
        for rep in classes:
            new = tuple(
                impl.evaluate_word(g.table, g.inverse, rep, w) for w in image_words
            )
            impl.canonical_tuple(g.table, g.inverse, new)

    return run


def main() -> None:
    rng = random.Random(17)
    rows = []

    words = [
        [rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(400)]
        for _ in range(500)
    ]
    rows.append(("reduce 500x400-letter words", bench_reduce, (words,)))

    images = [tuple(rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(9)) for _ in range(6)]
    sub_words = [[rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(60)] for _ in range(500)]
    rows.append(("substitute 500x60-letter words", bench_substitute, (images, sub_words)))

    s4 = load_group("s4")
    rows.append(("enumerate S4 product-one 4-tuples", bench_enumerate, (s4, 4)))

    classes = sorted(pure.product_one_classes_chunk(s4.table, s4.inverse, 4, 0, s4.order))
    twist = [(1, 2, 1, -2, -1), (1, 2, -1), (3,), (4,)]
    rows.append(("delta permutation on S4 classes", bench_delta, (s4, classes, twist)))

    print(f"{'task':<36} {'pure':>10} {'cython':>10} {'speedup':>9}")
    for label, factory, args in rows:
        t_pure = timed(factory(pure, *args))
        if _fast is None:
            print(f"{label:<36} {t_pure:>9.4f}s {'n/a':>10} {'n/a':>9}")
            continue
        t_fast = timed(factory(_fast, *args))
        print(
            f"{label:<36} {t_pure:>9.4f}s {t_fast:>9.4f}s {t_pure / t_fast:>8.1f}x"
        )
    if _fast is None:
        print("\ncompiled kernel not built; install with Cython to compare")


if __name__ == "__main__":
    main()
