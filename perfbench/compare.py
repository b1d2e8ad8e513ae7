"""Compare two result files written by run.py under .bench_out/.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and their ratio.  Results measured on
different kernel backends, workloads or trace modes are not comparable;
the comparison is refused with exit status 2.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for key in ("kernel_backend", "workload", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    print(f"{base['workload']} on {base['kernel_backend']}: seeds {base['seed']} vs {new['seed']}")
    for name, m in base["metrics"].items():
        old, cur = m["value"], new["metrics"][name]["value"]
        ratio = f"{cur / old:.3f}x" if old else "-"
        print(f"  {name:32s} {old:14.6g} {cur:14.6g} {m['unit']:6s} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
