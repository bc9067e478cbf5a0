"""Compare two sets of benchmark results, per workload and metric.

    python3 reachbench/compare.py parent-*.out -- change-*.out

Each file is the stdout of one run.py run.  The table gives each side's
median and the change between them.  Results measured on different machine
kernels (``reachcalc.machine.CORE_BACKEND``) are refused: the compiled kernel
is about 440 times faster than the pure one at length class 12, so such a
comparison measures the build, not the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


class BackendMismatch(ValueError):
    """The two sides ran on different machine kernels."""


def load(path: str) -> dict:
    """The ``detail`` record of one run's stdout."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("detail "):
                return json.loads(line[len("detail "):])
    raise ValueError(f"{path}: no detail line; is it the stdout of run.py?")


def compare(before: list[dict], after: list[dict]) -> list[tuple]:
    """Rows (workload, metric, median before, median after, relative change)."""
    backends = {d["env"]["core_backend"] for d in before + after}
    if len(backends) != 1:
        raise BackendMismatch(f"results come from different kernels: {sorted(backends)}")
    sides = []
    for results in (before, after):
        values = defaultdict(list)
        for d in results:
            for name, value in d["metrics"].items():
                values[(d["workload"], name)].append(value)
            values[(d["workload"], "error_rate")].append(d["error_rate"])
        sides.append(values)
    rows = []
    for key in sorted(sides[0].keys() & sides[1].keys()):
        a, b = (statistics.median(side[key]) for side in sides)
        rows.append((*key, a, b, (b - a) / a if a else float("nan")))
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.stderr.write(__doc__)
        return 2
    cut = argv.index("--")
    try:
        rows = compare([load(p) for p in argv[:cut]], [load(p) for p in argv[cut + 1:]])
    except (BackendMismatch, ValueError) as exc:
        sys.stderr.write(f"compare: {exc}\n")
        return 2
    for workload, metric, a, b, change in rows:
        print(f"{workload:10} {metric:30} {a:12.6g} {b:12.6g} {change:+8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
