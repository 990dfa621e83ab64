"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 benchmarks/perf/compare.py A.json B.json

A is the parent, B the change.  Each argument is a file written by
``run.py --out`` (its ``runs``), or ``FILE#SET`` for one set of a
results file (``sets[SET]``).  For every workload with untraced runs in
both, each end-to-end metric gets a verdict from the medians and the
run-to-run spread (quartile distance over median):

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: the spread of A or B exceeds the bound, and neither
  every run of B beats every run of A nor the other way round;
* ``better``: B's median is better by more than A's spread;
* ``unchanged``: none of these.

The workload's row takes the first of worse, unresolved, better that
any of its metrics has, else unchanged.  Exits 1 when a row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def load_runs(spec: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values of the untraced runs in ``spec``."""
    path, _, set_name = spec.partition("#")
    document = json.loads(Path(path).read_text())
    runs = document["sets"][set_name] if set_name else document["runs"]
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if not run["trace"]:
            for name, metric in run["metrics"].items():
                values[run["workload"]][name].append(metric["value"])
    return values


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> tuple:
    """(verdict, relative change of the median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = [sign * v for v in a], [sign * v for v in b]  # now lower is better
    worse_by = (statistics.median(b) - statistics.median(a)) / abs(
        statistics.median(a)
    )
    separated = max(b) < min(a) or min(b) > max(a)
    if worse_by > bound:
        return "worse", worse_by
    if max(spread(a), spread(b)) > bound and not separated:
        return "unresolved", worse_by
    if -worse_by > spread(a):
        return "better", worse_by
    return "unchanged", worse_by


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        rows = []
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = parent[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            result, worse_by = verdict(a, b, metric["better"], metric["bound"])
            rows.append((name, result, worse_by, a, b, metric))
        found = {result for _, result, *_ in rows}
        row = next(
            (v for v in ("worse", "unresolved", "better") if v in found),
            "unchanged",
        )
        regressed |= row == "worse"
        print(f"{workload:<16} {row}")
        for name, result, worse_by, a, b, metric in rows:
            print(
                f"  {name:<12} {result:<10} "
                f"{statistics.median(a):.6g} -> {statistics.median(b):.6g} "
                f"{metric['unit']} ({'+' if worse_by > 0 else ''}"
                f"{worse_by * 100:.2f}% worse, bound {metric['bound'] * 100:g}%, "
                f"spread {spread(a) * 100:.1f}% / {spread(b) * 100:.1f}%, "
                f"n={len(a)}/{len(b)})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
