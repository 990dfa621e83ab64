"""File exporters: metrics snapshots to JSON/CSV, tabular breakdowns.

Naming convention (shared with the benchmark harness and CI smoke):

* ``*.trace.json`` — Chrome-trace-format timelines (Perfetto-loadable);
* ``*.metrics.json`` / ``*.metrics.csv`` — flat metric dumps;
* ``*.csv`` — tabular benchmark breakdowns (headers + rows).
"""

from __future__ import annotations

import csv
import json
import os
from typing import Mapping, Optional, Sequence


def ensure_dir(directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return directory


def write_metrics_json(
    path: str,
    metrics: Mapping[str, object],
    extra: Optional[Mapping[str, object]] = None,
) -> str:
    """One flat ``{name: value}`` JSON object (plus optional context keys)."""
    document = dict(extra or {})
    document["metrics"] = {k: metrics[k] for k in sorted(metrics)}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path


def write_metrics_csv(path: str, metrics: Mapping[str, object]) -> str:
    """Two-column ``metric,value`` CSV (spreadsheet-friendly)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "value"])
        for name in sorted(metrics):
            writer.writerow([name, metrics[name]])
    return path


def write_rows_csv(
    path: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Tabular export used by the benchmarks' per-cell breakdowns."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
    return path

