"""Table 1 — training speed (samples/s) with strong scaling.

For every model the global batch stays fixed while GPUs are added:
1 GPU, 2, 4, 8 on one server, and 8 across two servers.  DP is the
TF-slim-style shared-variable data-parallel baseline; FastT runs the full
workflow (bootstrap, OS-DPOS, activation, rollback).  The last column is
the paper's speed-up metric: FastT over the best DP configuration.
"""

from __future__ import annotations

from conftest import StepTimePins, export_rows, label

from repro.experiments import trial
from repro.experiments.paper_reference import TABLE1_STRONG_SCALING
from repro.experiments.reporting import format_table, speedup_percent
from repro.models import model_names

CONFIGS = [(1, 1), (2, 1), (4, 1), (8, 1), (8, 2)]
PINS = StepTimePins(__file__)


def compute_table1():
    rows = []
    for model in model_names():
        cells = [label(model)]
        dp_speeds = []
        fastt_speeds = []
        for gpus, servers in CONFIGS:
            dp = PINS.check_trial(trial(model, "dp", gpus, servers))
            dp_speed = None if dp.oom else dp.speed
            dp_speeds.append(dp_speed)
            cells.append(dp_speed)
            if gpus > 1:
                ft = PINS.check_trial(trial(model, "fastt", gpus, servers))
                ft_speed = None if ft.oom else ft.speed
                fastt_speeds.append(ft_speed)
                cells.append(ft_speed)
        best_dp = max((s for s in dp_speeds if s), default=float("nan"))
        best_ft = max((s for s in fastt_speeds if s), default=float("nan"))
        measured_speedup = speedup_percent(best_ft, best_dp)
        paper_speedup = TABLE1_STRONG_SCALING[model][2]
        cells.append(measured_speedup)
        cells.append(paper_speedup)
        rows.append(cells)
    return rows


def test_table1_strong_scaling(benchmark):
    rows = benchmark.pedantic(compute_table1, rounds=1, iterations=1)
    PINS.assert_complete()
    headers = [
        "Model", "1GPU DP",
        "2 DP", "2 FastT", "4 DP", "4 FastT", "8 DP", "8 FastT",
        "8/2srv DP", "8/2srv FastT", "Speedup%", "Paper%",
    ]
    print()
    print(format_table(headers, rows, title="Table 1: strong scaling (samples/s)"))
    export_rows("table1", headers, rows)
    # Shape assertions: FastT never loses badly to DP in its best setting.
    for row in rows:
        measured = row[-2]
        assert measured == measured, f"no speedup computed for {row[0]}"
        assert measured > -10.0, (
            f"{row[0]}: FastT more than 10% slower than best DP ({measured:.1f}%)"
        )
