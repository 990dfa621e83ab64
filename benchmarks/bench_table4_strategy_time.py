"""Table 4 — time to run Alg. 2 (OS-DPOS) per model and GPU count.

This is the benchmark whose *wall-clock* is itself the headline metric:
the paper's point is that FastT computes strategies in seconds-to-minutes
on the training node, versus hours on a dedicated cluster for RL
approaches.  We report both the pure algorithm time (DPOS/OS-DPOS wall
time) and the total search time including simulated profiling steps and
checkpoint/restart overhead, which is what the paper's numbers contain
("the strategies are computed through real model training").
"""

from __future__ import annotations

from conftest import export_rows, label

from repro.experiments import run_fastt_trial
from repro.experiments.paper_reference import TABLE4_STRATEGY_TIME
from repro.experiments.reporting import format_table
from repro.models import get_model, model_names

GPU_COUNTS = (2, 4, 8)


def compute_table4():
    # Wall-clock is this table's metric, so every trial runs fresh: a
    # trial-cache hit would report the timing of whatever code wrote it.
    rows = []
    for model in model_names():
        cells = [label(model)]
        spec = get_model(model, preset="bench")
        for gpus in GPU_COUNTS:
            result = run_fastt_trial(spec, gpus, 1, spec.global_batch)
            cells.append(result.algorithm_seconds)
            cells.append(result.search_seconds)
        for paper_value in TABLE4_STRATEGY_TIME[model]:
            cells.append(paper_value)
        rows.append(cells)
    return rows


def test_table4_strategy_calculation_time(benchmark):
    rows = benchmark.pedantic(compute_table4, rounds=1, iterations=1)
    headers = [
        "Model",
        "2GPU alg", "2GPU total",
        "4GPU alg", "4GPU total",
        "8GPU alg", "8GPU total",
        "paper 2", "paper 4", "paper 8",
    ]
    print()
    print(
        format_table(
            headers, rows, title="Table 4: strategy computation time (s)"
        )
    )
    export_rows("table4", headers, rows)
    by_model = {row[0]: row for row in rows}
    # Shape: cost grows with the device count, and LeNet (the smallest
    # graph) is among the cheapest models to compute strategies for.
    for row in rows:
        assert row[5] >= row[1] * 0.2, (
            f"{row[0]}: 8-GPU search unexpectedly cheaper than 2-GPU"
        )
    lenet_total = by_model["LeNet"][2]
    heavy_total = max(by_model["Transformer"][2], by_model["Bert-large"][2])
    assert lenet_total <= heavy_total, "LeNet should be cheaper than the giants"
