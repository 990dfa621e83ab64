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

import time

from conftest import export_rows, label

from repro.cluster import cluster_for
from repro.core import DPOS, OSDPOS, SearchOptions
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.experiments import run_fastt_trial
from repro.experiments.paper_reference import TABLE4_STRATEGY_TIME
from repro.experiments.reporting import format_table
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model, model_names

GPU_COUNTS = (2, 4, 8)

# Head-to-head of the incremental search engine against the retained
# naive reference path (graph.copy() per candidate).  The big graphs are
# where sublinear candidate evaluation pays off; the floor is set well
# under the typical 5-7x so timer noise on loaded CI boxes cannot flake
# the benchmark.
SEARCH_ENGINE_MODELS = ("transformer", "bert_large")
SEARCH_ENGINE_GPUS = 8
SEARCH_ENGINE_MIN_SPEEDUP = 3.0


def _timed_search(model_name, num_gpus, **kwargs):
    topo = cluster_for(num_gpus)
    perf = PerfModel(topo)
    dpos = DPOS(topo, OracleComputationModel(perf), OracleCommunicationModel(perf))
    model = get_model(model_name, preset="bench")
    graph = build_single_device_training_graph(
        model.builder, model.global_batch, name=f"{model_name}_bench"
    )
    search = OSDPOS(
        dpos, options=SearchOptions(max_candidate_ops=4, **kwargs)
    )
    start = time.perf_counter()
    result = search.run(graph)
    return time.perf_counter() - start, result


def compute_search_engine_rows():
    rows = []
    for model in SEARCH_ENGINE_MODELS:
        naive_s, naive = _timed_search(
            model, SEARCH_ENGINE_GPUS, naive=True
        )
        fast_s, fast = _timed_search(model, SEARCH_ENGINE_GPUS)
        assert fast.strategy.placement == naive.strategy.placement
        assert fast.strategy.order == naive.strategy.order
        assert fast.strategy.split_list == naive.strategy.split_list
        assert fast.finish_time == naive.finish_time
        rows.append(
            [
                label(model),
                naive_s,
                fast_s,
                naive_s / fast_s,
                naive.candidates_evaluated,
                fast.candidates_evaluated,
                fast.candidates_pruned,
            ]
        )
    return rows


def test_search_engine_speedup(benchmark):
    rows = benchmark.pedantic(compute_search_engine_rows, rounds=1, iterations=1)
    headers = [
        "Model",
        "naive (s)", "incr (s)", "speedup",
        "naive eval", "incr eval", "pruned",
    ]
    print()
    print(
        format_table(
            headers,
            rows,
            title=(
                f"Strategy-search engine: naive vs incremental OS-DPOS "
                f"({SEARCH_ENGINE_GPUS} GPUs)"
            ),
        )
    )
    export_rows("table4_search_engine", headers, rows)
    for row in rows:
        assert row[3] >= SEARCH_ENGINE_MIN_SPEEDUP, (
            f"{row[0]}: incremental search only {row[3]:.2f}x faster than "
            f"naive (floor {SEARCH_ENGINE_MIN_SPEEDUP}x)"
        )
        assert row[5] + row[6] == row[4], (
            f"{row[0]}: evaluated+pruned must account for every naive candidate"
        )


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
