"""Scale gate — optimize+simulate a ~100k-op graph end to end.

The hierarchical search (``SearchOptions(coarsen=...)``) and the
event-heap simulator exist so transformer-scale graphs stop being
quadratic walls.  This benchmark pins that property: a synthetic
9100-layer MLP training graph (≥100k ops — well past the
``coarsen_threshold`` auto trigger) must run through the full FastT
workflow (profiling, coarse OS-DPOS, final measured simulation) inside
a hard wall-clock budget, and land on the pinned simulated step time
(:data:`STEP_TIME_PIN`): a faster path must not change a single
simulated number.

The budget defaults to 30 s and can be tuned via ``REPRO_SCALE_BUDGET``
(seconds) for slow CI hosts.
"""

from __future__ import annotations

import os
import time

from conftest import export_rows

import repro
from repro.core.calculator import FastTConfig
from repro.core.os_dpos import SearchOptions
from repro.models.layers import LayerHelper

#: 9100 dense+relu layers x 11 training-graph ops/layer = 100103 ops.
NUM_LAYERS = 9100
HIDDEN = 64
#: Below the device count, so the session skips the infeasible
#: data-parallel replication and optimizes the model-parallel graph.
GLOBAL_BATCH = 2
MIN_OPS = 100_000
#: ``repr`` of the simulated step time this trial measures; every
#: simulator, cost-model and search change must reproduce it exactly.
STEP_TIME_PIN = "0.4936614143871475"


def _budget_seconds() -> float:
    return float(os.environ.get("REPRO_SCALE_BUDGET", "30"))


def build_deep_mlp(graph, prefix, batch):
    """A deep, skinny MLP: the op count is the point, not the model."""
    net = LayerHelper(graph, prefix)
    x = net.placeholder("x", (batch, HIDDEN))
    for i in range(NUM_LAYERS):
        x = net.dense(x, f"fc{i}", HIDDEN, relu=True)
    return net.softmax_loss(x)


def run_scale_trial():
    start = time.perf_counter()
    result = repro.optimize(
        build_deep_mlp,
        "pcie:4",
        global_batch=GLOBAL_BATCH,
        config=FastTConfig(
            profiling_steps=1,
            max_rounds=1,
            min_rounds=1,
            measure_steps=1,
            search=SearchOptions(
                coarsen="auto",  # 100k ops >> threshold: coarse path
                max_candidate_ops=2,
                split_counts=[2],
            ),
        ),
        model_name="deep_mlp_100k",
    )
    wall = time.perf_counter() - start
    return result, wall


def test_scale_100k(benchmark):
    result, wall = benchmark.pedantic(run_scale_trial, rounds=1, iterations=1)
    num_ops = result.graph.num_ops
    budget = _budget_seconds()
    headers = ["Model", "Ops", "Wall s", "Budget s", "Iter time s"]
    rows = [[
        result.model_name, num_ops, round(wall, 2), budget,
        result.iteration_time,
    ]]
    print()
    print(
        f"scale gate: {num_ops} ops optimized+simulated in {wall:.1f}s "
        f"(budget {budget:.0f}s), step {result.iteration_time:.4f}s"
    )
    export_rows("scale", headers, rows)
    assert num_ops >= MIN_OPS, f"graph too small for the gate: {num_ops}"
    assert wall < budget, (
        f"scale gate blown: {num_ops} ops took {wall:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    assert repr(result.iteration_time) == STEP_TIME_PIN, (
        f"scale step time moved: {result.iteration_time!r} != {STEP_TIME_PIN}"
    )
