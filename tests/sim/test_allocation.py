"""Post-build hot paths leave no per-op object for the garbage collector.

A simulated step's state and a cost-model fit run once per profiled
step on graphs of tens of thousands of ops.  Every container they keep
per op or per tensor is one more object each full collection rescans,
and enough of them trigger full collections of their own.  Both paths
keep per-op state in flat lists of ints and in dicts of scalars, which
the collector does not track, so the tracked objects each call leaves
behind are a constant, whatever the graph's size.
"""

import gc

import pytest

from repro.cluster import topology_from
from repro.core.placer import model_parallel_placement
from repro.costmodel import ComputationCostModel
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.sim import ExecutionSimulator
from repro.sim.runner import _StepState

from tests.util import build_mlp

#: About 5,000 ops, and twice that.
LAYERS = (714, 1428)
#: Tracked objects one call may leave behind, independent of op count.
BOUND = 200


def _tracked() -> int:
    """Live tracked objects, after a collection has untracked the tuples
    and dicts that hold only scalars."""
    gc.collect()
    return len(gc.get_objects())


@pytest.fixture(scope="module")
def added_by_size():
    """Layers -> (ops, objects added by a step state, by a fit)."""
    topo = topology_from("pcie:4")
    added = {}
    for layers in LAYERS:
        graph = build_single_device_training_graph(
            lambda g, prefix, batch: build_mlp(g, prefix, batch, layers=layers),
            2, name=f"mlp{layers}",
        )
        sim = ExecutionSimulator(
            graph, topo, PerfModel(topo, noise_sigma=0.05, seed=3),
            enforce_memory=False,
        )
        # Spread over every device, so steps make remote transfers.
        placement = model_parallel_placement(graph, topo)
        # The plan and its per-device durations are built once per graph
        # version, outside the calls measured.
        trace = sim.run_step(placement)
        names, types, devices, starts, ends = trace.op_columns()
        durations = [end - start for start, end in zip(starts, ends)]
        assert trace.num_transfers > 0

        before = _tracked()
        state = _StepState(sim, placement, None)
        step_added = _tracked() - before

        model = ComputationCostModel()
        before = _tracked()
        model.observe_many(names, types, devices, durations, lambda name: 0)
        fit_added = _tracked() - before
        assert model.num_entries == graph.num_ops
        del state
        added[layers] = (graph.num_ops, step_added, fit_added)
    return added


def test_graphs_are_large(added_by_size):
    small, large = (added_by_size[layers][0] for layers in LAYERS)
    assert small >= 5000
    assert large >= 2 * small - 10


@pytest.mark.parametrize("layers", LAYERS)
def test_step_state_adds_constant_objects(added_by_size, layers):
    assert added_by_size[layers][1] < BOUND


@pytest.mark.parametrize("layers", LAYERS)
def test_observe_many_adds_constant_objects(added_by_size, layers):
    assert added_by_size[layers][2] < BOUND


def test_added_objects_do_not_grow_with_the_graph(added_by_size):
    (_, step_small, fit_small), (_, step_large, fit_large) = (
        added_by_size[layers] for layers in LAYERS
    )
    assert step_large - step_small < BOUND // 4
    assert fit_large - fit_small < BOUND // 4
