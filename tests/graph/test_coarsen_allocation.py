"""Contraction leaves no per-tensor object for the garbage collector.

A large graph contracts to a few hundred coarse nodes, but the tensors
crossing between them grow with the graph: a 39.6k-op MLP has 14.5k.
:func:`contract_graph` records what the coarse search reads in flat
lists and builds the coarse graph, with one ``Tensor`` per boundary
tensor, only when :attr:`CoarsePlan.coarse` is read.  So the tracked
objects a contraction adds depend on the target, not on the number of
boundary tensors (``tests/sim/test_allocation.py`` holds a step and a
fit to the same rule).
"""

import gc

import pytest

from repro.graph import build_single_device_training_graph, contract_graph

from tests.util import build_mlp

#: About 5,000 ops, and twice that.
LAYERS = (714, 1428)
#: Tracked objects one contraction to 256 nodes may leave behind.
BOUND = 1000


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


@pytest.fixture(scope="module")
def added_by_size():
    """Layers -> (ops, boundary tensors, objects a contraction added)."""
    added = {}
    for layers in LAYERS:
        graph = build_single_device_training_graph(
            lambda g, prefix, batch: build_mlp(g, prefix, batch, layers=layers),
            2, name=f"mlp{layers}",
        )
        # The fine graph's index is built once per graph version, before
        # any contraction (the simulator reads it first).
        index = graph.index()
        index.canonical_order()
        index.successors()
        before = _tracked()
        plan = contract_graph(graph)
        contract_added = _tracked() - before
        boundary = sum(
            len(plan.coarse.get_op(name).outputs) for name in plan.member_ops
        )
        added[layers] = (graph.num_ops, boundary, contract_added)
        del plan  # and with it this graph, before the next one is measured
    return added


def test_graphs_are_large(added_by_size):
    (small, small_boundary, _), (large, large_boundary, _) = (
        added_by_size[layers] for layers in LAYERS
    )
    assert small >= 5000
    assert large >= 2 * small - 10
    # The cut grows with the graph, so a per-tensor object would show.
    assert large_boundary >= small_boundary + 1000


def test_contraction_adds_objects_independent_of_boundary(added_by_size):
    for ops, boundary, contract_added in added_by_size.values():
        assert contract_added <= BOUND, (ops, boundary, contract_added)
    small, large = (added_by_size[layers][2] for layers in LAYERS)
    assert abs(large - small) <= 50
