"""Contraction leaves no per-tensor object for the garbage collector.

A large graph contracts to a few hundred coarse nodes, but the tensors
crossing between them grow with the graph: a 39.6k-op MLP has 14.5k.
:func:`contract_graph` records one entry per coarse node in flat lists
and makes no object per boundary tensor.  So the tracked objects a
contraction adds depend on the target, not on the number of boundary
tensors (``tests/sim/test_allocation.py`` holds a step and a fit to the
same rule).
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


def _boundary_tensors(plan) -> int:
    """Fine tensors read by a coarse node other than their producer's."""
    index = plan.fine_index
    node_of = [0] * len(index.names)
    for node, ids in enumerate(plan.member_ids):
        for i in ids:
            node_of[i] = node
    cons_ptr, cons_ids = index.cons_ptr, index.cons_ids
    return sum(
        any(
            node_of[c] != node_of[producer]
            for c in cons_ids[cons_ptr[t]:cons_ptr[t + 1]]
        )
        for t, producer in enumerate(index.producers)
    )


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
        boundary = _boundary_tensors(plan)
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
