"""Contraction is lossless on generated graphs.

:func:`assert_lossless` checks every record of a :class:`CoarsePlan`
against the fine graph it contracts:

* ``member_ids`` partition the fine op ids;
* every producer row points to a lower node id (the packed intervals run
  in a topological order of the condensation, stage 3 of
  ``repro.graph.coarsen``);
* ``persistent`` sums to the fine graph's persistent bytes;
* ``pred_bytes`` carries, per producer node, the bytes of the distinct
  boundary tensors a node reads (a singleton's input slots, duplicates
  included, as its op reads them);
* ``expand_order`` of the coarse topological order is a valid fine
  topological order, and ``expand_placement`` places every fine op on
  its node's device;
* lifted groups never separate two colocated ops.

Here it runs on random layered DAGs with random colocation groups, at
targets from 1 to past the op count; ``tests/graph/test_coarsen.py``
runs it on the model zoo.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import cluster_for
from repro.costmodel import CostCache, OracleCommunicationModel, OracleComputationModel
from repro.graph import SuperComputationModel, contract_graph
from repro.hardware import PerfModel

from tests.core.test_dpos_bound import random_layered_dag

TARGETS = (1, 2, 3, 5, 1000)


def coarse_order(plan):
    """The plan's canonical topological order, by node name."""
    topo = cluster_for(2)
    perf = PerfModel(topo)
    cache = CostCache(
        plan, SuperComputationModel(OracleComputationModel(perf), plan),
        OracleCommunicationModel(perf), topo.device_names,
    )
    return [cache.names[i] for i in cache.topological_order()]


def assert_lossless(graph, plan):
    fine_names = plan.fine_index.names
    assert fine_names == [op.name for op in graph.ops]

    # Members partition the fine ops.
    node_of = {}
    for node, ids in enumerate(plan.member_ids):
        assert ids
        for i in ids:
            node_of[fine_names[i]] = node
    assert sorted(i for ids in plan.member_ids for i in ids) == list(
        range(graph.num_ops)
    )

    # Producer rows point backwards, and carry the boundary bytes.
    for node, ids in enumerate(plan.member_ids):
        row = range(plan.pred_ptr[node], plan.pred_ptr[node + 1])
        received = {}
        seen = set()
        for i in ids:
            for tensor in graph.get_op(fine_names[i]).inputs:
                producer = node_of[tensor.producer.name]
                if producer == node or (len(ids) > 1 and tensor.name in seen):
                    continue
                seen.add(tensor.name)
                received[producer] = received.get(producer, 0) + tensor.size_bytes
        assert [(plan.preds[k], plan.pred_bytes[k]) for k in row] == list(
            received.items()
        )
        assert all(plan.preds[k] < node for k in row)

    assert sum(plan.persistent) == sum(op.persistent_bytes for op in graph.ops)

    # The expanded order is a valid fine topological order.
    order = plan.expand_order(coarse_order(plan))
    position = {name: k for k, name in enumerate(order)}
    assert len(order) == graph.num_ops == len(position)
    for op in graph.ops:
        for tensor in op.inputs:
            assert position[tensor.producer.name] < position[op.name]

    # A coarse placement expands to a complete fine placement.
    devices = ["d0", "d1"]
    coarse_placement = {
        name: devices[node % 2] for node, name in enumerate(plan.names)
    }
    fine_placement = plan.expand_placement(coarse_placement)
    assert fine_placement == {
        name: devices[node_of[name] % 2] for name in fine_names
    }

    # Every node touching one fine group shares one coarse group, so
    # colocated fine ops can never be pulled apart by a coarse placement.
    for members in graph.colocation_groups().values():
        lifted = {plan.groups[node_of[op.name]] for op in members}
        assert len(lifted) == 1 and None not in lifted


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contraction_is_lossless(target, data):
    graph = random_layered_dag(data.draw, max_layers=6, max_width=4)
    for op in graph.ops:
        # Set before the contraction reads it; the graph is not mutated
        # after that.
        op.colocation_group = data.draw(
            st.sampled_from([None, None, "g0", "g1", "g2"]),
            label=f"group_{op.name}",
        )
    plan = contract_graph(graph, target=target)
    assert 1 <= plan.num_ops <= min(target, graph.num_ops)
    assert_lossless(graph, plan)
