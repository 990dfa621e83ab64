"""Incremental CostCache maintenance equals a rebuild, step by step.

A seeded random walk of :class:`~repro.graph.SplitTransaction` applies,
undos and commits runs on a working copy of a zoo graph, invalidating a
shared :class:`~repro.costmodel.CostCache` with each step's touched-op
set exactly as OS-DPOS does.  After every step, every live op's slots
must equal those of a cache built fresh over the same graph, and DPOS
over the shared cache must return the schedule DPOS returns over the
fresh one (strategy, ``repr`` of the finish time, start and finish
times, ranks).
"""

import random

import pytest

from repro.cluster import cluster_for
from repro.core import DPOS
from repro.costmodel import (
    CostCache,
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import (
    SplitError,
    SplitTransaction,
    build_single_device_training_graph,
)
from repro.hardware import PerfModel
from repro.models import get_model

MODELS = ("lenet", "alexnet", "rnnlm", "bert_large")
#: name -> (num_gpus, num_servers, interconnect) for cluster_for.
CLUSTERS = {"pcie": (4, 1, "pcie"), "two_tier": (4, 2, "default")}
STEPS = 30


def _slots(cache, index):
    """One id's slots, with ids mapped back to names.

    Successors compare as a set of (name, c_ij) pairs: ``Graph.copy``
    (the search's working copy, which the cache is rebound to) rebuilds
    consumer lists in topological order, and DPOS reads successors only
    through order-free steps (Kahn's name heap, max-rank choices).
    """
    names = cache.names
    return (
        cache.times[index],
        cache.weights[index],
        cache.persistent[index],
        cache.groups[index],
        [names[p] for p in cache.preds[index]],
        cache.pred_bytes[index],
        sorted(zip([names[s] for s in cache.succs[index]], cache.succ_comm[index])),
    )


def _schedule(result):
    return (
        result.strategy.placement,
        result.strategy.order,
        repr(result.finish_time),
        result.start_times,
        result.finish_times,
        result.ranks,
        result.critical_path,
    )


def _check(dpos, graph, shared):
    fresh = CostCache(
        graph, dpos.computation, dpos.communication,
        dpos.topology.device_names,
    )
    assert _schedule(dpos.run(graph, cost_cache=shared)) == _schedule(
        dpos.run(graph, cost_cache=fresh)
    )
    live = {shared.names[i] for i in shared.live}
    assert live == {op.name for op in graph}
    for name in live:
        assert _slots(shared, shared.ids[name]) == _slots(fresh, fresh.ids[name])
    # The fresh slots are the graph's and the models' own answers.
    for op in graph:
        slots = _slots(fresh, fresh.ids[op.name])
        preds = graph.predecessors(op)
        assert slots[0] == [
            dpos.computation.time(op, d) for d in fresh.devices
        ]
        assert slots[4] == [p.name for p in preds]
        assert slots[5] == [graph.edge_bytes(p, op) for p in preds]
        assert slots[6] == sorted(
            (s.name, dpos.communication.max_time(
                graph.edge_bytes(op, s), fresh.pairs
            ))
            for s in graph.successors(op)
        )


@pytest.mark.parametrize("cluster", sorted(CLUSTERS))
@pytest.mark.parametrize("model", MODELS)
def test_incremental_slots_match_a_fresh_cache(model, cluster):
    topo = cluster_for(*CLUSTERS[cluster])
    perf = PerfModel(topo)
    dpos = DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf)
    )
    spec = get_model(model, preset="bench")
    graph = build_single_device_training_graph(
        spec.builder, spec.global_batch, name=f"{model}_ids"
    )
    shared = CostCache(
        graph, dpos.computation, dpos.communication, topo.device_names
    )
    dpos.run(graph, cost_cache=shared)
    # The search's first apply runs on a copy the cache is rebound to.
    working = graph.copy()
    shared.rebind(working)
    rng = random.Random(f"{model}/{cluster}")
    ids_before = dict(shared.ids)
    open_txn = None
    steps = {"apply": 0, "undo": 0, "commit": 0, "infeasible": 0}
    for _ in range(STEPS):
        if open_txn is None:
            op = rng.choice([op for op in working if op.is_splittable])
            dim = rng.choice(sorted(op.split_dims))
            open_txn = SplitTransaction(working, op, dim, rng.choice((2, 4)))
            try:
                open_txn.apply()
            except SplitError:
                shared.invalidate(open_txn.touched)
                open_txn = None
                steps["infeasible"] += 1
            else:
                shared.invalidate(open_txn.touched)
                steps["apply"] += 1
        elif rng.random() < 0.7:
            shared.invalidate(open_txn.undo())
            open_txn = None
            steps["undo"] += 1
        else:
            shared.invalidate(open_txn.commit())
            open_txn = None
            steps["commit"] += 1
        _check(dpos, working, shared)
    assert steps["apply"] and steps["undo"] and steps["commit"]
    # An id names one op name for the cache's lifetime.
    assert all(shared.ids[name] == index for name, index in ids_before.items())


def test_undo_reuses_the_sub_op_ids():
    topo = cluster_for(*CLUSTERS["pcie"])
    perf = PerfModel(topo)
    dpos = DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf)
    )
    spec = get_model("alexnet", preset="bench")
    graph = build_single_device_training_graph(
        spec.builder, spec.global_batch, name="alexnet_ids"
    )
    cache = CostCache(
        graph, dpos.computation, dpos.communication, topo.device_names
    )
    dpos.run(graph, cost_cache=cache)
    op = next(op for op in graph if op.is_splittable)
    dim = sorted(op.split_dims)[0]
    sizes = []
    for _ in range(2):
        txn = SplitTransaction(graph, op, dim, 2)
        txn.apply()
        cache.invalidate(txn.touched)
        dpos.run(graph, cost_cache=cache)
        sizes.append(len(cache.names))
        cache.invalidate(txn.undo())
    assert sizes[0] == sizes[1] > graph.num_ops
