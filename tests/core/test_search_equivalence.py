"""Naive vs incremental OS-DPOS: the strategies must be byte-identical.

The incremental engine (transactional split apply/undo, cost caching,
lower-bound pruning) is a pure performance layer — on every model in the zoo and every cluster preset it must
return exactly the strategy the retained ``naive=True`` reference path
computes, and its evaluated + pruned counters must account for every
candidate the naive path scores.
"""

import pytest

from repro.cluster import cluster_for
from repro.core import DPOS, OSDPOS, SearchOptions
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model, model_names

GPU_COUNTS = (2, 4, 8)
MAX_CANDIDATE_OPS = 4


def _search_pair(model_name, num_gpus):
    topo = cluster_for(num_gpus)
    perf = PerfModel(topo)
    comp = OracleComputationModel(perf)
    comm = OracleCommunicationModel(perf)
    model = get_model(model_name, preset="bench")

    def fresh_graph():
        return build_single_device_training_graph(
            model.builder, model.global_batch, name=f"{model_name}_g{num_gpus}"
        )

    def run(**kwargs):
        dpos = DPOS(topo, comp, comm)
        options = SearchOptions(max_candidate_ops=MAX_CANDIDATE_OPS, **kwargs)
        search = OSDPOS(dpos, options=options)
        return search.run(fresh_graph())

    return run


def _strategy_fingerprint(result):
    s = result.strategy
    return (
        sorted(s.placement.items()),
        list(s.order),
        [(d.op_name, d.dim, d.num_splits) for d in s.split_list],
        s.estimated_time,
        result.finish_time,
    )


@pytest.mark.parametrize("num_gpus", GPU_COUNTS)
@pytest.mark.parametrize("model_name", model_names())
def test_incremental_matches_naive(model_name, num_gpus):
    run = _search_pair(model_name, num_gpus)
    naive = run(naive=True)
    fast = run()
    assert _strategy_fingerprint(fast) == _strategy_fingerprint(naive)
    # Pruning may skip evaluations but never loses candidates: every
    # candidate the naive path scored was either scored or pruned.
    assert (
        fast.candidates_evaluated + fast.candidates_pruned
        == naive.candidates_evaluated
    )
    assert naive.candidates_pruned == 0


def test_incremental_leaves_input_graph_untouched():
    topo = cluster_for(4)
    perf = PerfModel(topo)
    dpos = DPOS(topo, OracleComputationModel(perf), OracleCommunicationModel(perf))
    model = get_model("lenet", preset="bench")
    graph = build_single_device_training_graph(
        model.builder, model.global_batch, name="lenet_untouched"
    )
    names_before = [op.name for op in graph.ops]
    options = SearchOptions(max_candidate_ops=MAX_CANDIDATE_OPS)
    result = OSDPOS(dpos, options=options).run(graph)
    assert [op.name for op in graph.ops] == names_before
    assert result.graph is not graph

