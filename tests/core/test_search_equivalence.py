"""OS-DPOS never mutates its input graph, and copies it only to split.

Every search path (incremental, coarse and warm-start) works on a
private copy made right before its first split apply; when it commits
no split it returns the input graph itself.  Strategies on every zoo
model and GPU count are frozen in ``tests/core/golden/`` (see
``test_golden_dpos.py``).
"""

import pytest

from repro.cluster import cluster_for
from repro.core import DPOS, OSDPOS, SearchOptions
from repro.core.context import WarmStartSeed
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_single_device_training_graph
from repro.graph.rewrite import SplitDecision
from repro.hardware import PerfModel
from repro.models import get_model

MAX_CANDIDATE_OPS = 4
#: lenet commits no split on any path; alexnet commits on every path.
MODELS = ("lenet", "alexnet")


def _wiring(graph):
    """Everything a search could disturb: version, op order, tensor edges."""
    return (
        graph.version,
        [
            (
                op.name,
                [t.name for t in op.inputs],
                [
                    (t.name, [(c.name, i) for c, i in graph.consumers(t)])
                    for t in op.outputs
                ],
            )
            for op in graph.ops
        ],
    )


def _search(mode, dpos, graph):
    options = SearchOptions(
        max_candidate_ops=MAX_CANDIDATE_OPS,
        coarsen=mode == "coarse",
        coarsen_target=32,
    )
    if mode != "warm":
        return OSDPOS(dpos, options=options).run(graph)
    seed = OSDPOS(dpos, options=options).run(graph.copy()).split_list
    splittable = next(op for op in graph.ops if op.is_splittable)
    # An infeasible decision first: its apply raises SplitError, which
    # must already run on the private copy.
    too_many = 1 + max(max(t.shape, default=1) for t in splittable.inputs)
    infeasible = SplitDecision(
        splittable.name, sorted(splittable.split_dims)[0], too_many
    )
    return OSDPOS(dpos, options=options).run(
        graph, warm_start=WarmStartSeed(split_list=[infeasible, *seed])
    )


@pytest.mark.parametrize("mode", ["incremental", "coarse", "warm"])
def test_search_leaves_input_graph_untouched(mode):
    topo = cluster_for(4)
    perf = PerfModel(topo)
    dpos = DPOS(topo, OracleComputationModel(perf), OracleCommunicationModel(perf))
    committed = []
    for model_name in MODELS:
        model = get_model(model_name, preset="bench")
        graph = build_single_device_training_graph(
            model.builder, model.global_batch, name=f"{model_name}_untouched"
        )
        before = _wiring(graph)
        result = _search(mode, dpos, graph)
        assert _wiring(graph) == before
        assert (result.graph is graph) == (not result.split_list)
        if mode == "warm":
            assert result.metrics["search.warm_splits_skipped"] == 1
        committed.append(bool(result.split_list))
    assert committed == [False, True]
