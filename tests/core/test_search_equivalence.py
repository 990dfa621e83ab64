"""The incremental OS-DPOS search works on a private copy of its input.

Its strategies on every zoo model and GPU count are frozen in
``tests/core/golden/`` (see ``test_golden_dpos.py``).
"""

from repro.cluster import cluster_for
from repro.core import DPOS, OSDPOS, SearchOptions
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model

MAX_CANDIDATE_OPS = 4


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
