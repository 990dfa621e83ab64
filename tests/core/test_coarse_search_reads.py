"""The coarse search contracts once per plan and once per candidate.

OS-DPOS's coarse path places and orders over a :class:`CoarsePlan`'s
lists, one record per coarse node.  A coarse-path ``repro.optimize``
contracts its graph, and a coarse search that evaluates split
candidates contracts once for the plan and once per scheduled
candidate.
"""

import pytest

import repro
from repro.cluster import cluster_for
from repro.core import DPOS, OSDPOS
from repro.core.os_dpos import SearchOptions
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.hardware import PerfModel
from repro.models.layers import LayerHelper

from tests.graph.test_coarsen import MLP_LAYERS, _mlp_graph


@pytest.fixture
def reads(monkeypatch):
    """Counts of contractions."""
    import repro.core.os_dpos as os_dpos

    counts = {"contractions": 0}
    contract = os_dpos.contract_graph

    def counting_contract(*args, **kwargs):
        counts["contractions"] += 1
        return contract(*args, **kwargs)

    monkeypatch.setattr(os_dpos, "contract_graph", counting_contract)
    return counts


def _mlp5k(graph, prefix, batch):
    net = LayerHelper(graph, prefix)
    x = net.placeholder("x", (batch, 64))
    for i in range(MLP_LAYERS):
        x = net.dense(x, f"fc{i}", 64, relu=True)
    return net.softmax_loss(x)


def test_optimize_on_the_coarse_path_contracts(reads):
    config = repro.FastTConfig(
        profiling_steps=1, max_rounds=1, min_rounds=1, measure_steps=1,
    )
    result = repro.optimize(
        _mlp5k, "pcie:2", global_batch=2, model_name="mlp5k", config=config,
        run_dir=False,
    )
    assert result.graph.num_ops >= 5000  # past the "auto" threshold
    assert reads["contractions"] >= 1


def test_candidate_evaluation_contracts_once_per_candidate(reads):
    topo = cluster_for(2)
    perf = PerfModel(topo)
    engine = OSDPOS(
        DPOS(topo, OracleComputationModel(perf), OracleCommunicationModel(perf)),
        options=SearchOptions(max_candidate_ops=4, coarsen=True),
    )
    result = engine.run(_mlp_graph())
    assert result.candidates_evaluated > 0
    # One contraction for the plan, one per scheduled candidate.
    assert reads["contractions"] == 1 + result.candidates_evaluated
