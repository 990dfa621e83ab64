"""Cross-component property: DPOS schedules execute as estimated.

With oracle cost models (exact per-op and per-transfer times) and no
contention, the simulator's measured makespan should closely track
DPOS's estimated finish time.  Contention the estimate ignores can make
the real step *slower*; the work-conserving executor can also beat the
planned slots slightly, so both bounds are loose.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import single_server
from repro.core import DPOS
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_data_parallel_training_graph
from repro.hardware import PerfModel
from repro.sim import ExecutionSimulator

from tests.util import build_mlp, build_small_cnn


@pytest.mark.parametrize("builder,batch", [
    (build_mlp, 64),
    (build_small_cnn, 32),
])
@pytest.mark.parametrize("num_gpus", [2, 4])
def test_estimate_tracks_simulation(builder, batch, num_gpus):
    topo = single_server(num_gpus)
    graph, _ = build_data_parallel_training_graph(builder, num_gpus, batch)
    perf = PerfModel(topo)
    result = DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf)
    ).run(graph)
    trace = ExecutionSimulator(graph, topo, perf).run_step(
        result.placement, order=result.order
    )
    # The simulator can only be slower (contention), and not wildly so.
    assert trace.makespan >= result.finish_time * 0.80
    assert trace.makespan <= result.finish_time * 2.0


@settings(max_examples=15, deadline=None)
@given(
    layers=st.integers(2, 4),
    hidden=st.sampled_from([64, 256, 1024]),
    num_gpus=st.sampled_from([2, 3, 4]),
)
def test_estimate_tracks_simulation_random_mlps(layers, hidden, num_gpus):
    def builder(graph, prefix, batch):
        return build_mlp(graph, prefix, batch, hidden=hidden, layers=layers)

    topo = single_server(num_gpus)
    graph, _ = build_data_parallel_training_graph(builder, num_gpus, 64)
    perf = PerfModel(topo)
    result = DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf)
    ).run(graph)
    trace = ExecutionSimulator(graph, topo, perf).run_step(
        result.placement, order=result.order
    )
    assert trace.makespan >= result.finish_time * 0.80
    assert trace.makespan <= result.finish_time * 3.0
