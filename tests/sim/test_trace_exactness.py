"""Property test: every step trace the simulator writes is exact.

On random layered DAGs over ``pcie:4`` and ``servers:2x2``, with random
placements, run FIFO (no order) and with a DPOS execution order.  Every
op must run exactly once, the critical path must follow recorded edges
from the makespan back to t=0 (no ``idle`` segment), and its
attribution must sum to the makespan.  The critical-path walk follows
recorded edges only, so this is what keeps it complete on the traces
this build writes.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import topology_from
from repro.core import DPOS
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.hardware import PerfModel
from repro.obs.analyze import extract_critical_path
from repro.sim import ExecutionSimulator

from tests.core.test_dpos_bound import random_layered_dag

TOPOLOGIES = {name: topology_from(name) for name in ("pcie:4", "servers:2x2")}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_simulated_traces_are_exact(data):
    graph = random_layered_dag(data.draw, max_layers=6, max_width=4)
    topo = TOPOLOGIES[data.draw(st.sampled_from(sorted(TOPOLOGIES)), label="topo")]
    devices = topo.device_names
    placement = {
        op.name: data.draw(st.sampled_from(devices), label=f"d_{op.name}")
        for op in graph.ops
    }
    sigma = data.draw(st.sampled_from([0.0, 0.05]), label="sigma")
    perf = PerfModel(topo, noise_sigma=sigma, seed=3)
    order = None
    if data.draw(st.booleans(), label="ordered"):
        order = DPOS(
            topo, OracleComputationModel(perf), OracleCommunicationModel(perf)
        ).run(graph.copy()).strategy.order

    trace = ExecutionSimulator(graph, topo, perf).run_step(placement, order=order)

    assert Counter(r.op_name for r in trace.op_records) == Counter(
        op.name for op in graph.ops
    )
    path = extract_critical_path(trace)
    assert path.exact, [s for s in path.segments if s.kind == "idle"]
    assert sum(path.attribution().values()) == pytest.approx(trace.makespan)
