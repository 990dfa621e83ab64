"""Event-heap simulator vs the retained reference runner: bit-exact.

The rewritten :class:`ExecutionSimulator` (single global event heap,
integer-indexed plan and step state, columnar trace, numpy-batched cost
lookups, route/transfer memos) is a pure performance layer over
:class:`ReferenceSimulator`, the verbatim seed runner kept in
``reference_simulator.py`` for exactly this suite.  Every observable —
makespan, op records, transfer records (including multi-hop routed
channels), peak memory, blocking-edge attribution, the serialized
trace — must be identical on every zoo model and every cluster preset,
with and without jitter, because downstream analysis (critical-path
attribution, the step-time pins) assumes traces are reproducible
across both runners.
"""

import pytest

from repro.cluster import dgx, mixed_server, pcie_server, two_servers
from repro.core import DPOS
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model, model_names
from repro.obs.analyze import analyze_step
from repro.obs.chrome_trace import step_trace_events, trace_document, validate_trace
from repro.sim import ExecutionSimulator

from .reference_simulator import ReferenceSimulator

PRESETS = {
    "two_tier": lambda: two_servers(2),
    "pcie": lambda: pcie_server(4),
    "dgx": lambda: dgx(4),
    "mixed": lambda: mixed_server(2, 2),
}

#: Full preset matrix runs on these; the rest of the zoo runs two_tier.
MATRIX_MODELS = ("lenet", "alexnet")


def _graph(model_name, tag):
    spec = get_model(model_name, preset="bench")
    return build_single_device_training_graph(
        spec.builder, spec.global_batch, name=f"{model_name}_{tag}"
    )


def _placement_order(graph, topo):
    perf = PerfModel(topo)
    result = DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf)
    ).run(graph.copy())
    return result.strategy.placement, result.strategy.order


def _run(simulator_cls, graph, topo, placement, order, sigma):
    perf = PerfModel(topo, noise_sigma=sigma, seed=7)
    sim = simulator_cls(graph, topo, perf)
    return sim.run_step(placement, order=order, policy="priority")


def _op_view(trace):
    return [
        (r.op_name, r.op_type, r.device, r.start, r.end, r.ready, r.blocked_by)
        for r in trace.op_records
    ]


def _transfer_view(trace):
    return [
        (
            r.tensor_name, r.src_device, r.dst_device, r.num_bytes,
            r.start, r.end, r.channel, r.queued_at, r.producer,
        )
        for r in trace.transfer_records
    ]


def _assert_identical(trace_a, trace_b):
    # The columnar trace serializes exactly like the record-built one.
    assert trace_a.to_json() == trace_b.to_json()
    assert trace_a.makespan == trace_b.makespan
    assert _op_view(trace_a) == _op_view(trace_b)
    assert _transfer_view(trace_a) == _transfer_view(trace_b)
    assert trace_a.peak_memory == trace_b.peak_memory


@pytest.mark.parametrize("model_name", model_names())
def test_zoo_bit_exact_two_tier(model_name):
    topo = PRESETS["two_tier"]()
    graph = _graph(model_name, "heap")
    placement, order = _placement_order(graph, topo)
    for sigma in (0.0, 0.05):
        fast = _run(ExecutionSimulator, graph, topo, placement, order, sigma)
        ref = _run(ReferenceSimulator, graph, topo, placement, order, sigma)
        _assert_identical(fast, ref)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("model_name", MATRIX_MODELS)
def test_preset_matrix_bit_exact(model_name, preset):
    topo = PRESETS[preset]()
    graph = _graph(model_name, preset)
    placement, order = _placement_order(graph, topo)
    for sigma in (0.0, 0.05):
        fast = _run(ExecutionSimulator, graph, topo, placement, order, sigma)
        ref = _run(ReferenceSimulator, graph, topo, placement, order, sigma)
        _assert_identical(fast, ref)


def test_multi_hop_transfers_match_and_validate():
    # two_servers routes inter-server tensors through NIC/switch hops, so
    # this covers the multi-channel (routed) transfer path end to end.
    topo = two_servers(2)
    graph = _graph("alexnet", "hops")
    placement, order = _placement_order(graph, topo)
    fast = _run(ExecutionSimulator, graph, topo, placement, order, 0.0)
    ref = _run(ReferenceSimulator, graph, topo, placement, order, 0.0)
    _assert_identical(fast, ref)
    multi_hop = {r.tensor_name for r in fast.transfer_records if r.channel}
    assert multi_hop, "expected routed transfers on the two-server preset"
    # Both runners' traces survive the Chrome-trace structural validator.
    for trace in (fast, ref):
        counts = validate_trace(trace_document(step_trace_events(trace)))
        assert counts["events"] > 0


def test_analyzer_attribution_is_runner_independent():
    topo = two_servers(2)
    graph = _graph("inception_v3", "attr")
    placement, order = _placement_order(graph, topo)
    fast = _run(ExecutionSimulator, graph, topo, placement, order, 0.0)
    ref = _run(ReferenceSimulator, graph, topo, placement, order, 0.0)
    a = analyze_step(fast, label="fast")
    b = analyze_step(ref, label="ref")
    assert a.critical_path.op_names() == b.critical_path.op_names()
    assert a.critical_path.attribution() == b.critical_path.attribution()


def test_fake_perf_model_falls_back_to_scalar_path():
    # A duck-typed perf model without the batch methods must still work
    # (tests and user stubs only implement the scalar surface).
    topo = pcie_server(2)
    graph = _graph("lenet", "fake")
    placement, order = _placement_order(graph, topo)
    real = PerfModel(topo)

    class ScalarOnly:
        topology = topo

        def op_time(self, op, device):
            return real.base_op_time(op, device)

        def transfer_time(self, src, dst, num_bytes):
            return real.base_transfer_time(src, dst, num_bytes)

        def link_time(self, link, num_bytes):
            return real.base_link_time(link, num_bytes)

    fast = ExecutionSimulator(graph, topo, ScalarOnly()).run_step(
        placement, order=order, policy="priority"
    )
    ref = _run(ReferenceSimulator, graph, topo, placement, order, 0.0)
    _assert_identical(fast, ref)
