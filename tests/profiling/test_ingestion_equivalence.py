"""One-pass cost-model ingestion vs one call per record.

:func:`update_cost_models` reads each trace's columns in one pass per
model.  It must leave bit-identical state to a per-record loop: every
(op, device) running mean, every per-name pool, every bandwidth proxy
and every pair or class sample window accumulates in the same
sequential order.  The computation model's ``observe`` is itself a
one-record ``observe_many``, so its reference is a test-local oracle
that spells out the running-mean recurrence; the communication model
is compared against its own ``observe``.  A single changed bit in a mean can move a
strategy, so the comparison is exact, never approximate.
"""

import pytest

from repro.cluster import topology_from, two_servers
from repro.core.placer import model_parallel_placement
from repro.costmodel import CommunicationCostModel, ComputationCostModel
from repro.costmodel.computation import BANDWIDTH_BOUND_TYPES
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model, model_names
from repro.profiling import update_cost_models
from repro.sim import ExecutionSimulator

PRESETS = {
    "pcie": lambda: topology_from("pcie:4"),
    "two_tier": lambda: two_servers(2),
    # Heterogeneous compute_scale: the per-name pool mixes scaled times.
    "mixed": lambda: topology_from("mixed:2+2"),
}
#: Small enough that the busiest pair and class windows overflow.
WINDOW = 8


def _models(topo):
    return (
        ComputationCostModel(device_scale=topo.relative_compute_scales()),
        CommunicationCostModel(
            pair_class=topo.pair_class, max_samples_per_pair=WINDOW,
            topology=topo,
        ),
    )


def _traces(model_name, topo):
    """Four jittered steps: three running means per (op, device) key,
    then one on rotated devices, so the per-name pools mix devices."""
    spec = get_model(model_name, preset="bench")
    graph = build_single_device_training_graph(
        spec.builder, spec.global_batch, name=f"{model_name}_ingest"
    )
    sim = ExecutionSimulator(
        graph, topo, PerfModel(topo, noise_sigma=0.05, seed=11),
        enforce_memory=False,
    )
    placement = model_parallel_placement(graph, topo)
    names = topo.device_names
    rotated = {
        op: names[(names.index(dev) + 1) % len(names)]
        for op, dev in placement.items()
    }
    traces = [sim.run_step(placement) for _ in range(3)]
    traces.append(sim.run_step(rotated))
    return graph, traces


class _ComputationOracle:
    """Per-record reference for :class:`ComputationCostModel`'s state.

    The running-mean recurrence, per-name pooling and bandwidth sums
    spelled out once per record, independent of the model's own code.
    """

    def __init__(self, device_scale):
        self.device_scale = device_scale
        self.stats = {}  # (op, device) -> (count, mean)
        self.by_name = {}  # op -> (count, scale-normalized mean)
        self.types = {}
        self.bandwidth = {}  # device -> (total bytes, total seconds)

    @staticmethod
    def _add(stats, key, value):
        count, mean = stats.get(key, (0, 0.0))
        count += 1
        mean += (value - mean) / count
        stats[key] = (count, mean)

    def observe(self, op_name, op_type, device, duration, bytes_accessed):
        self._add(self.stats, (op_name, device), duration)
        self._add(
            self.by_name, op_name,
            duration * self.device_scale.get(device, 1.0),
        )
        self.types[op_name] = op_type
        if op_type in BANDWIDTH_BOUND_TYPES and bytes_accessed > 0:
            total_bytes, total_seconds = self.bandwidth.get(device, (0.0, 0.0))
            self.bandwidth[device] = (
                total_bytes + bytes_accessed, total_seconds + duration,
            )

    def state(self):
        return (
            [(key, mean) for key, (_, mean) in self.stats.items()],
            [(key, count, mean) for key, (count, mean) in self.stats.items()],
            [(name, count, mean) for name, (count, mean) in self.by_name.items()],
            list(self.types.items()),
            [(dev, b, s) for dev, (b, s) in self.bandwidth.items()],
        )


def _per_record(graph, traces, computation, communication):
    """The reference: one oracle or ``observe`` call per materialized
    record."""
    for trace in traces:
        for rec in trace.op_records:
            bytes_accessed = (
                graph.get_op(rec.op_name).bytes_accessed
                if rec.op_name in graph else 0
            )
            computation.observe(
                rec.op_name, rec.op_type, rec.device, rec.duration,
                bytes_accessed,
            )
        for rec in trace.transfer_records:
            communication.observe(
                rec.src_device, rec.dst_device, rec.num_bytes, rec.duration
            )


def _computation_state(model):
    """Per-key and per-name ``(count, mean)``, exactly, in key order."""
    return (
        list(model.snapshot().items()),
        [(key, model._counts[key], mean) for key, mean in model._means.items()],
        [
            (name, model._name_counts[name], mean)
            for name, mean in model._name_means.items()
        ],
        list(model._types.items()),
        [
            (dev, p.total_bytes, p.total_seconds)
            for dev, p in model._bandwidth.items()
        ],
    )


def _communication_state(model):
    return (
        list(model._samples.items()),
        list(model._class_samples.items()),
        [(pair, model.pair_parameters(*pair)) for pair in model._samples],
        [(key, model._fit_class(key)) for key in model._class_samples],
    )


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("model_name", model_names())
def test_one_pass_matches_per_record_observe(model_name, preset):
    topo = PRESETS[preset]()
    graph, traces = _traces(model_name, topo)
    one_pass = _models(topo)
    update_cost_models(graph, traces, *one_pass)
    # Ingestion reads columns; no trace had to build its records.
    assert all(t._op_records is None for t in traces)
    assert all(t._transfer_records is None for t in traces)
    oracle = _ComputationOracle(topo.relative_compute_scales())
    reference = _models(topo)[1]
    _per_record(graph, traces, oracle, reference)

    assert _computation_state(one_pass[0]) == oracle.state()
    assert one_pass[0]._bandwidth, "expected bandwidth-bound ops"
    assert _communication_state(one_pass[1]) == _communication_state(reference)


def test_matrix_overflows_sample_windows():
    """The matrix above trims both window kinds (alexnet, two_tier)."""
    topo = PRESETS["two_tier"]()
    graph, traces = _traces("alexnet", topo)
    computation, communication = _models(topo)
    update_cost_models(graph, traces, computation, communication)
    assert max(len(w) for w in communication._samples.values()) == WINDOW
    assert max(len(w) for w in communication._class_samples.values()) == 4 * WINDOW
