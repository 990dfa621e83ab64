"""A simulator trace keeps its records as columns until asked for them.

Step metrics and serialization must not depend on which form a trace
is in: the metrics ``run_step`` derives from the columns equal those of
the materialized records, and ``StepTrace.save`` writes the same bytes
for a columnar trace and its record-built twin (harness and run-registry
``step.json`` artifacts stay unchanged).
"""

from repro.cluster import two_servers
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model
from repro.obs import Observability
from repro.core.placer import model_parallel_placement
from repro.profiling import StepTrace
from repro.sim import ExecutionSimulator


def _step(obs=None):
    topo = two_servers(2)
    spec = get_model("alexnet", preset="bench")
    graph = build_single_device_training_graph(
        spec.builder, spec.global_batch, name="alexnet_columns"
    )
    sim = ExecutionSimulator(
        graph, topo, PerfModel(topo, noise_sigma=0.05, seed=5),
        enforce_memory=False, obs=obs,
    )
    return sim.run_step(model_parallel_placement(graph, topo))


def test_step_metrics_come_from_columns():
    obs = Observability()
    trace = _step(obs)
    # run_step derived its metrics without building a single record.
    assert trace._op_records is None and trace._transfer_records is None
    metrics = obs.metrics
    assert metrics.counter("sim.op_executions").value == len(trace.op_records)
    assert metrics.counter("sim.transfers").value == len(trace.transfer_records)
    assert trace.transfer_records, "expected inter-device transfers"
    assert metrics.timer("sim.queue_wait").seconds == sum(
        rec.queue_wait for rec in trace.op_records
    )


def test_save_is_byte_identical_to_record_built_twin(tmp_path):
    columnar = _step()
    twin = StepTrace(
        op_records=list(columnar.op_records),
        transfer_records=list(columnar.transfer_records),
        makespan=columnar.makespan,
        peak_memory=dict(columnar.peak_memory),
    )
    fresh = _step()  # saved straight from its columns
    paths = [
        trace.save(str(tmp_path / f"{name}.step.json"))
        for name, trace in (("twin", twin), ("fresh", fresh))
    ]
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_columns_match_records():
    trace = _step()
    names, types, devices, starts, ends = trace.op_columns()
    srcs, dsts, sizes, xfer_starts, xfer_ends = trace.transfer_columns()
    assert trace.num_ops == len(names) and trace.num_transfers == len(srcs)
    assert list(zip(names, types, devices, starts, ends)) == [
        (r.op_name, r.op_type, r.device, r.start, r.end)
        for r in trace.op_records
    ]
    assert list(zip(srcs, dsts, sizes, xfer_starts, xfer_ends)) == [
        (r.src_device, r.dst_device, r.num_bytes, r.start, r.end)
        for r in trace.transfer_records
    ]
