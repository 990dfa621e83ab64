"""Tests for the discrete-event execution simulator.

Uses a hand-rolled fake performance model with exact per-op times so
schedules are analytically checkable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import single_server
from repro.graph import Graph
from repro.sim import ExecutionSimulator, SimulationError, SimulationOOMError

from tests.util import BatchedPerf, chain_graph, diamond_graph


class FakePerf(BatchedPerf):
    """Deterministic per-op durations and byte-proportional transfers."""

    def __init__(self, op_times, byte_time=0.0, default=1.0):
        self.op_times = op_times
        self.byte_time = byte_time
        self.default = default

    def op_time(self, op, device):
        return self.op_times.get(op.name, self.default)

    def transfer_time(self, src, dst, num_bytes):
        if src == dst:
            return 0.0
        return num_bytes * self.byte_time


def _sim(graph, topo, perf, **kwargs):
    return ExecutionSimulator(graph, topo, perf, **kwargs)


class TestSerialExecution:
    def test_chain_on_one_device(self, topo2):
        g = chain_graph(3)
        perf = FakePerf({"op0": 1.0, "op1": 2.0, "op2": 3.0})
        placement = {op.name: topo2.device_names[0] for op in g.ops}
        trace = _sim(g, topo2, perf).run_step(placement)
        assert trace.makespan == pytest.approx(6.0)
        assert len(trace.op_records) == 3
        assert trace.transfer_records == []

    def test_chain_across_devices_pays_transfers(self, topo2):
        g = chain_graph(2, shape=(8, 8))  # 256-byte tensors
        perf = FakePerf({"op0": 1.0, "op1": 1.0}, byte_time=0.01)
        d0, d1 = topo2.device_names
        trace = _sim(g, topo2, perf).run_step({"op0": d0, "op1": d1})
        # 1.0 compute + 256 * 0.01 transfer + 1.0 compute
        assert trace.makespan == pytest.approx(2.0 + 2.56)
        assert len(trace.transfer_records) == 1
        rec = trace.transfer_records[0]
        assert (rec.src_device, rec.dst_device) == (d0, d1)
        assert rec.num_bytes == 256


class TestParallelism:
    def test_diamond_parallel_branches(self, topo2):
        g = diamond_graph()
        perf = FakePerf({"a": 1.0, "b": 5.0, "c": 5.0, "d": 1.0})
        d0, d1 = topo2.device_names
        serial = _sim(g, topo2, perf).run_step(
            {"a": d0, "b": d0, "c": d0, "d": d0}
        )
        parallel = _sim(g, topo2, perf).run_step(
            {"a": d0, "b": d0, "c": d1, "d": d0}
        )
        assert serial.makespan == pytest.approx(12.0)
        assert parallel.makespan < serial.makespan

    def test_compute_comm_overlap(self, topo2):
        # a -> b (local, long) and a -> c (remote): the transfer to c
        # overlaps with b's execution.
        g = Graph("overlap")
        a = g.create_op("Generic", "a", attrs={"output_shapes": [(100,)]})
        g.create_op("Generic", "b", [a.outputs[0]], attrs={"output_shapes": [(4,)]})
        g.create_op("Generic", "c", [a.outputs[0]], attrs={"output_shapes": [(4,)]})
        perf = FakePerf({"a": 1.0, "b": 10.0, "c": 1.0}, byte_time=0.01)
        d0, d1 = topo2.device_names
        trace = _sim(g, topo2, perf).run_step({"a": d0, "b": d0, "c": d1})
        # b finishes at 11; c's transfer (400B * 0.01 = 4.0) ends at 5, c at 6.
        assert trace.makespan == pytest.approx(11.0)


class TestChannelSerialization:
    def test_same_source_transfers_serialize(self, topo4):
        # One producer, three remote consumers: transfers leave the same
        # GPU and must queue on its egress channel.
        g = Graph("fanout")
        a = g.create_op("Generic", "a", attrs={"output_shapes": [(100,)]})
        for i in range(3):
            g.create_op(
                "Generic", f"c{i}", [a.outputs[0]],
                attrs={"output_shapes": [(4,)]},
            )
        perf = FakePerf({"a": 1.0, "c0": 0.1, "c1": 0.1, "c2": 0.1}, byte_time=0.01)
        devs = topo4.device_names
        placement = {"a": devs[0], "c0": devs[1], "c1": devs[2], "c2": devs[3]}
        trace = _sim(g, topo4, perf).run_step(placement)
        transfers = sorted(trace.transfer_records, key=lambda r: r.start)
        assert len(transfers) == 3
        for earlier, later in zip(transfers, transfers[1:]):
            assert later.start >= earlier.end - 1e-12, "egress must serialize"
        # 1.0 compute + 3 serialized 4.0-second transfers + 0.1 final op.
        assert trace.makespan == pytest.approx(1.0 + 3 * 4.0 + 0.1)

    def test_one_transfer_per_consuming_device(self, topo2):
        # Two consumers of the same tensor on the same remote device:
        # the tensor crosses the link once.
        g = Graph("shared")
        a = g.create_op("Generic", "a", attrs={"output_shapes": [(100,)]})
        g.create_op("Generic", "u", [a.outputs[0]], attrs={"output_shapes": [(4,)]})
        g.create_op("Generic", "v", [a.outputs[0]], attrs={"output_shapes": [(4,)]})
        d0, d1 = topo2.device_names
        perf = FakePerf({}, byte_time=0.01)
        trace = _sim(g, topo2, perf).run_step({"a": d0, "u": d1, "v": d1})
        assert len(trace.transfer_records) == 1


class TestSchedulingPolicies:
    def _two_ready_graph(self):
        g = Graph("ready")
        src = g.create_op("Generic", "src", attrs={"output_shapes": [(4,)]})
        g.create_op("Generic", "x", [src.outputs[0]], attrs={"output_shapes": [(4,)]})
        g.create_op("Generic", "y", [src.outputs[0]], attrs={"output_shapes": [(4,)]})
        return g

    def test_priority_overrides_fifo(self, topo2):
        g = self._two_ready_graph()
        perf = FakePerf({"src": 1.0, "x": 1.0, "y": 1.0})
        d0 = topo2.device_names[0]
        placement = {"src": d0, "x": d0, "y": d0}
        trace = _sim(g, topo2, perf).run_step(
            placement, order=["src", "y", "x"]
        )
        records = {r.op_name: r for r in trace.op_records}
        assert records["y"].start < records["x"].start

    def test_fifo_uses_arrival_order(self, topo2):
        g = self._two_ready_graph()
        perf = FakePerf({"src": 1.0, "x": 1.0, "y": 1.0})
        d0 = topo2.device_names[0]
        trace = _sim(g, topo2, perf).run_step({"src": d0, "x": d0, "y": d0})
        records = {r.op_name: r for r in trace.op_records}
        assert records["x"].start < records["y"].start

    def test_unlisted_ops_run_after_every_listed_op(self, topo2):
        # src fans out to x, y and z, all ready at once on one device.
        # The order lists only z, so z runs right after src, then the
        # unlisted x and y in FIFO (graph) order.
        g = self._two_ready_graph()
        g.create_op(
            "Generic", "z", [g.get_op("src").outputs[0]],
            attrs={"output_shapes": [(4,)]},
        )
        perf = FakePerf({"src": 1.0, "x": 1.0, "y": 1.0, "z": 1.0})
        d0 = topo2.device_names[0]
        placement = {name: d0 for name in ("src", "x", "y", "z")}
        trace = _sim(g, topo2, perf).run_step(placement, order=["z"])
        ran = [r.op_name for r in sorted(trace.op_records, key=lambda r: r.start)]
        assert ran == ["src", "z", "x", "y"]


class TestInputValidation:
    def test_missing_placement(self, topo2):
        g = chain_graph(2)
        with pytest.raises(SimulationError, match="misses"):
            _sim(g, topo2, FakePerf({})).run_step({"op0": topo2.device_names[0]})

    def test_unknown_device(self, topo2):
        g = chain_graph(1)
        with pytest.raises(SimulationError, match="unknown device"):
            _sim(g, topo2, FakePerf({})).run_step({"op0": "/gpu:99"})


class TestMemoryIntegration:
    def test_oom_detected(self, topo2):
        g = Graph("big")
        # Four 5 GiB tensors all live until the sink runs: 20 GiB > 16 GiB.
        producers = [
            g.create_op(
                "Generic", f"p{i}", attrs={"output_shapes": [(1342177280,)]}
            )
            for i in range(4)
        ]
        g.create_op(
            "Generic", "sink", [p.outputs[0] for p in producers],
            attrs={"output_shapes": [(4,)]},
        )
        d0 = topo2.device_names[0]
        placement = {op.name: d0 for op in g.ops}
        with pytest.raises(SimulationOOMError):
            _sim(g, topo2, FakePerf({})).run_step(placement)

    def test_peak_memory_reported(self, topo2):
        g = chain_graph(3, shape=(256, 256))
        d0 = topo2.device_names[0]
        trace = _sim(g, topo2, FakePerf({})).run_step(
            {op.name: d0 for op in g.ops}
        )
        assert trace.peak_memory[d0] >= 256 * 256 * 4


class TestTraceConsistency:
    def test_every_op_recorded_once(self, topo2):
        g = diamond_graph()
        d0, d1 = topo2.device_names
        trace = _sim(g, topo2, FakePerf({})).run_step(
            {"a": d0, "b": d1, "c": d0, "d": d1}
        )
        assert sorted(r.op_name for r in trace.op_records) == ["a", "b", "c", "d"]

    def test_makespan_is_last_event(self, topo2):
        g = diamond_graph()
        d0, d1 = topo2.device_names
        trace = _sim(g, topo2, FakePerf({}, byte_time=0.01)).run_step(
            {"a": d0, "b": d1, "c": d0, "d": d1}
        )
        last = max(r.end for r in trace.op_records)
        assert trace.makespan == pytest.approx(last)

    def test_blocking_edges_recorded(self, topo2):
        # v2 traces carry the event that made each op ready, so the
        # analyzer's critical-path walk is exact.
        g = diamond_graph()
        d0, d1 = topo2.device_names
        trace = _sim(g, topo2, FakePerf({}, byte_time=0.01)).run_step(
            {"a": d0, "b": d0, "c": d1, "d": d0}
        )
        records = {r.op_name: r for r in trace.op_records}
        assert records["a"].blocked_by is None  # source op
        assert records["b"].blocked_by == "op:a"
        assert records["c"].blocked_by == f"transfer:a:0|{d0}|{d1}"
        assert records["d"].blocked_by == f"transfer:c:0|{d1}|{d0}"
        for rec in trace.op_records:
            assert rec.ready is not None
            assert rec.ready <= rec.start + 1e-12

    def test_transfer_queue_and_producer_recorded(self, topo2):
        g = chain_graph(2, shape=(8, 8))
        d0, d1 = topo2.device_names
        trace = _sim(g, topo2, FakePerf({"op0": 1.0}, byte_time=0.01)).run_step(
            {"op0": d0, "op1": d1}
        )
        (rec,) = trace.transfer_records
        assert rec.producer == "op0"
        assert rec.queued_at == pytest.approx(1.0)  # when op0 finished
        assert rec.channel_wait == pytest.approx(0.0)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_dag_schedule_is_consistent(self, data):
        """Property: dependencies respected, devices serial, all ops run."""
        num_layers = data.draw(st.integers(2, 4), label="layers")
        width = data.draw(st.integers(1, 3), label="width")
        topo = single_server(2)
        g = Graph("rand")
        previous_layer = []
        for layer in range(num_layers):
            current = []
            for i in range(width):
                inputs = (
                    [op.outputs[0] for op in previous_layer]
                    if previous_layer
                    else []
                )
                current.append(
                    g.create_op(
                        "Generic", f"l{layer}_{i}", inputs,
                        attrs={"output_shapes": [(16,)]},
                    )
                )
            previous_layer = current
        placement = {
            op.name: data.draw(
                st.sampled_from(topo.device_names), label=op.name
            )
            for op in g.ops
        }
        perf = FakePerf({}, byte_time=0.001)
        trace = ExecutionSimulator(g, topo, perf).run_step(placement)

        assert len(trace.op_records) == g.num_ops
        records = {r.op_name: r for r in trace.op_records}
        # Per-device serial execution: no overlapping intervals.
        by_device = {}
        for r in trace.op_records:
            by_device.setdefault(r.device, []).append(r)
        for recs in by_device.values():
            recs.sort(key=lambda r: r.start)
            for earlier, later in zip(recs, recs[1:]):
                assert later.start >= earlier.end - 1e-9
        # Dependencies respected.
        for op in g.ops:
            for pred in g.predecessors(op):
                assert records[op.name].start >= records[pred.name].end - 1e-9
