"""Tests for the trace analysis & attribution layer (repro.obs.analyze).

The centerpiece is a hand-built 4-op diamond trace whose critical path
is known by construction, so attribution totals are asserted *exactly*
against the makespan — the acceptance criterion of the analyzer.
"""

import json

import pytest

from repro.cluster import single_server
from repro.obs.analyze import (
    ATTRIBUTION_KINDS,
    analyze_step,
    analyze_utilization,
    diff_strategies,
    diff_traces,
    extract_critical_path,
    main,
)
from repro.profiling.trace import OpRecord, StepTrace, TransferRecord
from repro.sim import ExecutionSimulator

from tests.util import diamond_graph

G0, G1 = "/server:0/gpu:0", "/server:0/gpu:1"


def diamond_trace() -> StepTrace:
    """A hand-built diamond a -> {b, c} -> d across two devices.

    a runs on G0 ([0, 1]); b stays on G0 ([1, 3]); c runs on G1 behind a
    1s transfer of a's output ([2, 5]); d runs on G0 behind a 1s
    transfer of c's output ([6, 7]).  The critical path is therefore
    a -> xfer(a:0) -> c -> xfer(c:0) -> d: 5s compute + 2s transfer = 7s
    makespan, with zero wait and zero idle.
    """
    trace = StepTrace(makespan=7.0)
    trace.op_records = [
        OpRecord("a", "Generic", G0, 0.0, 1.0, ready=0.0),
        OpRecord("b", "Generic", G0, 1.0, 3.0, ready=1.0, blocked_by="op:a"),
        OpRecord("c", "Generic", G1, 2.0, 5.0, ready=2.0,
                 blocked_by=f"transfer:a:0|{G0}|{G1}"),
        OpRecord("d", "Generic", G0, 6.0, 7.0, ready=6.0,
                 blocked_by=f"transfer:c:0|{G1}|{G0}"),
    ]
    trace.transfer_records = [
        TransferRecord("a:0", G0, G1, 256, 1.0, 2.0, channel="nv0",
                       queued_at=1.0, producer="a"),
        TransferRecord("c:0", G1, G0, 256, 5.0, 6.0, channel="nv1",
                       queued_at=5.0, producer="c"),
    ]
    return trace


class TestCriticalPathDiamond:
    def test_attribution_sums_exactly_to_makespan(self):
        path = extract_critical_path(diamond_trace())
        assert path.exact
        attribution = path.attribution()
        assert set(attribution) == set(ATTRIBUTION_KINDS)
        assert attribution["compute"] == pytest.approx(5.0)
        assert attribution["transfer"] == pytest.approx(2.0)
        assert attribution["wait"] == pytest.approx(0.0)
        assert attribution["idle"] == pytest.approx(0.0)
        assert path.attributed_total == pytest.approx(path.makespan)
        assert sum(attribution.values()) == pytest.approx(7.0)

    def test_chain_members_in_execution_order(self):
        path = extract_critical_path(diamond_trace())
        assert path.op_names() == ["a", "c", "d"]  # b is off the path
        starts = [seg.start for seg in path.segments]
        assert starts == sorted(starts)
        assert path.segments[0].start == pytest.approx(0.0)
        assert path.segments[-1].end == pytest.approx(7.0)

    def test_segments_telescope(self):
        segments = extract_critical_path(diamond_trace()).segments
        for earlier, later in zip(segments, segments[1:]):
            assert later.start == pytest.approx(earlier.end)

    def test_queue_waits_become_wait_segments(self):
        # Delay d's start 0.5s past ready: an explicit ready-queue wait.
        trace = diamond_trace()
        trace.op_records[-1] = OpRecord(
            "d", "Generic", G0, 6.5, 7.5, ready=6.0,
            blocked_by=f"transfer:c:0|{G1}|{G0}",
        )
        trace.makespan = 7.5
        path = extract_critical_path(trace)
        assert path.exact
        attribution = path.attribution()
        assert attribution["wait"] == pytest.approx(0.5)
        assert path.attributed_total == pytest.approx(7.5)
        waits = [s for s in path.segments if s.kind == "wait"]
        assert [w.detail for w in waits] == ["ready-queue"]

    def test_channel_queue_wait_attributed(self):
        # The c:0 copy is requested at 5 but the channel frees at 5.4.
        trace = diamond_trace()
        trace.transfer_records[1] = TransferRecord(
            "c:0", G1, G0, 256, 5.4, 6.4, channel="nv1",
            queued_at=5.0, producer="c",
        )
        trace.op_records[-1] = OpRecord(
            "d", "Generic", G0, 6.4, 7.4, ready=6.4,
            blocked_by=f"transfer:c:0|{G1}|{G0}",
        )
        trace.makespan = 7.4
        path = extract_critical_path(trace)
        assert path.exact
        attribution = path.attribution()
        assert attribution["wait"] == pytest.approx(0.4)
        assert path.attributed_total == pytest.approx(7.4)
        waits = [s for s in path.segments if s.kind == "wait"]
        assert [w.detail for w in waits] == ["channel-queue"]

    def test_legacy_trace_without_edges_is_inexact_but_complete(self):
        # Strip v2 fields: the walk falls back to adjacency inference.
        trace = diamond_trace()
        trace.op_records = [
            OpRecord(r.op_name, r.op_type, r.device, r.start, r.end)
            for r in trace.op_records
        ]
        trace.transfer_records = [
            TransferRecord(t.tensor_name, t.src_device, t.dst_device,
                           t.num_bytes, t.start, t.end, channel=t.channel)
            for t in trace.transfer_records
        ]
        path = extract_critical_path(trace)
        assert not path.exact
        assert path.attributed_total == pytest.approx(trace.makespan)

    def test_empty_trace(self):
        path = extract_critical_path(StepTrace())
        assert path.segments == []
        assert path.attributed_total == 0.0


class TestUtilizationPartition:
    def test_per_device_partition_sums_to_makespan(self):
        devices, _ = analyze_utilization(diamond_trace())
        assert len(devices) == 2
        for dev in devices:
            assert sum(dev.breakdown().values()) == pytest.approx(7.0)

    def test_known_partition_values(self):
        devices, channels = analyze_utilization(diamond_trace())
        by_name = {d.device: d for d in devices}
        # G0: kernels [0,3] + [6,7]; inbound c:0 covers [5,6] of the
        # [3,6] gap; the rest ([3,5]) precedes its last kernel -> wait.
        g0 = by_name[G0]
        assert g0.compute == pytest.approx(4.0)
        assert g0.transfer == pytest.approx(1.0)
        assert g0.wait == pytest.approx(2.0)
        assert g0.idle == pytest.approx(0.0)
        # G1: kernel [2,5]; inbound a:0 covers [1,2]; [0,1] is wait,
        # [5,7] trails its last kernel -> idle.
        g1 = by_name[G1]
        assert g1.compute == pytest.approx(3.0)
        assert g1.transfer == pytest.approx(1.0)
        assert g1.wait == pytest.approx(1.0)
        assert g1.idle == pytest.approx(2.0)
        assert g0.bytes_out == 256 and g0.bytes_in == 256
        assert {c.channel for c in channels} == {"nv0", "nv1"}

    def test_straggler_and_imbalance(self):
        analysis = analyze_step(diamond_trace(), label="diamond")
        assert analysis.straggler == G0  # 4s compute vs 3s
        assert analysis.imbalance == pytest.approx(4.0 / 3.5)
        rendered = analysis.render()
        assert "diamond" in rendered
        assert G0 in rendered

    def test_to_json_is_serializable(self):
        document = analyze_step(diamond_trace()).to_json()
        parsed = json.loads(json.dumps(document))
        assert parsed["makespan"] == pytest.approx(7.0)
        assert set(parsed["critical_path"]["attribution"]) == set(
            ATTRIBUTION_KINDS
        )


class FakePerf:
    def __init__(self, op_times=None, byte_time=0.01):
        self.op_times = op_times or {}
        self.byte_time = byte_time

    def op_time(self, op, device):
        return self.op_times.get(op.name, 1.0)

    def transfer_time(self, src, dst, num_bytes):
        return 0.0 if src == dst else num_bytes * self.byte_time


class TestOnSimulatedTraces:
    """The analyzer must be exact on what the simulator actually emits."""

    def _trace(self, topo):
        g = diamond_graph()
        d0, d1 = topo.device_names
        return ExecutionSimulator(g, topo, FakePerf()).run_step(
            {"a": d0, "b": d0, "c": d1, "d": d0}
        )

    def test_simulated_diamond_is_exact(self, topo2):
        trace = self._trace(topo2)
        path = extract_critical_path(trace)
        assert path.exact
        assert path.attributed_total == pytest.approx(trace.makespan)

    def test_simulated_partition_sums(self, topo2):
        trace = self._trace(topo2)
        devices, _ = analyze_utilization(trace)
        for dev in devices:
            assert sum(dev.breakdown().values()) == pytest.approx(
                trace.makespan
            )

    def test_analysis_survives_serialization(self, topo2, tmp_path):
        trace = self._trace(topo2)
        loaded = StepTrace.load(trace.save(str(tmp_path / "t.step.json")))
        live = extract_critical_path(trace)
        disk = extract_critical_path(loaded)
        assert disk.exact == live.exact
        assert disk.attribution() == pytest.approx(live.attribution())


class _Split:
    def __init__(self, op_name, dim, num_splits):
        self.op_name, self.dim, self.num_splits = op_name, dim, num_splits


class _Strategy:
    def __init__(self, placement, order=(), split_list=()):
        self.placement = dict(placement)
        self.order = list(order)
        self.split_list = list(split_list)


class TestStrategyDiff:
    def test_identical(self):
        s = _Strategy({"a": G0}, order=["a"], split_list=[_Split("a", 0, 2)])
        assert diff_strategies(s, s).identical

    def test_moves_adds_and_splits(self):
        a = _Strategy({"x": G0, "y": G0, "gone": G1},
                      order=["x", "y"], split_list=[_Split("x", 0, 2)])
        b = _Strategy({"x": G1, "y": G0, "new": G1},
                      order=["y", "x"],
                      split_list=[_Split("x", 0, 4), _Split("y", 1, 2)])
        diff = diff_strategies(a, b)
        assert diff.moved == [("x", G0, G1)]
        assert diff.only_a == ["gone"] and diff.only_b == ["new"]
        assert {c[0] for c in diff.order_changes} == {"x", "y"}
        assert diff.splits_added == ["y"]
        assert diff.splits_changed == ["x"]
        assert not diff.identical


class TestTraceDiff:
    def test_delta_attributed_to_moved_op(self):
        slow = diamond_trace()
        # Fast variant: c's transfer-in is free and c itself is quicker,
        # pulling the makespan from 7 to 5.
        fast = StepTrace(makespan=5.0)
        fast.op_records = [
            OpRecord("a", "Generic", G0, 0.0, 1.0, ready=0.0),
            OpRecord("b", "Generic", G0, 1.0, 3.0, ready=1.0,
                     blocked_by="op:a"),
            OpRecord("c", "Generic", G0, 3.0, 4.0, ready=1.0,
                     blocked_by="op:a"),
            OpRecord("d", "Generic", G0, 4.0, 5.0, ready=4.0,
                     blocked_by="op:c"),
        ]
        diff = diff_traces(slow, fast, label_a="slow", label_b="fast")
        assert diff.makespan_delta == pytest.approx(-2.0)
        assert diff.speedup == pytest.approx(7.0 / 5.0)
        movers = {d.op_name: d for d in diff.top_movers()}
        assert movers["c"].moved  # G1 -> G0
        assert movers["c"].delta == pytest.approx(-2.0)
        assert set(diff.attribution_delta()) == set(ATTRIBUTION_KINDS)
        rendered = diff.render()
        assert "slow" in rendered and "fast" in rendered
        assert json.loads(json.dumps(diff.to_json()))


class TestCLI:
    def _trace_dir(self, tmp_path, name="run"):
        directory = tmp_path / name
        directory.mkdir()
        diamond_trace().save(str(directory / "diamond.step.json"))
        return directory

    def test_analyze_directory(self, tmp_path, capsys):
        directory = self._trace_dir(tmp_path)
        out_json = tmp_path / "analysis.json"
        assert main([str(directory), "--json", str(out_json)]) == 0
        assert "critical path" in capsys.readouterr().out
        assert "diamond" in json.loads(out_json.read_text())

    def test_analyze_nothing_found(self, tmp_path):
        assert main([str(tmp_path)]) == 2

    def test_diff_two_traces(self, tmp_path, capsys):
        a = str(self._trace_dir(tmp_path, "a") / "diamond.step.json")
        assert main(["--diff", a, a]) == 0
        assert "makespan" in capsys.readouterr().out


class TestLazyExports:
    def test_package_getattr_resolves_analyzer_names(self):
        import repro.obs as obs

        assert obs.extract_critical_path is extract_critical_path
        with pytest.raises(AttributeError):
            obs.no_such_name


class TestExplainOnOptimizeResult:
    def test_explain_and_diff(self):
        import repro
        from repro import FastTConfig, SearchOptions

        config = FastTConfig(
            max_rounds=1, min_rounds=1, profiling_steps=1,
            search=SearchOptions(max_candidate_ops=2, split_counts=[2]),
        )
        result = repro.optimize("lenet", single_server(2), config=config)
        analysis = result.explain()
        assert analysis.makespan > 0
        attribution = analysis.critical_path.attribution()
        assert sum(attribution.values()) == pytest.approx(analysis.makespan)
        for dev in analysis.devices:
            assert sum(dev.breakdown().values()) == pytest.approx(
                analysis.makespan
            )
        diff = result.diff(result)
        assert diff.strategy is not None and diff.strategy.identical
        assert "strategy diff" in diff.render()


class TestRoutedMultiHopTraces:
    """Attribution stays exact when transfers cross several channels."""

    def _trace(self, topo):
        class RoutedPerf:
            def op_time(self, op, device):
                return 1.0

            def transfer_time(self, src, dst, num_bytes):
                return topo.transfer_time(src, dst, num_bytes)

            def link_time(self, link, num_bytes):
                return link.hop_time(num_bytes) if num_bytes > 0 else 0.0

        g = diamond_graph()
        names = topo.device_names
        placement = {"a": names[0], "b": names[1], "c": names[2],
                     "d": names[0]}
        return ExecutionSimulator(g, topo, RoutedPerf()).run_step(placement)

    def test_critical_path_exact_and_sums_to_makespan(self):
        from repro.cluster import pcie_server

        trace = self._trace(pcie_server(3))
        path = extract_critical_path(trace)
        assert path.exact
        assert path.attributed_total == pytest.approx(trace.makespan)
        assert sum(path.attribution().values()) == pytest.approx(
            trace.makespan
        )

    def test_device_partition_sums_on_routed_trace(self):
        from repro.cluster import pcie_server

        trace = self._trace(pcie_server(3))
        devices, _ = analyze_utilization(trace)
        for dev in devices:
            assert sum(dev.breakdown().values()) == pytest.approx(
                trace.makespan
            )

    def test_bridge_channel_reported(self):
        from repro.cluster import pcie_server

        trace = self._trace(pcie_server(3))
        _, channels = analyze_utilization(trace)
        by_name = {c.channel: c for c in channels}
        bridge = by_name["pcie-bridge:host:0"]
        # a:0 crosses the bridge to gpu:1 and to gpu:2; c:0 comes back.
        assert bridge.num_transfers >= 3
        assert bridge.busy > 0

    def test_bytes_counted_once_per_logical_transfer(self):
        from repro.cluster import pcie_server

        topo = pcie_server(3)
        trace = self._trace(topo)
        devices, _ = analyze_utilization(trace)
        by_name = {d.device: d for d in devices}
        # Each logical transfer is 3 hop records, but the 64-byte
        # tensors must count once per logical transfer.
        src = by_name[topo.device_names[0]]
        assert src.bytes_out == 128  # a:0 to gpu:1 and to gpu:2
        assert src.bytes_in == 128   # b:0 and c:0 back for d
