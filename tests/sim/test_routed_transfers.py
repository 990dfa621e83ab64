"""Simulator tests for routed multi-channel transfers.

A transfer through a link-graph topology crosses every contended
channel on its route in order — one record per hop, store-and-forward
timing, and independent queueing per channel.  These tests pin that
behaviour on the PCIe host-bridge preset, where every GPU pair shares
one bridge.
"""

import pytest

from repro.cluster import multi_server, pcie_server, single_server
from repro.sim import ExecutionSimulator

from tests.util import BatchedPerf, chain_graph, diamond_graph


class RoutedFakePerf(BatchedPerf):
    """Unit op times; transfer math straight from the topology."""

    def __init__(self, topo, op_time=1.0):
        self.topo = topo
        self._op = op_time

    def op_time(self, op, device):
        return self._op

    def transfer_time(self, src, dst, num_bytes):
        return self.topo.transfer_time(src, dst, num_bytes)

    def link_time(self, link, num_bytes):
        if num_bytes <= 0:
            return 0.0
        return link.hop_time(num_bytes)


def _records_by_channel(trace):
    by_channel = {}
    for rec in trace.transfer_records:
        by_channel.setdefault(rec.channel, []).append(rec)
    return by_channel


class TestMultiHopTransfers:
    def test_one_record_per_route_channel(self):
        topo = pcie_server(2)
        d0, d1 = topo.device_names
        g = chain_graph(2)
        trace = ExecutionSimulator(g, topo, RoutedFakePerf(topo)).run_step(
            {"op0": d0, "op1": d1}
        )
        route = topo.route(d0, d1)
        assert len(trace.transfer_records) == len(route.channels) == 3
        assert [r.channel for r in trace.transfer_records] == [
            link.shared_channel for link in route.channels
        ]
        # Every hop record carries the logical endpoints and byte count.
        assert {
            (r.tensor_name, r.src_device, r.dst_device, r.num_bytes)
            for r in trace.transfer_records
        } == {(trace.transfer_records[0].tensor_name, d0, d1, 256)}

    def test_hops_are_store_and_forward(self):
        topo = pcie_server(2)
        d0, d1 = topo.device_names
        g = chain_graph(2)
        trace = ExecutionSimulator(g, topo, RoutedFakePerf(topo)).run_step(
            {"op0": d0, "op1": d1}
        )
        records = sorted(trace.transfer_records, key=lambda r: r.start)
        route = topo.route(d0, d1)
        for rec, link in zip(records, route.channels):
            assert rec.duration == pytest.approx(link.hop_time(256))
        for prev, nxt in zip(records, records[1:]):
            assert nxt.start == pytest.approx(prev.end)
        # Total in-flight time equals the route's uncontended estimate,
        # and the consumer starts exactly when the last hop lands.
        assert records[-1].end - records[0].start == pytest.approx(
            route.time(256)
        )
        op1 = next(r for r in trace.op_records if r.op_name == "op1")
        assert op1.start == pytest.approx(records[-1].end)

    def test_concurrent_transfers_serialize_on_the_bridge(self):
        # a on gpu0 feeds b on gpu1 and c on gpu2: two logical transfers
        # with distinct lanes but one shared host bridge.
        topo = pcie_server(3)
        d0, d1, d2 = topo.device_names
        g = diamond_graph()
        trace = ExecutionSimulator(g, topo, RoutedFakePerf(topo)).run_step(
            {"a": d0, "b": d1, "c": d2, "d": d0}
        )
        bridge = [
            r
            for r in trace.transfer_records
            if r.channel == "pcie-bridge:host:0"
        ]
        assert len(bridge) >= 2
        bridge.sort(key=lambda r: r.start)
        for prev, nxt in zip(bridge, bridge[1:]):
            assert nxt.start >= prev.end - 1e-12
        # The one that queued shows its wait on the contended channel.
        assert any(r.channel_wait > 0 for r in bridge)

    def test_route_channels_all_appear_in_trace(self):
        topo = multi_server(2, 2)
        names = topo.device_names
        g = chain_graph(2)
        src, dst = names[0], names[-1]
        trace = ExecutionSimulator(g, topo, RoutedFakePerf(topo)).run_step(
            {"op0": src, "op1": dst}
        )
        route = topo.route(src, dst)
        seen = set(_records_by_channel(trace))
        assert {link.shared_channel for link in route.channels} <= seen

    def test_legacy_topology_still_single_record(self):
        topo = single_server(2)
        d0, d1 = topo.device_names
        g = chain_graph(2)
        trace = ExecutionSimulator(g, topo, RoutedFakePerf(topo)).run_step(
            {"op0": d0, "op1": d1}
        )
        assert len(trace.transfer_records) == 1
        assert trace.transfer_records[0].channel == f"nvlink:{d0}->*"

    def test_makespan_includes_routed_transfer(self):
        topo = pcie_server(2)
        d0, d1 = topo.device_names
        g = chain_graph(2)
        trace = ExecutionSimulator(g, topo, RoutedFakePerf(topo)).run_step(
            {"op0": d0, "op1": d1}
        )
        assert trace.makespan == pytest.approx(
            2.0 + topo.route(d0, d1).time(256)
        )
