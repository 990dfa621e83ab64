"""Property test: every DPOS schedule is a valid schedule.

On random layered DAGs with positive per-(op, device) execution times
and per-pair transfer rates, over 1-3 devices, with idle-slot insertion
on and off, DPOS must place every op exactly once, never overlap two
ops on one device, start every op no earlier than each predecessor's
data arrives, report the latest finish as its finish time, and emit a
topological execution order.  With zero and sub-ulp durations mixed in,
the schedule must also equal :mod:`tests.core.reference_dpos`'s.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import single_server
from repro.core import DPOS

from tests.core.reference_dpos import reference_schedule
from tests.core.test_dpos_bound import random_layered_dag


class PerDeviceComp:
    def __init__(self, times):
        self.times = times

    def time(self, op, device):
        return self.times[op.name, device]

    def max_time(self, op, devices):
        return max(self.time(op, d) for d in devices)


class PairComm:
    def __init__(self, byte_time):
        self.byte_time = byte_time

    def time(self, src, dst, num_bytes):
        return 0.0 if src == dst else num_bytes * self.byte_time[src, dst]

    def max_time(self, num_bytes, pairs):
        return max((self.time(a, b, num_bytes) for a, b in pairs), default=0.0)


def _draw_problem(data, duration):
    """A random layered DAG, cluster, cost models and insertion flag."""
    graph = random_layered_dag(data.draw, max_layers=6, max_width=4)
    num_devices = data.draw(st.integers(1, 3), label="devices")
    topo = single_server(num_devices)
    devices = topo.device_names
    times = {
        (op.name, d): data.draw(duration, label=f"w_{op.name}_{d}")
        for op in graph.ops
        for d in devices
    }
    byte_time = {
        (a, b): data.draw(st.floats(0.0, 0.05), label=f"c_{a}_{b}")
        for a in devices
        for b in devices
        if a != b
    }
    insertion = data.draw(st.booleans(), label="insertion")
    return graph, topo, times, PairComm(byte_time), insertion


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dpos_schedule_is_valid(data):
    graph, topo, times, comm, insertion = _draw_problem(
        data, st.floats(0.01, 10.0, allow_nan=False)
    )
    result = DPOS(
        topo, PerDeviceComp(times), comm, insertion_scheduling=insertion
    ).run(graph)
    _assert_valid(graph, topo.device_names, times, comm, result)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dpos_matches_the_interval_scan_reference(data):
    """Zero and sub-ulp durations too: DPOS scans runs of back-to-back
    intervals, and the reference scans every interval.

    Zero costs tie ranks, so dependency order is not checked here: DPOS
    may place a zero-rank op before its predecessor (see ``DPOS._run``).
    """
    graph, topo, times, comm, insertion = _draw_problem(
        data,
        st.one_of(
            st.sampled_from([0.0, 1e-18, 1.0]),
            st.floats(0.01, 10.0, allow_nan=False),
        ),
    )
    computation = PerDeviceComp(times)
    result = DPOS(
        topo, computation, comm, insertion_scheduling=insertion
    ).run(graph)
    _assert_placed_once_without_overlap(graph, topo.device_names, times, result)
    assert (
        result.strategy.placement, result.start_times, result.finish_times,
        result.ranks, result.critical_path,
    ) == reference_schedule(
        graph, topo.device_names, computation, comm, insertion
    )


def _assert_placed_once_without_overlap(graph, devices, times, result):
    placement = result.strategy.placement

    # Every op placed exactly once, on a real device.
    names = [op.name for op in graph.ops]
    assert sorted(placement) == sorted(names)
    assert sorted(result.start_times) == sorted(names)
    assert set(placement.values()) <= set(devices)
    for name in names:
        duration = times[name, placement[name]]
        assert result.finish_times[name] == result.start_times[name] + duration

    # Per-device [start, finish) intervals never overlap.
    for device in devices:
        intervals = sorted(
            (result.start_times[n], result.finish_times[n])
            for n in names
            if placement[n] == device
        )
        for (_, prev_finish), (start, _) in zip(intervals, intervals[1:]):
            assert start >= prev_finish


def _assert_valid(graph, devices, times, comm, result):
    _assert_placed_once_without_overlap(graph, devices, times, result)
    placement = result.strategy.placement
    names = [op.name for op in graph.ops]

    # Data dependencies: start no earlier than every predecessor's arrival.
    for op in graph.ops:
        start = result.start_times[op.name]
        for pred in graph.predecessors(op):
            arrival = result.finish_times[pred.name]
            src, dst = placement[pred.name], placement[op.name]
            if src != dst:
                arrival += comm.time(src, dst, graph.edge_bytes(pred, op))
            assert start >= arrival

    assert result.finish_time == max(result.finish_times.values())

    # The execution order is a topological order of the graph.
    order = result.strategy.order
    assert sorted(order) == sorted(names)
    position = {name: i for i, name in enumerate(order)}
    for op in graph.ops:
        for pred in graph.predecessors(op):
            assert position[pred.name] < position[op.name]
