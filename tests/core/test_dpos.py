"""Tests for the DPOS list-scheduling algorithm (Alg. 1)."""

import pytest

from repro.cluster import single_server
from repro.core import DPOS
from repro.costmodel import (
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import Graph, build_data_parallel_training_graph
from repro.hardware import PerfModel

from tests.util import build_mlp, chain_graph, diamond_graph


class DictComp:
    """Duck-typed computation model with fixed per-op times."""

    def __init__(self, times, default=1.0):
        self.times = times
        self.default = default

    def time(self, op, device):
        return self.times.get(op.name, self.default)

    def max_time(self, op, devices):
        return self.times.get(op.name, self.default)


class ConstComm:
    """Duck-typed communication model with byte-proportional cost."""

    def __init__(self, byte_time=0.0):
        self.byte_time = byte_time

    def time(self, src, dst, num_bytes):
        return 0.0 if src == dst else num_bytes * self.byte_time

    def max_time(self, num_bytes, pairs):
        return num_bytes * self.byte_time if pairs else 0.0


def _dpos(topo, comp, comm, **kwargs):
    return DPOS(topo, comp, comm, **kwargs)


class TestBasicProperties:
    def test_complete_placement_and_order(self, topo2):
        g = diamond_graph()
        result = _dpos(topo2, DictComp({}), ConstComm()).run(g)
        names = {op.name for op in g.ops}
        assert set(result.placement) == names
        assert set(result.order) == names
        assert len(result.order) == len(names)

    def test_devices_are_known(self, topo2):
        g = diamond_graph()
        result = _dpos(topo2, DictComp({}), ConstComm()).run(g)
        assert set(result.placement.values()) <= set(topo2.device_names)

    def test_finish_time_positive(self, topo2):
        g = chain_graph(4)
        result = _dpos(topo2, DictComp({}, default=2.0), ConstComm()).run(g)
        assert result.finish_time == pytest.approx(8.0)

    def test_chain_stays_on_one_device_when_comm_expensive(self, topo2):
        g = chain_graph(5, shape=(64, 64))
        comp = DictComp({}, default=1.0)
        comm = ConstComm(byte_time=1.0)  # ruinous communication
        result = _dpos(topo2, comp, comm).run(g)
        assert len(set(result.placement.values())) == 1

    def test_parallel_branches_spread_when_comm_free(self, topo4):
        g = diamond_graph()
        comp = DictComp({"a": 1.0, "b": 10.0, "c": 10.0, "d": 1.0})
        result = _dpos(topo4, comp, ConstComm(0.0)).run(g)
        assert result.placement["b"] != result.placement["c"], (
            "free communication should parallelize the branches"
        )
        assert result.finish_time == pytest.approx(12.0)

    def test_order_sorted_by_start_time(self, topo2):
        g = diamond_graph()
        result = _dpos(topo2, DictComp({}), ConstComm()).run(g)
        starts = [result.start_times[name] for name in result.order]
        assert starts == sorted(starts)

    def test_deterministic(self, topo4):
        g = diamond_graph()
        comp = DictComp({"a": 1.0, "b": 3.0, "c": 5.0, "d": 2.0})
        r1 = _dpos(topo4, comp, ConstComm(1e-3)).run(g)
        r2 = _dpos(topo4, comp, ConstComm(1e-3)).run(g)
        assert r1.placement == r2.placement
        assert r1.order == r2.order
        assert r1.finish_time == r2.finish_time

    def test_single_device_cluster(self):
        topo = single_server(1)
        g = diamond_graph()
        result = _dpos(topo, DictComp({}), ConstComm()).run(g)
        assert set(result.placement.values()) == {topo.device_names[0]}
        assert result.finish_time == pytest.approx(4.0)


class TestCriticalPathHandling:
    def test_critical_path_reported(self, topo2):
        g = diamond_graph()
        comp = DictComp({"a": 1.0, "b": 2.0, "c": 10.0, "d": 1.0})
        result = _dpos(topo2, comp, ConstComm()).run(g)
        assert result.critical_path == ["a", "c", "d"]

    def test_critical_path_ops_colocated(self, topo4):
        g = chain_graph(6)
        comp = DictComp({}, default=1.0)
        result = _dpos(topo4, comp, ConstComm(1e-6)).run(g)
        cp_devices = {result.placement[name] for name in result.critical_path}
        assert len(cp_devices) == 1, "CP ops go to the critical-path device"


class TestColocationConstraints:
    def test_group_members_share_a_device(self, topo4):
        g = Graph("coloc")
        v = g.create_op(
            "Variable", "w", attrs={"shape": (8, 8)}, colocation_group="w"
        )
        x = g.create_op("Placeholder", "x", attrs={"shape": (8, 8)})
        mm = g.create_op("MatMul", "mm", [x.outputs[0], v.outputs[0]])
        g.create_op(
            "ApplyGradient", "w_apply", [v.outputs[0], mm.outputs[0]],
            colocation_group="w",
        )
        result = _dpos(topo4, DictComp({}), ConstComm()).run(g)
        assert result.placement["w"] == result.placement["w_apply"]


class TestMemoryAwareness:
    def test_memory_limits_respected(self):
        topo = single_server(2)
        g = Graph("mem")
        # Each op pins ~9 GiB of output; two per 16 GiB GPU don't fit
        # under the 0.9 planning fraction, so DPOS must spread them.
        for i in range(2):
            g.create_op(
                "Generic", f"big{i}",
                attrs={"output_shapes": [(2415919104,)], "flops": 1e9},
            )
        result = DPOS(topo, DictComp({}), ConstComm(), memory_fraction=0.9).run(g)
        assert result.placement["big0"] != result.placement["big1"]

    def test_invalid_memory_fraction(self, topo2):
        with pytest.raises(ValueError):
            DPOS(topo2, DictComp({}), ConstComm(), memory_fraction=0.0)


class TestInsertionScheduling:
    def test_insertion_never_worse(self, topo2):
        graph, _ = build_data_parallel_training_graph(build_mlp, 2, 32)
        perf = PerfModel(topo2)
        comp = OracleComputationModel(perf)
        comm = OracleCommunicationModel(perf)
        with_ins = DPOS(topo2, comp, comm, insertion_scheduling=True).run(graph)
        without = DPOS(topo2, comp, comm, insertion_scheduling=False).run(graph)
        assert with_ins.finish_time <= without.finish_time * 1.0001


class TestOnRealGraphs:
    def test_dp_mlp_schedule_is_feasible(self, topo4):
        graph, _ = build_data_parallel_training_graph(build_mlp, 4, 64)
        perf = PerfModel(topo4)
        result = DPOS(
            topo4,
            OracleComputationModel(perf),
            OracleCommunicationModel(perf),
        ).run(graph)
        # The DPOS estimate must be executable: simulate it.
        from repro.sim import ExecutionSimulator

        trace = ExecutionSimulator(graph, topo4, perf).run_step(
            result.placement, order=result.order
        )
        assert trace.makespan > 0
        # The estimate should be in the ballpark of the simulated time
        # (same costs, but the simulator adds channel contention).
        assert result.finish_time <= trace.makespan * 1.5
