"""Tests for the ground-truth roofline performance model."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.hardware import PerfModel


def _op(flops, out_shape=(1024, 1024), op_type="MatMul"):
    g = Graph("g")
    if op_type == "MatMul":
        # Construct a matmul with approximately the requested FLOPs.
        a = g.create_op("Placeholder", "a", attrs={"shape": (64, 64)}).outputs[0]
        b = g.create_op("Placeholder", "b", attrs={"shape": (64, 64)}).outputs[0]
        return g.create_op("MatMul", "m", [a, b])
    return g.create_op(
        "Generic", "x", attrs={"output_shapes": [out_shape], "flops": flops}
    )


@pytest.fixture
def perf(topo2):
    return PerfModel(topo2)


class TestOpTime:
    def test_launch_overhead_is_floor(self, perf, topo2):
        op = _op(0.0, out_shape=(1,), op_type="Generic")
        t = perf.base_op_time(op, topo2.devices[0])
        assert t >= topo2.devices[0].spec.kernel_launch_overhead

    def test_more_flops_take_longer(self, perf, topo2):
        small = _op(1e6, out_shape=(512, 512), op_type="Generic")
        big = _op(1e9, out_shape=(512, 512), op_type="Generic")
        dev = topo2.devices[0]
        assert perf.base_op_time(big, dev) > perf.base_op_time(small, dev)

    def test_bandwidth_bound_op(self, perf, topo2):
        # Zero-FLOP op with a large output: time dominated by traffic.
        op = _op(0.0, out_shape=(4096, 4096), op_type="Generic")
        dev = topo2.devices[0]
        expected = (
            dev.spec.kernel_launch_overhead
            + op.bytes_accessed / dev.spec.memory_bandwidth
        )
        assert perf.base_op_time(op, dev) == pytest.approx(expected)

    def test_small_outputs_underutilize(self, topo2):
        """Below the saturation point, per-FLOP cost rises (Sec. 6.3)."""
        perf = PerfModel(topo2)
        dev = topo2.devices[0]
        g = Graph("u")
        tiny = g.create_op(
            "Generic", "tiny",
            attrs={"output_shapes": [(64, 64)], "flops": 1e9},
        )
        large = g.create_op(
            "Generic", "large",
            attrs={"output_shapes": [(1024, 1024)], "flops": 1e9},
        )
        assert perf.base_op_time(tiny, dev) > perf.base_op_time(large, dev)

    def test_efficiency_differs_by_type(self, perf):
        assert perf.efficiency["MatMul"] > perf.efficiency["Conv2DBackpropInput"]


class TestNoise:
    def test_no_noise_is_deterministic(self, perf, topo2):
        op = _op(1e8, op_type="Generic")
        dev = topo2.devices[0]
        assert perf.op_time(op, dev) == perf.op_time(op, dev)

    def test_noise_jitters(self, topo2):
        perf = PerfModel(topo2, noise_sigma=0.05, seed=1)
        op = _op(1e8, op_type="Generic")
        dev = topo2.devices[0]
        samples = {perf.op_time(op, dev) for _ in range(8)}
        assert len(samples) > 1

    def test_reseed_reproduces_stream(self, topo2):
        op = _op(1e8, op_type="Generic")
        dev = topo2.devices[0]
        p1 = PerfModel(topo2, noise_sigma=0.05, seed=9)
        first = [p1.op_time(op, dev) for _ in range(4)]
        p1.reseed(9)
        second = [p1.op_time(op, dev) for _ in range(4)]
        assert first == second

    def test_jitter_stream_is_one_scalar_draw_per_execution(self, topo2):
        # Across several refills of the drawn-ahead factors and a reseed,
        # each jittered value is the base times one scalar normal draw.
        perf = PerfModel(topo2, noise_sigma=0.3, seed=5)
        bases = [1.0 + (i % 7) for i in range(10_000)]
        rng = np.random.default_rng(5)
        expected = [b * max(float(rng.normal(1.0, 0.3)), 0.1) for b in bases]
        got = [perf.jittered(b) for b in bases[:6000]]
        got += [perf.jittered(0.0), perf.jittered(-1.0)]  # no draw
        got += [perf.jittered(b) for b in bases[6000:]]
        assert got == expected[:6000] + [0.0, -1.0] + expected[6000:]
        perf.reseed(5)
        assert [perf.jittered(b) for b in bases[:10]] == expected[:10]

    def test_noise_never_negative(self, topo2):
        perf = PerfModel(topo2, noise_sigma=2.0, seed=3)
        op = _op(1e8, op_type="Generic")
        dev = topo2.devices[0]
        assert all(perf.op_time(op, dev) > 0 for _ in range(50))


class TestTransfers:
    def test_base_transfer_matches_topology(self, perf, topo2):
        a, b = topo2.device_names
        assert perf.base_transfer_time(a, b, 10 ** 6) == topo2.transfer_time(
            a, b, 10 ** 6
        )

    def test_local_transfer_free_even_with_noise(self, topo2):
        perf = PerfModel(topo2, noise_sigma=0.1)
        a = topo2.device_names[0]
        assert perf.transfer_time(a, a, 10 ** 9) == 0.0
