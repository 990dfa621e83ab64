"""Ground-truth hardware performance model (the simulated testbed).

This module plays the role the physical V100s play in the paper: it
decides how long each kernel *actually* takes.  FastT's algorithms never
import it — they only see durations through the profiler, mirroring the
paper's measurement-driven cost models.

The model is an analytic roofline: a kernel needs
``flops / (efficiency * peak_flops)`` seconds of math and
``bytes / memory_bandwidth`` seconds of memory traffic; the slower of the
two dominates, plus a fixed kernel-launch overhead.  Per-op-type
efficiency factors capture that GEMM-like kernels come close to peak
while convolutions and fused RNN cells lose more to im2col/launch
inefficiencies.  Optional multiplicative noise models run-to-run jitter
so the profiler has something to average over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Device, LinkSpec, Topology
from ..graph import Operation

#: Fraction of peak FP32 throughput each op class achieves.  The conv
#: numbers are calibrated against the paper's own kernel measurements
#: (Table 5: VGG-19 conv1_2 takes 11.14 ms forward and 26.74 ms backward
#: at its best-speed-up setting, implying ~0.34 / ~0.15 of V100 FP32
#: peak — im2col and dgrad/wgrad kernels are far from GEMM efficiency).
DEFAULT_EFFICIENCY: Dict[str, float] = {
    "Conv2D": 0.34,
    "Conv2DBackpropInput": 0.16,
    "Conv2DBackpropFilter": 0.16,
    "MatMul": 0.70,
    "LSTMCell": 0.45,
    "LSTMCellGrad": 0.45,
    "Embedding": 0.10,
    "EmbeddingGrad": 0.10,
}
_DEFAULT_EFF = 0.25  # everything else (elementwise is bandwidth-bound anyway)

#: Zero-FLOP op types whose memory traffic is never charged: feeds and
#: parameter reads are resident, so only the launch overhead remains.
_RESIDENT_TYPES = ("Placeholder", "Variable", "Const", "NoOp")

#: Jitter factors drawn per refill of :attr:`PerfModel._factors`.
_JITTER_BLOCK = 256


@dataclass
class PerfModel:
    """Analytic kernel/transfer timing with optional jitter.

    Attributes:
        topology: Cluster whose links price transfers.
        noise_sigma: Std-dev of the multiplicative lognormal-ish jitter
            applied per execution (0 disables noise).
        efficiency: Per-op-type fraction of peak FLOPs achieved.
        seed: Seed for the jitter stream.
    """

    topology: Topology
    noise_sigma: float = 0.0
    efficiency: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EFFICIENCY)
    )
    seed: int = 0
    #: Output elements needed to saturate the GPU's thread capacity; below
    #: this, achieved throughput degrades linearly.  This is what makes
    #: small per-GPU batches inefficient — the effect the paper cites for
    #: data parallelism's poor strong scaling ("smaller batch size per GPU
    #: which cannot achieve good GPU utilization", Sec. 6.3).
    saturation_elements: int = 131072

    def __post_init__(self) -> None:
        self.reseed(self.seed)

    def reseed(self, seed: int) -> None:
        """Reset the jitter stream (used between simulated runs)."""
        self._rng = np.random.default_rng(seed)
        # Jitter factors drawn ahead, the next one last.  One vectorized
        # draw yields exactly the values as many scalar draws would, so
        # the stream is unchanged (``noise_sigma`` is fixed after
        # construction).
        self._factors: List[float] = []

    # ------------------------------------------------------------------
    def base_op_time(self, op: Operation, device: Device) -> float:
        """Noise-free execution time of ``op`` on ``device``.

        ``device.compute_scale`` throttles both the FLOP and memory
        roofline terms, so heterogeneous clusters (mixed specs or
        down-clocked cards) slow down proportionally.
        """
        spec = device.spec
        eff = self.efficiency.get(op.op_type, _DEFAULT_EFF)
        if op.flops:
            # Exploitable parallelism: the widest tensor the kernel touches
            # (outputs alone would starve update ops whose dataflow output
            # is a 1-element completion token).
            out_elems = sum(t.num_elements for t in op.outputs)
            in_elems = sum(t.num_elements for t in op.inputs)
            width = max(out_elems, in_elems, 1)
            utilization = min(1.0, width / self.saturation_elements)
            utilization = max(utilization, 1e-3)
            compute = op.flops / (
                eff * spec.peak_flops * device.compute_scale * utilization
            )
        else:
            compute = 0.0
        traffic = op.bytes_accessed / (
            spec.memory_bandwidth * device.compute_scale
        )
        if op.flops == 0.0 and op.op_type in _RESIDENT_TYPES:
            # Feeds/parameter reads are resident; charge only the launch.
            traffic = 0.0
        return spec.kernel_launch_overhead + max(compute, traffic)

    def batch_op_cost_inputs(
        self, ops: "Sequence[Operation]"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Device-independent per-op arrays for :meth:`batch_base_op_times`.

        Returns ``(flops, width, bytes_accessed, efficiency, traffic_free)``
        parallel to ``ops``.  Integer FLOP/byte/width values convert to
        float64 exactly (they are far below 2**53), so feeding these arrays
        through the vectorized roofline reproduces the scalar path bit for
        bit.
        """
        n = len(ops)
        flops = np.empty(n, dtype=np.float64)
        width = np.empty(n, dtype=np.float64)
        bytes_accessed = np.empty(n, dtype=np.float64)
        efficiency = np.empty(n, dtype=np.float64)
        traffic_free = np.zeros(n, dtype=bool)
        for i, op in enumerate(ops):
            f = op.flops
            flops[i] = f
            out_elems = sum(t.num_elements for t in op.outputs)
            in_elems = sum(t.num_elements for t in op.inputs)
            width[i] = max(out_elems, in_elems, 1)
            bytes_accessed[i] = op.bytes_accessed
            efficiency[i] = self.efficiency.get(op.op_type, _DEFAULT_EFF)
            traffic_free[i] = f == 0.0 and op.op_type in _RESIDENT_TYPES
        return flops, width, bytes_accessed, efficiency, traffic_free

    def op_time(self, op: Operation, device: Device) -> float:
        """One observed execution: base time with jitter applied."""
        return self._jitter(self.base_op_time(op, device))

    def batch_base_op_times(
        self,
        flops: np.ndarray,
        width: np.ndarray,
        bytes_accessed: np.ndarray,
        efficiency: np.ndarray,
        traffic_free: np.ndarray,
        device: Device,
    ) -> np.ndarray:
        """Vectorized :meth:`base_op_time` over parallel per-op arrays.

        Every expression mirrors the scalar path's left-to-right operator
        association, so each element is bit-identical to what
        :meth:`base_op_time` returns for the same op — the event-heap
        simulator depends on that to stay trace-exact with the reference
        runner.  ``traffic_free`` marks resident feeds/parameter reads
        (zero-FLOP Placeholder/Variable/Const/NoOp) whose traffic term is
        zeroed; for zero-FLOP ops ``flops / denom`` is ``+0.0``, matching
        the scalar branch that never computes the roofline at all.
        """
        spec = device.spec
        scale = device.compute_scale
        utilization = np.maximum(
            np.minimum(1.0, width / float(self.saturation_elements)), 1e-3
        )
        compute = flops / (((efficiency * spec.peak_flops) * scale) * utilization)
        traffic = bytes_accessed / (spec.memory_bandwidth * scale)
        traffic = np.where(traffic_free, 0.0, traffic)
        return spec.kernel_launch_overhead + np.maximum(compute, traffic)

    def base_transfer_time(self, src: str, dst: str, num_bytes: int) -> float:
        """Noise-free tensor transfer duration between two devices."""
        return self.topology.transfer_time(src, dst, num_bytes)

    def transfer_time(self, src: str, dst: str, num_bytes: int) -> float:
        """One observed transfer duration with jitter."""
        base = self.base_transfer_time(src, dst, num_bytes)
        return self._jitter(base) if base else 0.0

    def base_link_time(self, link: LinkSpec, num_bytes: int) -> float:
        """Noise-free duration of one hop of a routed transfer."""
        if num_bytes <= 0:
            return 0.0
        return link.hop_time(num_bytes)

    def link_time(self, link: LinkSpec, num_bytes: int) -> float:
        """One observed hop duration with jitter (multi-channel routes)."""
        base = self.base_link_time(link, num_bytes)
        return self._jitter(base) if base else 0.0

    # ------------------------------------------------------------------
    def jittered(self, value: float) -> float:
        """Apply one draw of run-to-run jitter to a precomputed base time.

        Exposed so a caller holding batch-computed base times can consume
        the jitter stream in exactly the per-execution order the scalar
        ``*_time`` methods would.
        """
        return self._jitter(value)

    def _jitter(self, value: float) -> float:
        if self.noise_sigma <= 0.0 or value <= 0.0:
            return value
        factors = self._factors
        if not factors:
            block = self._rng.normal(1.0, self.noise_sigma, _JITTER_BLOCK)
            factors.extend(reversed(block.tolist()))
        return value * max(factors.pop(), 0.1)
