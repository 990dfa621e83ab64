"""Reference (seed) implementation of the step simulator.

This test fixture preserves, verbatim, the straightforward per-dispatch
implementation that :class:`repro.sim.ExecutionSimulator` replaced with
plan-cached, integer-indexed state and numpy-batched cost lookups.  It
exists for one purpose: the equivalence suite replays every model-zoo trace through both simulators
and asserts bit-identical results, so any drift in the optimized runner
is caught against this executable specification rather than against
frozen golden files.

Do not optimize this file.  Its value is that it computes every duration
with the naive per-op / per-transfer cost-model calls whose float
arithmetic and RNG draw order define the contract.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cluster import LinkSpec, Topology
from repro.graph import Graph, Operation
from repro.hardware import PerfModel
from repro.obs import Observability, get_obs
from repro.profiling.trace import OpRecord, StepTrace, TransferRecord

from .memory_tracker import MemoryTracker

FIFO = "fifo"
PRIORITY = "priority"
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on inconsistent simulator inputs (bad placement, deadlock)."""


@dataclass
class _Transfer:
    tensor_name: str
    src: str
    dst: str
    num_bytes: int
    consumers: int
    queued_at: float = 0.0
    producer: str = ""
    #: The contended channels the route crosses, in order; the transfer
    #: queues on each in sequence (store-and-forward).
    hops: Tuple[LinkSpec, ...] = ()
    hop: int = 0


class ReferenceSimulator:
    """Seed-identical step simulator (the executable specification)."""

    def __init__(
        self,
        graph: Graph,
        topology: Topology,
        perf_model: PerfModel,
        enforce_memory: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.topology = topology
        self.perf = perf_model
        self.enforce_memory = enforce_memory
        self.obs = get_obs(obs)

    # ------------------------------------------------------------------
    def run_step(
        self,
        placement: Mapping[str, str],
        order: Optional[Sequence[str]] = None,
        policy: str = FIFO,
    ) -> StepTrace:
        """Simulate one iteration and return its trace.

        Args:
            placement: op name -> device name, complete over the graph.
            order: FastT's execution order list; required when ``policy``
                is ``"priority"`` (ops absent from the list run last).
            policy: ``"fifo"`` or ``"priority"``.

        Raises:
            SimulationError: incomplete placement or scheduling deadlock.
            SimulationOOMError: a device ran out of memory (when
                ``enforce_memory``).
        """
        if policy not in (FIFO, PRIORITY):
            raise SimulationError(f"unknown scheduling policy {policy!r}")
        obs = self.obs
        with obs.events.span("sim.step", policy=policy, graph=self.graph.name):
            state = _StepState(self, placement, order, policy)
            trace = state.run()
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("sim.steps").inc()
            metrics.counter("sim.op_executions").inc(len(trace.op_records))
            metrics.counter("sim.transfers").inc(len(trace.transfer_records))
            metrics.timer("sim.simulated").add(trace.makespan)
            metrics.timer("sim.queue_wait").add(trace.total_queue_wait)
            metrics.gauge("sim.last_makespan").set(trace.makespan)
        return trace


class _StepState:
    """All mutable state of one simulated step."""

    def __init__(
        self,
        sim: ReferenceSimulator,
        placement: Mapping[str, str],
        order: Optional[Sequence[str]],
        policy: str,
    ) -> None:
        self.sim = sim
        self.graph = sim.graph
        self.policy = policy
        self.device_names = sim.topology.device_names
        dev_set = set(self.device_names)
        self.placement: Dict[str, str] = {}
        for op in self.graph.ops:
            dev = placement.get(op.name)
            if dev is None:
                raise SimulationError(f"placement misses op {op.name!r}")
            if dev not in dev_set:
                raise SimulationError(
                    f"op {op.name!r} placed on unknown device {dev!r}"
                )
            self.placement[op.name] = dev

        self.priority: Dict[str, float] = {}
        if order is not None:
            self.priority = {name: i for i, name in enumerate(order)}
        elif policy == PRIORITY:
            raise SimulationError("priority policy requires an order list")

        # Per-tensor consumer ops grouped by consuming device.
        self.consumers_by_device: Dict[str, Dict[str, List[Operation]]] = {}
        self.deps_remaining: Dict[str, int] = {}
        for op in self.graph.ops:
            distinct = {t.name: t for t in op.inputs}
            self.deps_remaining[op.name] = len(distinct)
            for t in distinct.values():
                per_dev = self.consumers_by_device.setdefault(t.name, {})
                per_dev.setdefault(self.placement[op.name], []).append(op)

        self.available: Set[Tuple[str, str]] = set()  # (tensor, device)
        self.memory = MemoryTracker(
            capacities={d.name: d.memory_bytes for d in sim.topology.devices},
            enforce=sim.enforce_memory,
        )
        self.ready: Dict[str, List[Tuple[float, float, int, Operation]]] = {
            d: [] for d in self.device_names
        }
        self.ready_time: Dict[str, float] = {}
        # op name -> the input event whose arrival made it ready
        # ("op:<name>" or "transfer:<tensor>:<src>-><dst>"), recorded so
        # critical-path extraction is exact rather than inferred.
        self.blocked_by: Dict[str, Optional[str]] = {}
        self.device_busy: Dict[str, bool] = {d: False for d in self.device_names}
        self.channel_busy: Dict[str, bool] = {}
        self.channel_queue: Dict[str, Deque[_Transfer]] = {}
        self.events: List[Tuple[float, int, str, object]] = []
        self.seq = itertools.count()
        self.trace = StepTrace()
        self.completed = 0

    # ------------------------------------------------------------------
    def run(self) -> StepTrace:
        for op in self.graph.ops:
            if self.deps_remaining[op.name] == 0:
                self._enqueue_ready(op, 0.0)
        for dev in self.device_names:
            self._dispatch_device(dev, 0.0)

        makespan = 0.0
        while self.events:
            time, _, kind, payload = heapq.heappop(self.events)
            makespan = max(makespan, time)
            if kind == "op_finish":
                self._on_op_finish(payload, time)  # type: ignore[arg-type]
            else:
                self._on_transfer_finish(payload, time)  # type: ignore[arg-type]

        if self.completed != self.graph.num_ops:
            stuck = [
                name for name, n in self.deps_remaining.items() if n > 0
            ][:10]
            raise SimulationError(
                f"deadlock: {self.graph.num_ops - self.completed} ops never "
                f"ran (e.g. {stuck})"
            )
        self.trace.makespan = makespan
        self.trace.peak_memory = dict(self.memory.peak)
        self.trace.op_records.sort(key=lambda r: r.start)
        self.trace.transfer_records.sort(key=lambda r: r.start)
        return self.trace

    # ------------------------------------------------------------------
    def _enqueue_ready(
        self, op: Operation, time: float, cause: Optional[str] = None
    ) -> None:
        dev = self.placement[op.name]
        self.ready_time[op.name] = time
        self.blocked_by[op.name] = cause
        if self.policy == PRIORITY:
            key = self.priority.get(op.name, _INF)
            heapq.heappush(self.ready[dev], (key, time, next(self.seq), op))
        else:
            heapq.heappush(self.ready[dev], (time, 0.0, next(self.seq), op))

    def _dispatch_device(self, dev: str, time: float) -> None:
        if self.device_busy[dev] or not self.ready[dev]:
            return
        _, _, _, op = heapq.heappop(self.ready[dev])
        self.device_busy[dev] = True
        self._allocate_outputs(op, dev)
        duration = self.sim.perf.op_time(op, self.sim.topology.device(dev))
        end = time + duration
        self.trace.op_records.append(
            OpRecord(
                op.name, op.op_type, dev, time, end,
                ready=self.ready_time.get(op.name, time),
                blocked_by=self.blocked_by.get(op.name),
            )
        )
        heapq.heappush(self.events, (end, next(self.seq), "op_finish", op))

    def _allocate_outputs(self, op: Operation, dev: str) -> None:
        persistent = op.op_type == "Variable"
        for t in op.outputs:
            per_dev = self.consumers_by_device.get(t.name, {})
            local = len(per_dev.get(dev, ()))
            remote_devices = [d for d in per_dev if d != dev]
            self.memory.allocate(
                t.name,
                dev,
                t.size_bytes,
                consumers=local + len(remote_devices),
                persistent=persistent,
            )

    # ------------------------------------------------------------------
    def _on_op_finish(self, op: Operation, time: float) -> None:
        dev = self.placement[op.name]
        self.device_busy[dev] = False
        self.completed += 1
        # Release this op's holds on its (local copies of) inputs.
        for t_name in {t.name for t in op.inputs}:
            self.memory.release(t_name, dev)
        # Outputs become available locally and trigger remote transfers.
        for t in op.outputs:
            self._mark_available(t.name, dev, time, cause=f"op:{op.name}")
            per_dev = self.consumers_by_device.get(t.name, {})
            for dst, ops in per_dev.items():
                if dst == dev:
                    continue
                self._enqueue_transfer(
                    _Transfer(
                        t.name, dev, dst, t.size_bytes, len(ops),
                        queued_at=time, producer=op.name,
                    ),
                    time,
                )
        self._dispatch_device(dev, time)

    def _mark_available(
        self, tensor_name: str, dev: str, time: float, cause: Optional[str] = None
    ) -> None:
        key = (tensor_name, dev)
        if key in self.available:
            return
        self.available.add(key)
        for op in self.consumers_by_device.get(tensor_name, {}).get(dev, ()):
            self.deps_remaining[op.name] -= 1
            if self.deps_remaining[op.name] == 0:
                self._enqueue_ready(op, time, cause=cause)
        self._dispatch_device(dev, time)

    # ------------------------------------------------------------------
    def _enqueue_transfer(self, transfer: _Transfer, time: float) -> None:
        route = self.sim.topology.route(transfer.src, transfer.dst)
        # All-wire routes (no contended channel) still produce one hop —
        # the effective link — so the transfer is traced and pays its
        # route latency; infinite bandwidth makes the queueing harmless.
        transfer.hops = route.channels or (
            self.sim.topology.link(transfer.src, transfer.dst),
        )
        transfer.hop = 0
        self._enqueue_hop(transfer, time)

    def _enqueue_hop(self, transfer: _Transfer, time: float) -> None:
        channel = transfer.hops[transfer.hop].shared_channel
        if self.channel_busy.get(channel):
            self.channel_queue.setdefault(channel, deque()).append(transfer)
        else:
            self._start_transfer(channel, transfer, time)

    def _start_transfer(self, channel: str, transfer: _Transfer, time: float) -> None:
        self.channel_busy[channel] = True
        if transfer.hop == 0:
            # The destination copy is allocated when the transfer begins,
            # as receive buffers are pinned up front.
            self.memory.allocate(
                transfer.tensor_name,
                transfer.dst,
                transfer.num_bytes,
                consumers=transfer.consumers,
            )
        if len(transfer.hops) == 1:
            duration = self.sim.perf.transfer_time(
                transfer.src, transfer.dst, transfer.num_bytes
            )
        else:
            duration = self.sim.perf.link_time(
                transfer.hops[transfer.hop], transfer.num_bytes
            )
        end = time + duration
        # One record per hop; all hops carry the endpoint devices, so
        # per-device accounting sees one logical transfer while each
        # channel row shows its own span.
        self.trace.transfer_records.append(
            TransferRecord(
                transfer.tensor_name,
                transfer.src,
                transfer.dst,
                transfer.num_bytes,
                time,
                end,
                channel=channel,
                queued_at=transfer.queued_at,
                producer=transfer.producer,
            )
        )
        heapq.heappush(
            self.events, (end, next(self.seq), "transfer_finish", (channel, transfer))
        )

    def _on_transfer_finish(self, payload: Tuple[str, _Transfer], time: float) -> None:
        channel, transfer = payload
        last_hop = transfer.hop + 1 >= len(transfer.hops)
        if last_hop:
            # The source copy drops the reference held for this transfer.
            self.memory.release(transfer.tensor_name, transfer.src)
            self._mark_available(
                transfer.tensor_name,
                transfer.dst,
                time,
                cause=(
                    f"transfer:{transfer.tensor_name}|"
                    f"{transfer.src}|{transfer.dst}"
                ),
            )
        queue = self.channel_queue.get(channel)
        if queue:
            self._start_transfer(channel, queue.popleft(), time)
        else:
            self.channel_busy[channel] = False
        if not last_hop:
            transfer.hop += 1
            transfer.queued_at = time
            self._enqueue_hop(transfer, time)
