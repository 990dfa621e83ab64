"""Discrete-event simulation of one training iteration on a GPU cluster.

This is the reproduction's *testbed*: given a training graph, a
placement, and (optionally) an execution order, it plays out the step —
per-device serial kernel execution, per-channel serialized tensor
transfers, compute/communication overlap, ref-counted memory — and
returns a :class:`~repro.profiling.trace.StepTrace`.

The execution order decides the scheduling, as in the paper's Fig. 2
comparison:

* no order (or an empty one) — TensorFlow's default FIFO: the executor
  pops the ready queue in arrival order;
* an order — FastT's order enforcement: its positions are the ready
  queue's priorities (Sec. 6.1, Order Enforcement), and ops it does not
  list run after every listed op, in FIFO order among themselves.

The executor is organized around a single global event heap: every
op/transfer completion is one heap entry, and dispatch decisions are
made inline when an event retires — no per-device or per-channel
polling.  A :class:`_GraphPlan`, built once per graph revision, reads
the graph's integer index (distinct inputs, consumers by tensor, output
sizes), so one step's state — placement, pending-input counts, ready
queues, memory — is flat lists indexed by op, tensor or device id.
Kernel durations are numpy-batched per device up front (bit-identical
to the scalar roofline; see :meth:`PerfModel.batch_base_op_times`) and
per-hop transfer base costs are memoized on the simulator.  The step is
recorded as :class:`~repro.profiling.trace.TraceColumns`; record objects
are built only for readers that ask for them.  ``tests/sim`` pins this
runner bit-exact against the seed's per-dispatch runner (same event
times, same jitter-stream draws, same trace records).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from operator import sub
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster import LinkSpec, Topology
from ..graph import Graph, Operation
from ..hardware import PerfModel
from ..obs import Observability, get_obs
from ..profiling.trace import StepTrace, TraceColumns

_INF = float("inf")

#: A device pair's route: the contended links it crosses and their
#: shared channel names, hop by hop.
_Route = Tuple[Tuple[LinkSpec, ...], Tuple[str, ...]]


class SimulationError(RuntimeError):
    """Raised on inconsistent simulator inputs (bad placement, deadlock)."""


class SimulationOOMError(RuntimeError):
    """Raised when a device exceeds its memory capacity during a step.

    Tensors are allocated on a device when their producing op starts
    there (or a transfer delivers a remote copy) and freed once every
    consumer there has finished; ``Variable`` outputs persist.  This
    liveness model is what makes the paper's Table 3 reproducible:
    activations held for the backward pass dominate peak memory.
    """

    def __init__(self, device: str, needed: int, capacity: int) -> None:
        super().__init__(
            f"device {device} out of memory: needs {needed} bytes, "
            f"capacity {capacity} bytes"
        )
        self.device = device
        self.needed = needed
        self.capacity = capacity


class _Transfer:
    """One tensor copy in flight, queued on its route's hops in turn."""

    __slots__ = ("tensor", "src", "dst", "consumers", "queued_at", "route", "hop")

    def __init__(
        self, tensor: int, src: int, dst: int, consumers: int,
        queued_at: float, route: _Route,
    ) -> None:
        self.tensor = tensor
        self.src = src
        self.dst = dst
        self.consumers = consumers
        self.queued_at = queued_at
        self.route = route
        self.hop = 0


class _GraphPlan:
    """Per-graph-revision execution plan shared across simulated steps.

    A view over the graph's :class:`~repro.graph.index.GraphIndex`, whose
    op numbering (graph order) FIFO tie-breaks follow.  Steps read each
    op's distinct input tensor ids (first-occurrence order — it decides
    the pending-input counts) and each tensor's consumer op ids, byte
    size and producer from it.  The plan adds op types, whether an op is
    a persistent ``Variable``, each op's output-id range, the
    device-independent cost arrays and lazily materialized per-device
    base-duration lists.  Keyed by
    :attr:`Graph.version`, so any structural mutation (including
    transaction rollbacks) invalidates the plan.
    """

    def __init__(self, graph: Graph, perf: PerfModel) -> None:
        self.index = index = graph.index()
        self.version = index.version
        self.ops: List[Operation] = index.ops
        self.op_names = index.names
        self.op_types = [op.op_type for op in self.ops]
        self.persistent = [t == "Variable" for t in self.op_types]
        self.tensor_names = index.tensor_names
        self.tensor_bytes = index.tensor_bytes
        self.producers = index.producers
        # A range per op iterates faster than one built per visit.
        out_ptr = index.out_ptr
        self.outputs = [range(a, b) for a, b in zip(out_ptr, out_ptr[1:])]
        self._cost_inputs = perf.batch_op_cost_inputs(self.ops)
        self._base_times: Dict[str, List[float]] = {}

    def base_times(self, perf: PerfModel, device) -> List[float]:
        """Noise-free durations of every op on ``device`` (memoized)."""
        times = self._base_times.get(device.name)
        if times is None:
            times = perf.batch_base_op_times(*self._cost_inputs, device).tolist()
            self._base_times[device.name] = times
        return times


class ExecutionSimulator:
    """Simulates single training iterations of a placed graph."""

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
        self._plan: Optional[_GraphPlan] = None
        self.device_names: List[str] = topology.device_names
        # Topology is immutable, so routes and noise-free per-hop base
        # costs are memoized for the simulator's lifetime (shared by
        # every step and graph revision), keyed by device ids.
        self._routes: Dict[Tuple[int, int], _Route] = {}
        self._hop_base: Dict[Tuple[int, int, int, int], float] = {}

    # ------------------------------------------------------------------
    def plan(self) -> _GraphPlan:
        """The execution plan for the graph's current revision."""
        plan = self._plan
        if plan is None or plan.version != self.graph.version:
            plan = _GraphPlan(self.graph, self.perf)
            self._plan = plan
        return plan

    def route(self, src: int, dst: int) -> _Route:
        """The contended hops between two devices (per-pair memo).

        All-wire routes (no contended channel) still produce one hop —
        the effective link — so the transfer is traced and pays its
        route latency; infinite bandwidth makes the queueing harmless.
        """
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            a, b = self.device_names[src], self.device_names[dst]
            hops = self.topology.route(a, b).channels or (self.topology.link(a, b),)
            route = (hops, tuple(link.shared_channel for link in hops))
            self._routes[key] = route
        return route

    def hop_base_time(self, src: int, dst: int, hop: int, num_bytes: int) -> float:
        """Noise-free duration of one hop of a transfer (memoized).

        A one-hop route costs the whole endpoint-to-endpoint transfer;
        a routed one costs each link's hop time.
        """
        key = (src, dst, hop, num_bytes)
        base = self._hop_base.get(key)
        if base is None:
            hops = self.route(src, dst)[0]
            if len(hops) == 1:
                base = self.perf.base_transfer_time(
                    self.device_names[src], self.device_names[dst], num_bytes
                )
            else:
                base = self.perf.base_link_time(hops[hop], num_bytes)
            self._hop_base[key] = base
        return base

    # ------------------------------------------------------------------
    def run_step(
        self,
        placement: Mapping[str, str],
        order: Optional[Sequence[str]] = None,
    ) -> StepTrace:
        """Simulate one iteration and return its trace.

        Args:
            placement: op name -> device name, complete over the graph.
            order: FastT's execution order list.  A non-empty order is
                priority scheduling (ops absent from it run after every
                listed op); none or an empty one is FIFO.

        Raises:
            SimulationError: incomplete placement or scheduling deadlock.
            SimulationOOMError: a device ran out of memory (when
                ``enforce_memory``).
        """
        events = self.obs.events
        with events.span(
            "sim.step", policy="priority" if order else "fifo",
            graph=self.graph.name,
        ) as span:
            state = _StepState(self, placement, order)
            trace = state.run()
            if events.enabled:
                span.set(
                    makespan=trace.makespan,
                    ops=trace.num_ops,
                    transfers=trace.num_transfers,
                    queue_wait=trace.total_queue_wait,
                )
        return trace


class _StepState:
    """All mutable state of one simulated step, indexed by integer ids."""

    def __init__(
        self,
        sim: ExecutionSimulator,
        placement: Mapping[str, str],
        order: Optional[Sequence[str]],
    ) -> None:
        self.sim = sim
        self.plan = plan = sim.plan()
        names = sim.device_names
        self.num_devices = len(names)
        device_index = {name: i for i, name in enumerate(names)}
        try:
            dev = [device_index[placement[name]] for name in plan.op_names]
        except KeyError:
            for name in plan.op_names:
                device = placement.get(name)
                if device is None:
                    raise SimulationError(f"placement misses op {name!r}") from None
                if device not in device_index:
                    raise SimulationError(
                        f"op {name!r} placed on unknown device {device!r}"
                    ) from None
            raise
        self.dev = dev

        self.priority: Optional[List[float]] = None
        if order:
            # A name listed twice keeps its last rank.
            rank_of = dict(zip(order, itertools.count()))
            self.priority = [rank_of.get(name, _INF) for name in plan.op_names]

        # Each tensor's consumers are read as a CSR slice of the index,
        # with ``dev``, where they are used: a container per tensor would
        # live through the step, and every full collection rescans it.
        index = plan.index
        self.in_ptr, self.in_ids = index.in_ptr, index.in_ids
        self.cons_ptr, self.cons_ids = index.cons_ptr, index.cons_ids
        self.deps_remaining = list(map(sub, self.in_ptr[1:], self.in_ptr))

        # Per-device noise-free kernel durations.
        topo = sim.topology
        self.base_times = [
            plan.base_times(sim.perf, topo.device(name)) for name in names
        ]

        # Ref-counted memory over id-indexed lists (the seed's name-keyed
        # tracker, now in tests/sim, cost about a fifth of the event
        # loop): refs per (tensor, device) copy, usage and peak per
        # device.  Each copy is allocated once (the producer's at
        # dispatch, a destination's when its transfer starts) and
        # released once per reference; a Variable's own copy persists.
        self.refs = [0] * (len(plan.tensor_names) * self.num_devices)
        self.usage = [0] * self.num_devices
        self.peak = [0] * self.num_devices
        self.capacity = [sim.topology.device(name).memory_bytes for name in names]

        self.ready: List[List[tuple]] = [[] for _ in names]
        self.device_busy = [False] * self.num_devices
        self.channel_busy: Dict[str, bool] = {}
        self.channel_queue: Dict[str, Deque[_Transfer]] = {}
        self.events: List[tuple] = []
        self.seq = itertools.count()
        self.columns = TraceColumns(
            plan.op_names, plan.op_types, plan.tensor_names, plan.tensor_bytes,
            plan.producers, names, dev,
        )
        self.completed = 0

    # ------------------------------------------------------------------
    def run(self) -> StepTrace:
        for op, pending in enumerate(self.deps_remaining):
            if pending == 0:
                self._enqueue_ready(op, 0.0, None)
        for device in range(self.num_devices):
            self._dispatch_device(device, 0.0)

        # Telemetry: stride-sampled heap progress, computed only when a
        # live event bus is attached so the hot loop stays untouched.
        telemetry = self.sim.obs.events
        num_ops = len(self.dev)
        progress_stride = (
            max(1, num_ops // 16) if telemetry.enabled else 0
        )
        last_reported = 0

        makespan = 0.0
        events = self.events
        while events:
            time, _, payload = heapq.heappop(events)
            makespan = max(makespan, time)
            if payload.__class__ is int:
                self._on_op_finish(payload, time)
                if (
                    progress_stride
                    and self.completed - last_reported >= progress_stride
                ):
                    last_reported = self.completed
                    telemetry.emit(
                        "sim.progress",
                        graph=self.sim.graph.name,
                        completed=self.completed,
                        total=num_ops,
                        sim_time=time,
                    )
            else:
                self._on_transfer_finish(payload, time)

        if self.completed != num_ops:
            stuck = [
                self.plan.op_names[op]
                for op, pending in enumerate(self.deps_remaining)
                if pending > 0
            ][:10]
            raise SimulationError(
                f"deadlock: {num_ops - self.completed} ops never "
                f"ran (e.g. {stuck})"
            )
        # Records are appended at their start time and events retire in
        # time order (durations are never negative), so the columns are
        # already in start order.
        names = self.sim.device_names
        return StepTrace(
            makespan=makespan,
            peak_memory={name: self.peak[i] for i, name in enumerate(names)},
            columns=self.columns,
        )

    # ------------------------------------------------------------------
    def _allocate(self, tensor: int, device: int, consumers: int) -> None:
        self.refs[tensor * self.num_devices + device] = consumers
        usage = self.usage[device] + self.plan.tensor_bytes[tensor]
        self.usage[device] = usage
        if usage > self.peak[device]:
            self.peak[device] = usage
        if self.sim.enforce_memory and usage > self.capacity[device]:
            raise SimulationOOMError(
                self.sim.device_names[device], usage, self.capacity[device]
            )

    def _release(self, tensor: int, device: int) -> None:
        key = tensor * self.num_devices + device
        refs = self.refs[key] - 1
        self.refs[key] = refs
        if refs == 0:
            producer = self.plan.producers[tensor]
            if not (self.plan.persistent[producer] and self.dev[producer] == device):
                self.usage[device] -= self.plan.tensor_bytes[tensor]

    # ------------------------------------------------------------------
    def _enqueue_ready(self, op: int, time: float, cause: object) -> None:
        cols = self.columns
        cols.ready[op] = time
        cols.blocked[op] = cause
        key = time if self.priority is None else self.priority[op]
        heapq.heappush(self.ready[self.dev[op]], (key, time, next(self.seq), op))

    def _dispatch_device(self, device: int, time: float) -> None:
        queue = self.ready[device]
        if self.device_busy[device] or not queue:
            return
        op = heapq.heappop(queue)[3]
        self.device_busy[device] = True
        cons_ptr = self.cons_ptr
        for tensor in self.plan.outputs[op]:
            # One reference per local consumer, one per remote device
            # (held until its transfer finishes).
            refs = cons_ptr[tensor + 1] - cons_ptr[tensor]
            if refs > 1:
                remote = self._remote_consumers(tensor, device)
                refs += len(remote) - sum(remote.values())
            self._allocate(tensor, device, refs)
        # Same value, same jitter-stream consumption as perf.op_time —
        # only the base lookup is precomputed.
        end = time + self.sim.perf.jittered(self.base_times[device][op])
        cols = self.columns
        cols.op.append(op)
        cols.start.append(time)
        cols.end.append(end)
        heapq.heappush(self.events, (end, next(self.seq), op))

    def _on_op_finish(self, op: int, time: float) -> None:
        device = self.dev[op]
        self.device_busy[device] = False
        self.completed += 1
        # Release this op's holds on its (local copies of) inputs.
        in_ptr = self.in_ptr
        for tensor in self.in_ids[in_ptr[op]:in_ptr[op + 1]]:
            self._release(tensor, device)
        # Outputs become available locally and trigger remote transfers.
        for tensor in self.plan.outputs[op]:
            self._mark_available(tensor, device, time, op)
            for dst, consumers in self._remote_consumers(tensor, device).items():
                self._enqueue_hop(
                    _Transfer(
                        tensor, device, dst, consumers, time,
                        self.sim.route(device, dst),
                    ),
                    time,
                )
        self._dispatch_device(device, time)

    def _remote_consumers(self, tensor: int, device: int) -> Dict[int, int]:
        """Consumers of ``tensor`` off ``device``, counted per device;
        devices in order of first consumer (the transfer order)."""
        dev = self.dev
        remote: Dict[int, int] = {}
        for op in self.cons_ids[self.cons_ptr[tensor]:self.cons_ptr[tensor + 1]]:
            dst = dev[op]
            if dst != device:
                remote[dst] = remote.get(dst, 0) + 1
        return remote

    def _mark_available(
        self, tensor: int, device: int, time: float, cause: object
    ) -> None:
        # Every (tensor, device) copy arrives exactly once: the producer
        # marks its own, and each consuming device gets one transfer.
        dev, pending = self.dev, self.deps_remaining
        for op in self.cons_ids[self.cons_ptr[tensor]:self.cons_ptr[tensor + 1]]:
            if dev[op] == device:
                pending[op] -= 1
                if pending[op] == 0:
                    self._enqueue_ready(op, time, cause)
        self._dispatch_device(device, time)

    # ------------------------------------------------------------------
    def _enqueue_hop(self, transfer: _Transfer, time: float) -> None:
        channel = transfer.route[1][transfer.hop]
        if self.channel_busy.get(channel):
            self.channel_queue.setdefault(channel, deque()).append(transfer)
        else:
            self._start_transfer(channel, transfer, time)

    def _start_transfer(self, channel: str, transfer: _Transfer, time: float) -> None:
        self.channel_busy[channel] = True
        tensor, src, dst, hop = transfer.tensor, transfer.src, transfer.dst, transfer.hop
        if hop == 0:
            # The destination copy is allocated when the transfer begins,
            # as receive buffers are pinned up front.
            self._allocate(tensor, dst, transfer.consumers)
        sim = self.sim
        base = sim.hop_base_time(src, dst, hop, self.plan.tensor_bytes[tensor])
        end = time + (sim.perf.jittered(base) if base else 0.0)
        # One record per hop; all hops carry the endpoint devices, so
        # per-device accounting sees one logical transfer while each
        # channel row shows its own span.
        cols = self.columns
        cols.tensor.append(tensor)
        cols.src.append(src)
        cols.dst.append(dst)
        cols.xfer_start.append(time)
        cols.xfer_end.append(end)
        cols.channel.append(channel)
        cols.queued_at.append(transfer.queued_at)
        heapq.heappush(self.events, (end, next(self.seq), transfer))

    def _on_transfer_finish(self, transfer: _Transfer, time: float) -> None:
        channels = transfer.route[1]
        channel = channels[transfer.hop]
        last_hop = transfer.hop + 1 >= len(channels)
        if last_hop:
            # The source copy drops the reference held for this transfer.
            self._release(transfer.tensor, transfer.src)
            self._mark_available(
                transfer.tensor, transfer.dst, time,
                (transfer.tensor, transfer.src, transfer.dst),
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

