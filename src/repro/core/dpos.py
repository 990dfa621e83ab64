"""DPOS — Device Placement and Operation Sequencing (Alg. 1).

List scheduling in two phases: operation prioritization by upward rank
(critical-path heuristic) and device selection by earliest finish time
with idle-slot insertion.  Critical-path operations are pinned to
dedicated critical-path devices chosen by average execution time within
memory capacity; all other operations go wherever they finish earliest.
The execution order is the schedule's start-time order, later enforced
by the executor's priority queue.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cluster import Topology
from ..costmodel import CommunicationCostModel, ComputationCostModel, CostCache
from ..graph import Graph, Operation
from ..obs import Observability, get_obs
from .ranks import compute_ranks, critical_path
from .strategy import Strategy

_INF = float("inf")


@dataclass
class DPOSResult:
    """Output of one DPOS run.

    ``decisions`` (op name -> :class:`~repro.obs.provenance.\
PlacementDecision`) is populated only when the engine's ``obs`` hook has
    provenance recording enabled; it never influences the strategy.
    """

    strategy: Strategy
    finish_time: float
    start_times: Dict[str, float]
    finish_times: Dict[str, float]
    critical_path: List[str]
    ranks: Dict[str, float]
    decisions: Optional[Dict[str, object]] = None

    @property
    def placement(self) -> Dict[str, str]:
        return self.strategy.placement

    @property
    def order(self) -> List[str]:
        return self.strategy.order


class _DeviceSchedule:
    """Sorted busy intervals of one device, with idle-slot insertion."""

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []

    def earliest_slot(
        self, ready: float, duration: float, insertion: bool = True
    ) -> float:
        """Earliest start >= ready of an idle slot fitting ``duration``.

        Scans gaps between already-scheduled intervals (the paper's
        insertion policy) and falls back to after the last interval;
        with ``insertion=False`` it only appends after the last interval.
        """
        if not self.starts:
            return ready
        ends = self.ends
        if not insertion:
            last = ends[-1]
            return last if last > ready else ready
        # Start scanning at the first interval that could constrain us;
        # bisect_left guarantees every earlier interval ends before ready.
        i = bisect.bisect_left(ends, ready)
        prev_end = ready
        starts = self.starts
        for j in range(i, len(starts)):
            if prev_end + duration <= starts[j]:
                return prev_end
            end = ends[j]
            if end > prev_end:
                prev_end = end
        return prev_end

    def insert(self, start: float, duration: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, start + duration)


class DPOS:
    """Alg. 1, parameterized by cluster and cost models.

    Args:
        topology: Devices and links to place onto.
        computation: Profiled computation cost model.
        communication: Profiled communication cost model.
        memory_fraction: Fraction of device memory the planner may fill
            (headroom for workspace/fragmentation, as in practice).
        obs: Optional :class:`~repro.obs.Observability` hook; defaults to
            the shared no-op.
    """

    def __init__(
        self,
        topology: Topology,
        computation: ComputationCostModel,
        communication: CommunicationCostModel,
        *,
        memory_fraction: float = 0.9,
        insertion_scheduling: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        if not 0 < memory_fraction <= 1:
            raise ValueError("memory_fraction must be in (0, 1]")
        self.topology = topology
        self.computation = computation
        self.communication = communication
        self.obs = get_obs(obs)
        #: When False, operations only ever append after a device's last
        #: interval (no idle-slot insertion) — the ablation of Alg. 1's
        #: insertion policy.
        self.insertion_scheduling = insertion_scheduling
        self.capacities = {
            d.name: int(d.memory_bytes * memory_fraction)
            for d in topology.devices
        }

    # ------------------------------------------------------------------
    def run(
        self, graph: Graph, cost_cache: Optional[CostCache] = None
    ) -> DPOSResult:
        """Compute placement, execution order, and estimated finish time.

        ``cost_cache`` (shared across the candidate evaluations of one
        OS-DPOS search) serves memoized cost and adjacency lookups; without
        one, the run builds a fresh cache.  The result is identical either
        way.
        """
        obs = self.obs
        with obs.events.span(
            "search.dpos",
            graph=graph.name,
            ops=graph.num_ops,
            cached=cost_cache is not None,
        ):
            if cost_cache is None:
                cost_cache = CostCache(
                    graph, self.computation, self.communication,
                    self.topology.device_names,
                )
            result = self._run(graph, cost_cache)
        if obs.enabled:
            obs.metrics.counter("dpos.runs").inc()
            obs.metrics.gauge("dpos.last_finish_time").set(result.finish_time)
        return result

    def _run(self, graph: Graph, costs: CostCache) -> DPOSResult:
        devices = self.topology.device_names
        capacities = self.capacities
        insertion = self.insertion_scheduling
        time = costs.time
        pair_time = costs.pair_time
        edge_bytes = costs.edge_bytes
        predecessors = costs.predecessors
        topo = costs.topological_order()
        ranks = compute_ranks(
            graph, costs.weight, costs.edge_comm, order=topo,
            successors=costs.successors,
        )
        cp_ops = critical_path(graph, ranks, successors=costs.successors)
        cp_names: Set[str] = {op.name for op in cp_ops}
        # Placement sequence: decreasing rank; among equal ranks, the
        # critical-path op goes first ("the next operation to be placed is
        # always the entry operation in the new critical path"), so a
        # same-rank sibling cannot grab the CP device's next slot; then
        # (canonical) topological index so predecessors precede successors
        # (the sort is stable over the topological order).
        sequence = sorted(
            topo, key=lambda op: (-ranks[op.name], op.name not in cp_names)
        )

        mem_used: Dict[str, int] = {d: 0 for d in devices}
        schedules: Dict[str, _DeviceSchedule] = {d: _DeviceSchedule() for d in devices}
        placement: Dict[str, str] = {}
        start_times: Dict[str, float] = {}
        finish_times: Dict[str, float] = {}
        group_device: Dict[str, str] = {}

        # Provenance (off by default): journal per-op decisions with the
        # alternatives each selection rule actually compared.  The
        # recording never feeds back into the schedule.
        recording = self.obs.provenance.enabled
        decisions: Optional[Dict[str, object]] = None
        if recording:
            from ..obs.provenance import PlacementAlternative, PlacementDecision

            decisions = {}

        cp_pending: List[Operation] = list(cp_ops)
        cp_placed: Set[str] = set()
        cp_alts: Optional[List] = [] if recording else None
        cp_device = self._select_cp_device(
            cp_pending, cp_placed, devices, mem_used, costs, collect=cp_alts
        )

        events = self.obs.events
        progress_stride = (
            max(1, len(sequence) // 8) if events.enabled else 0
        )
        for seq_index, op in enumerate(sequence):
            if progress_stride and seq_index % progress_stride == 0:
                events.emit(
                    "dpos.progress",
                    graph=graph.name,
                    placed=seq_index,
                    total=len(sequence),
                )
            name = op.name
            need = costs.persistent_bytes(op)
            forced = (
                group_device.get(op.colocation_group)
                if op.colocation_group is not None
                else None
            )
            if forced is not None:
                reason = "colocated"
                candidates: Sequence[str] = (forced,)
            elif name in cp_names:
                if mem_used[cp_device] + need > capacities[cp_device]:
                    cp_alts = [] if recording else None
                    cp_device = self._select_cp_device(
                        cp_pending, cp_placed, devices, mem_used, costs,
                        exclude={cp_device}, collect=cp_alts,
                    )
                reason = "critical-path"
                candidates = (cp_device,)
            else:
                # Alg. 1 lines 12-19: min-EFT device among those with memory.
                reason = "min-eft"
                candidates = [
                    d for d in devices if mem_used[d] + need <= capacities[d]
                ]
                if not candidates:
                    # Out of planning memory everywhere: overflow to the
                    # device with the most remaining room rather than
                    # failing the whole strategy computation.
                    reason = "memory-overflow"
                    candidates = (
                        max(devices, key=lambda d: capacities[d] - mem_used[d]),
                    )

            # Read each placed predecessor once; a predecessor not yet
            # placed can only happen for zero-rank ties, and its data is
            # treated as available immediately.
            arrivals: List[Tuple[str, float, int]] = []
            for pred in predecessors(op):
                pred_dev = placement.get(pred.name)
                if pred_dev is not None:
                    arrivals.append(
                        (pred_dev, finish_times[pred.name], edge_bytes(pred, op))
                    )
            # One sweep prices every candidate: ready time, idle slot, EFT.
            target = ""
            start = duration = 0.0
            best_eft = _INF
            priced: Optional[Dict[str, Tuple[float, float]]] = (
                {} if recording else None
            )
            for dev in candidates:
                ready = 0.0
                for pred_dev, arrival, num_bytes in arrivals:
                    if pred_dev != dev:
                        arrival += pair_time(pred_dev, dev, num_bytes)
                    if arrival > ready:
                        ready = arrival
                dev_duration = time(op, dev)
                est = schedules[dev].earliest_slot(ready, dev_duration, insertion)
                eft = est + dev_duration
                if priced is not None:
                    priced[dev] = (est, eft)
                if not target or eft < best_eft:
                    target, start, duration, best_eft = dev, est, dev_duration, eft

            schedules[target].insert(start, duration)
            placement[name] = target
            start_times[name] = start
            finish_times[name] = start + duration
            mem_used[target] += need
            if op.colocation_group is not None and forced is None:
                group_device[op.colocation_group] = target
            if name in cp_names:
                cp_placed.add(name)
            if recording:
                if reason == "colocated":
                    # A forced op skips scoring; record its realized
                    # finish so every decision carries a scored choice.
                    alts = [PlacementAlternative(
                        device=target, score=start + duration, start=start,
                        chosen=True,
                        note=f"colocation group {op.colocation_group!r}",
                    )]
                elif reason == "critical-path":
                    alts = [
                        PlacementAlternative(
                            device=a.device, score=a.score,
                            feasible=a.feasible,
                            chosen=a.device == target, note=a.note,
                        )
                        for a in (cp_alts or [])
                    ]
                else:
                    alts = [
                        PlacementAlternative(
                            device=d, score=priced[d][1], start=priced[d][0],
                            chosen=d == target,
                        )
                        if reason == "min-eft" and d in priced
                        else PlacementAlternative(
                            device=d, feasible=False, chosen=d == target,
                            note="out of memory",
                        )
                        for d in devices
                    ]
                if not any(a.chosen for a in alts):
                    alts.append(PlacementAlternative(
                        device=target, chosen=True, note="memory fallback",
                    ))
                decisions[name] = PlacementDecision(  # type: ignore[index]
                    op_name=name,
                    device=target,
                    reason=reason,
                    start=start,
                    finish=start + duration,
                    rank=ranks[name],
                    on_critical_path=name in cp_names,
                    alternatives=alts,
                )

        order = sorted(
            start_times, key=lambda n: (start_times[n], -ranks[n], n)
        )
        finish = max(finish_times.values(), default=0.0)
        strategy = Strategy(
            placement=placement,
            order=order,
            estimated_time=finish,
            label="dpos",
        )
        return DPOSResult(
            strategy=strategy,
            finish_time=finish,
            start_times=start_times,
            finish_times=finish_times,
            critical_path=[op.name for op in cp_ops],
            ranks=ranks,
            decisions=decisions,
        )

    # ------------------------------------------------------------------
    def _select_cp_device(
        self,
        cp_pending: Sequence[Operation],
        cp_placed: Set[str],
        devices: Sequence[str],
        mem_used: Dict[str, int],
        costs: CostCache,
        exclude: Optional[Set[str]] = None,
        collect: Optional[List] = None,
    ) -> str:
        """Pick the critical-path device (Alg. 1 line 5).

        For each device, greedily fit as many remaining (unplaced) CP ops
        as memory allows and score by average computation time; the
        smallest average wins, then the larger fitted count, then device
        order.  ``collect`` (provenance recording only) receives one
        :class:`~repro.obs.provenance.PlacementAlternative` per device
        considered, scored by that average.
        """
        if collect is not None:
            from ..obs.provenance import PlacementAlternative
        exclude = exclude or set()
        remaining = [op for op in cp_pending if op.name not in cp_placed]
        best: Optional[Tuple[float, int, int, str]] = None
        for idx, dev in enumerate(devices):
            if dev in exclude:
                continue
            free = self.capacities[dev] - mem_used[dev]
            fitted = 0
            total = 0.0
            acc = 0
            for op in remaining:
                need = costs.persistent_bytes(op)
                if acc + need > free:
                    break
                acc += need
                fitted += 1
                total += costs.time(op, dev)
            if fitted == 0 and remaining:
                if collect is not None:
                    collect.append(PlacementAlternative(
                        device=dev, feasible=False,
                        note="no critical-path op fits in memory",
                    ))
                continue
            avg = total / fitted if fitted else 0.0
            if collect is not None:
                collect.append(PlacementAlternative(
                    device=dev, score=avg,
                    note=f"avg cp-op time over {fitted}/{len(remaining)} fitted",
                ))
            key = (avg, -fitted, idx, dev)
            if best is None or key < best:
                best = key
        if best is None:
            # Every candidate is memory-full: fall back to the device with
            # the most free planning memory.
            fallback = max(
                (d for d in devices if d not in exclude),
                key=lambda d: self.capacities[d] - mem_used[d],
                default=None,
            )
            if fallback is None:
                fallback = max(
                    devices, key=lambda d: self.capacities[d] - mem_used[d]
                )
            return fallback
        return best[3]
