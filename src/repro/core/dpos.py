"""DPOS — Device Placement and Operation Sequencing (Alg. 1).

List scheduling in two phases: operation prioritization by upward rank
(critical-path heuristic) and device selection by earliest finish time
with idle-slot insertion.  Critical-path operations are pinned to
dedicated critical-path devices chosen by average execution time within
memory capacity; all other operations go wherever they finish earliest.
The execution order is the schedule's start-time order, later enforced
by the executor's priority queue.

A run works over the op ids and device indices of a
:class:`~repro.costmodel.CostCache` (per-op times, adjacency and edge
costs in id-indexed lists); op and device names come back only in the
:class:`DPOSResult`.  Each device keeps its busy intervals as two sorted
lists plus their runs of back-to-back intervals, so the idle-slot search
steps over real gaps only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import Topology
from ..costmodel import CommunicationCostModel, ComputationCostModel, CostCache
from ..graph import Graph
from ..obs import Observability, get_obs
from .ranks import max_rank_chain
from .records import PlacementAlternative, PlacementDecision
from .strategy import Strategy

_INF = float("inf")


class DPOSResult:
    """Output of one DPOS run.

    ``decisions`` (op name -> :class:`~repro.core.records.\
PlacementDecision`) is populated only when the engine's ``obs`` hook has
    provenance recording enabled; it never influences the strategy.

    The name-keyed fields ``strategy``, ``start_times``, ``finish_times``,
    ``critical_path`` and ``ranks`` are the dict ``build()`` returns, made
    on first read: a search scores many candidates and reads only the
    ``finish_time`` of most.
    """

    def __init__(
        self,
        finish_time: float,
        build: Callable[[], Dict[str, object]],
        decisions: Optional[Dict[str, object]] = None,
    ) -> None:
        self.finish_time = finish_time
        self.decisions = decisions
        self._build = build

    def __getattr__(self, name: str):
        # Reached only for unset attributes.  The fields are stored before
        # ``_build`` is cleared, so a concurrent reader builds them again
        # at worst.
        build = self.__dict__.get("_build")
        if build is None:
            raise AttributeError(name)
        self.__dict__.update(build())
        self.__dict__["_build"] = None
        return getattr(self, name)

    @property
    def placement(self) -> Dict[str, str]:
        return self.strategy.placement

    @property
    def order(self) -> List[str]:
        return self.strategy.order


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
        OS-DPOS search) serves the id-indexed cost and adjacency slots;
        without one, the run builds a fresh cache.  The result is identical either
        way.  ``graph`` may be a :class:`~repro.graph.coarsen.CoarsePlan`
        (the coarse search's), which a cache reads like a graph.
        """
        with self.obs.events.span(
            "search.dpos",
            graph=graph.name,
            ops=graph.num_ops,
            cached=cost_cache is not None,
        ) as span:
            if cost_cache is None:
                cost_cache = CostCache(
                    graph, self.computation, self.communication,
                    self.topology.device_names,
                )
            result = self._run(graph, cost_cache)
            span.set(makespan=result.finish_time)
        return result

    def _run(self, graph: Graph, costs: CostCache) -> DPOSResult:
        """Alg. 1 over op ids and device indices; names return at the end."""
        devices = costs.devices
        num_devices = len(devices)
        all_devices = range(num_devices)
        capacities = [self.capacities[d] for d in devices]
        insertion = self.insertion_scheduling
        topo = costs.topological_order()
        names, times, weights = costs.names, costs.times, costs.weights
        persistent, groups = costs.persistent, costs.groups
        preds, pred_bytes = costs.preds, costs.pred_bytes
        succs, succ_comm = costs.succs, costs.succ_comm
        transfer_row = costs.transfer_row

        # Upward ranks, one reverse-topological sweep:
        # rank_i = w_i + max_j (c_ij + rank_j).
        rank = [0.0] * len(names)
        for i in reversed(topo):
            comm = succ_comm[i]
            rank[i] = (
                weights[i] + max(map(add, comm, map(rank.__getitem__, succs[i])))
                if comm else weights[i]
            )
        cp = max_rank_chain(
            [i for i in topo if not preds[i]], succs.__getitem__,
            lambda i: (rank[i], names[i]),
        )
        on_cp = set(cp)
        # Placement sequence: decreasing rank; among equal ranks, the
        # critical-path op goes first ("the next operation to be placed is
        # always the entry operation in the new critical path"), so a
        # same-rank sibling cannot grab the CP device's next slot; then
        # canonical topological index so predecessors precede successors.
        # The path runs in topological order, so a stable sort by rank of
        # the path followed by the other ops in topological order does it.
        sequence = sorted(
            cp + [i for i in topo if i not in on_cp],
            key=rank.__getitem__, reverse=True,
        )

        mem_used = [0] * num_devices
        # The least planning memory any device has left.
        room = min(capacities, default=0)
        # Per-device busy intervals, sorted by start (and so by end), and
        # their runs: maximal chains whose next start equals the previous
        # end exactly.  Runs are separated by real gaps.
        busy_starts: List[List[float]] = [[] for _ in all_devices]
        busy_ends: List[List[float]] = [[] for _ in all_devices]
        run_starts: List[List[float]] = [[] for _ in all_devices]
        run_ends: List[List[float]] = [[] for _ in all_devices]
        device_of = [-1] * len(names)
        start_of = [0.0] * len(names)
        finish_of = [0.0] * len(names)
        group_device: Dict[str, int] = {}

        # Provenance (off by default): journal per-op decisions with the
        # alternatives each selection rule actually compared.  The
        # recording never feeds back into the schedule.
        recording = self.obs.provenance.enabled
        decisions: Optional[Dict[str, object]] = {} if recording else None

        cp_alts: Optional[List] = [] if recording else None
        cp_device = self._select_cp_device(
            cp, capacities, mem_used, costs, collect=cp_alts
        )

        events = self.obs.events
        progress_stride = (
            max(1, len(sequence) // 8) if events.enabled else 0
        )
        for seq_index, i in enumerate(sequence):
            if progress_stride and seq_index % progress_stride == 0:
                events.emit(
                    "dpos.progress",
                    graph=graph.name,
                    placed=seq_index,
                    total=len(sequence),
                )
            need = persistent[i]
            group = groups[i]
            forced = group_device.get(group) if group is not None else None
            if forced is not None:
                reason = "colocated"
                candidates: Sequence[int] = (forced,)
            elif i in on_cp:
                if mem_used[cp_device] + need > capacities[cp_device]:
                    cp_alts = [] if recording else None
                    cp_device = self._select_cp_device(
                        [j for j in cp if device_of[j] < 0], capacities,
                        mem_used, costs, exclude=cp_device, collect=cp_alts,
                    )
                reason = "critical-path"
                candidates = (cp_device,)
            else:
                # Alg. 1 lines 12-19: min-EFT device among those with memory.
                reason = "min-eft"
                candidates = all_devices if need <= room else [
                    k for k in all_devices if mem_used[k] + need <= capacities[k]
                ]
                if not candidates:
                    # Out of planning memory everywhere: overflow to the
                    # device with the most remaining room rather than
                    # failing the whole strategy computation.
                    reason = "memory-overflow"
                    candidates = (
                        max(all_devices, key=lambda k: capacities[k] - mem_used[k]),
                    )

            # Read each placed predecessor once; a predecessor not yet
            # placed can only happen for zero-rank ties, and its data is
            # treated as available immediately.
            arrivals = []
            for pred, num_bytes in zip(preds[i], pred_bytes[i]):
                pred_device = device_of[pred]
                if pred_device >= 0:
                    arrivals.append((
                        pred_device, pred_device * num_devices,
                        finish_of[pred], transfer_row(num_bytes),
                    ))
            # One sweep prices every candidate: ready time, idle slot, EFT.
            op_times = times[i]
            target = -1
            start = duration = 0.0
            best_eft = _INF
            priced: Optional[Dict[int, Tuple[float, float]]] = (
                {} if recording else None
            )
            for k in candidates:
                ready = 0.0
                for pred_device, base, arrival, row in arrivals:
                    if pred_device != k:
                        arrival += row[base + k]
                    if arrival > ready:
                        ready = arrival
                dev_duration = op_times[k]
                # Earliest idle slot >= ready that fits (the paper's
                # insertion policy), else after the last interval.
                ends = run_ends[k]
                if not ends or ends[-1] <= ready:
                    est = ready
                elif not insertion:
                    est = ends[-1]
                elif ends[-1] + 0.5 * dev_duration > ends[-1]:
                    # Then end + duration > end for every end, so no slot
                    # fits between the intervals of a run: scan the gaps
                    # between runs only.  Every run before bisect_left
                    # ends before ready.
                    b = bisect_left(ends, ready)
                    starts = run_starts[k]
                    if ready + dev_duration <= starts[b]:
                        est = ready
                    else:
                        est = ends[-1]
                        for j in range(b + 1, len(starts)):
                            end = ends[j - 1]
                            if end + dev_duration <= starts[j]:
                                est = end
                                break
                else:
                    # A duration too small to move the clock: scan every
                    # interval, as the runs cannot tell where it fits.
                    starts, ends = busy_starts[k], busy_ends[k]
                    est = ready
                    for j in range(bisect_left(ends, ready), len(starts)):
                        if est + dev_duration <= starts[j]:
                            break
                        end = ends[j]
                        if end > est:
                            est = end
                eft = est + dev_duration
                if priced is not None:
                    priced[k] = (est, eft)
                if target < 0 or eft < best_eft:
                    target, start, duration, best_eft = k, est, dev_duration, eft

            finish = start + duration
            # After every interval ending by start, so that a zero-length
            # interval at start stays before it and ends stay sorted.
            ends = busy_ends[target]
            slot = bisect_right(ends, start)
            busy_starts[target].insert(slot, start)
            ends.insert(slot, finish)
            # Join the run ending at start and the one starting at finish;
            # an interval that lands inside a run has zero length there.
            starts, ends = run_starts[target], run_ends[target]
            slot = bisect_left(ends, start)
            if slot < len(ends) and starts[slot] <= start:
                if ends[slot] == start:
                    ends[slot] = finish
                    if slot + 1 < len(starts) and starts[slot + 1] == finish:
                        ends[slot] = ends.pop(slot + 1)
                        del starts[slot + 1]
            elif slot < len(starts) and starts[slot] == finish:
                starts[slot] = start
            else:
                starts.insert(slot, start)
                ends.insert(slot, finish)
            device_of[i] = target
            start_of[i] = start
            finish_of[i] = finish
            mem_used[target] += need
            room = min(room, capacities[target] - mem_used[target])
            if group is not None and forced is None:
                group_device[group] = target
            if recording:
                name, device = names[i], devices[target]
                if reason == "colocated":
                    # A forced op skips scoring; record its realized
                    # finish so every decision carries a scored choice.
                    alts = [PlacementAlternative(
                        device=device, score=finish, start=start,
                        chosen=True, note=f"colocation group {group!r}",
                    )]
                elif reason == "critical-path":
                    alts = [
                        PlacementAlternative(
                            device=a.device, score=a.score,
                            feasible=a.feasible,
                            chosen=a.device == device, note=a.note,
                        )
                        for a in (cp_alts or [])
                    ]
                else:
                    alts = [
                        PlacementAlternative(
                            device=d, score=priced[k][1], start=priced[k][0],
                            chosen=k == target,
                        )
                        if reason == "min-eft" and k in priced
                        else PlacementAlternative(
                            device=d, feasible=False, chosen=k == target,
                            note="out of memory",
                        )
                        for k, d in enumerate(devices)
                    ]
                if not any(a.chosen for a in alts):
                    alts.append(PlacementAlternative(
                        device=device, chosen=True, note="memory fallback",
                    ))
                decisions[name] = PlacementDecision(  # type: ignore[index]
                    op_name=name,
                    device=device,
                    reason=reason,
                    start=start,
                    finish=finish,
                    rank=rank[i],
                    on_critical_path=i in on_cp,
                    alternatives=alts,
                )

        finish = max(finish_of, default=0.0)

        def build() -> Dict[str, object]:
            return {
                "strategy": Strategy(
                    placement={names[i]: devices[device_of[i]] for i in sequence},
                    order=[
                        names[i] for i in sorted(
                            sequence,
                            key=lambda i: (start_of[i], -rank[i], names[i]),
                        )
                    ],
                    estimated_time=finish,
                    label="dpos",
                ),
                "start_times": {names[i]: start_of[i] for i in sequence},
                "finish_times": {names[i]: finish_of[i] for i in sequence},
                "critical_path": [names[i] for i in cp],
                "ranks": {names[i]: rank[i] for i in reversed(topo)},
            }

        return DPOSResult(finish, build, decisions)

    # ------------------------------------------------------------------
    def _select_cp_device(
        self,
        remaining: Sequence[int],
        capacities: Sequence[int],
        mem_used: Sequence[int],
        costs: CostCache,
        exclude: Optional[int] = None,
        collect: Optional[List] = None,
    ) -> int:
        """Pick the critical-path device index (Alg. 1 line 5).

        For each device, greedily fit as many of the ``remaining``
        (unplaced) CP op ids as memory allows and score by average
        computation time; the smallest average wins, then the larger
        fitted count, then device order.  ``collect`` (provenance
        recording only) receives one
        :class:`~repro.core.records.PlacementAlternative` per device
        considered, scored by that average.
        """
        persistent, times = costs.persistent, costs.times
        candidates = [k for k in range(len(capacities)) if k != exclude]
        best: Optional[Tuple[float, int, int]] = None
        for k in candidates:
            free = capacities[k] - mem_used[k]
            fitted = 0
            total = 0.0
            acc = 0
            for i in remaining:
                need = persistent[i]
                if acc + need > free:
                    break
                acc += need
                fitted += 1
                total += times[i][k]
            if fitted == 0 and remaining:
                if collect is not None:
                    collect.append(PlacementAlternative(
                        device=costs.devices[k], feasible=False,
                        note="no critical-path op fits in memory",
                    ))
                continue
            avg = total / fitted if fitted else 0.0
            if collect is not None:
                collect.append(PlacementAlternative(
                    device=costs.devices[k], score=avg,
                    note=f"avg cp-op time over {fitted}/{len(remaining)} fitted",
                ))
            key = (avg, -fitted, k)
            if best is None or key < best:
                best = key
        if best is None:
            # Every candidate is memory-full: fall back to the device with
            # the most free planning memory.
            return max(
                candidates or range(len(capacities)),
                key=lambda k: capacities[k] - mem_used[k],
            )
        return best[2]
