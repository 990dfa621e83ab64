"""Per-graph-version cost and adjacency cache for the strategy search.

One OS-DPOS run invokes DPOS once per surviving split candidate, and every
DPOS run re-reads the same (op, device) execution times, the same
max-over-pairs transmission times, the same edge byte counts, and the same
predecessor/successor lists — quantities that a candidate split changes
only for the handful of ops around the split point.  :class:`CostCache`
memoizes all of them keyed by op name and supports *selective*
invalidation of exactly the ops a split touched (the transaction journal
reports them), so candidate evaluation cost tracks the split size rather
than the graph size.

The cache is read-through: every value it returns is computed by the
underlying cost-model calls themselves, so a DPOS run over a fresh cache
and one over a cache shared by a whole search return bit-identical
strategies.  DPOS reads every cost through one.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph import Graph, GraphError, Operation


class CostCache:
    """Memoized cost-model and adjacency lookups over one working graph.

    Args:
        graph: The working graph the strategy search mutates in place.
        computation: Computation cost model (``time``/``max_time`` duck
            type).
        communication: Communication cost model (``time``/``max_time``).
        devices: Candidate device names, in topology order.

    The search must call :meth:`invalidate` with the touched-op set after
    every graph mutation (split apply, rollback, or commit); everything
    else is transparent.
    """

    def __init__(
        self,
        graph: Graph,
        computation,
        communication,
        devices: Sequence[str],
    ) -> None:
        self.graph = graph
        self.computation = computation
        self.communication = communication
        self.devices = list(devices)
        self.pairs: List[Tuple[str, str]] = [
            (a, b) for a in self.devices for b in self.devices if a != b
        ]
        # name-keyed memos
        self._time: Dict[Tuple[str, str], float] = {}
        self._weight: Dict[str, float] = {}
        self._min_weight: Dict[str, float] = {}
        self._persistent: Dict[str, int] = {}
        self._preds: Dict[str, List[Operation]] = {}
        self._succs: Dict[str, List[Operation]] = {}
        # edge-keyed memos, with a per-name index for invalidation
        self._edge_bytes: Dict[Tuple[str, str], int] = {}
        self._edge_comm: Dict[Tuple[str, str], float] = {}
        self._edge_index: Dict[str, Set[Tuple[str, str]]] = {}
        # graph-independent memos (the models are frozen during a search)
        self._comm_by_bytes: Dict[int, float] = {}
        self._pair_time: Dict[Tuple[str, str, int], float] = {}
        # canonical topological order, valid while graph.version matches
        self._topo: List[Operation] = []
        self._topo_version: Optional[int] = None
        # observability: misses are counted unconditionally (the increment
        # is noise next to the cost-model call each miss already makes);
        # per-lookup counting is opt-in via enable_stats() so the default
        # hot path stays untouched.
        self.misses = 0
        self.lookups = 0
        self.invalidations = 0
        self.stats_enabled = False

    # ------------------------------------------------------------------
    # Computation times
    # ------------------------------------------------------------------
    def time(self, op: Operation, device: str) -> float:
        """Memoized ``computation.time(op, device)``."""
        key = (op.name, device)
        value = self._time.get(key)
        if value is None:
            self.misses += 1
            value = self._time[key] = self.computation.time(op, device)
        return value

    def weight(self, op: Operation) -> float:
        """``w_i`` of the rank computation: max time over all devices."""
        value = self._weight.get(op.name)
        if value is None:
            self.misses += 1
            value = self._weight[op.name] = max(
                (self.time(op, d) for d in self.devices), default=0.0
            )
        return value

    def min_weight(self, op: Operation) -> float:
        """Best-case execution time: min over all devices (bounds)."""
        value = self._min_weight.get(op.name)
        if value is None:
            self.misses += 1
            value = self._min_weight[op.name] = min(
                (self.time(op, d) for d in self.devices), default=0.0
            )
        return value

    def persistent_bytes(self, op: Operation) -> int:
        """Memoized ``op.persistent_bytes`` (summed over output tensors)."""
        value = self._persistent.get(op.name)
        if value is None:
            value = self._persistent[op.name] = op.persistent_bytes
        return value

    # ------------------------------------------------------------------
    # Communication times
    # ------------------------------------------------------------------
    def edge_bytes(self, src: Operation, dst: Operation) -> int:
        """Memoized ``graph.edge_bytes(src, dst)``."""
        key = (src.name, dst.name)
        value = self._edge_bytes.get(key)
        if value is None:
            self.misses += 1
            value = self._edge_bytes[key] = self.graph.edge_bytes(src, dst)
            self._edge_index.setdefault(src.name, set()).add(key)
            self._edge_index.setdefault(dst.name, set()).add(key)
        return value

    def edge_comm(self, src: Operation, dst: Operation) -> float:
        """``c_ij`` of the rank computation: worst case over device pairs."""
        key = (src.name, dst.name)
        value = self._edge_comm.get(key)
        if value is None:
            self.misses += 1
            num_bytes = self.edge_bytes(src, dst)
            value = self._comm_by_bytes.get(num_bytes)
            if value is None:
                value = self._comm_by_bytes[num_bytes] = (
                    self.communication.max_time(num_bytes, self.pairs)
                )
            self._edge_comm[key] = value
            self._edge_index.setdefault(src.name, set()).add(key)
            self._edge_index.setdefault(dst.name, set()).add(key)
        return value

    def pair_time(self, src_dev: str, dst_dev: str, num_bytes: int) -> float:
        """Memoized ``communication.time`` for one device pair."""
        key = (src_dev, dst_dev, num_bytes)
        value = self._pair_time.get(key)
        if value is None:
            value = self._pair_time[key] = self.communication.time(
                src_dev, dst_dev, num_bytes
            )
        return value

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def predecessors(self, op: Operation) -> List[Operation]:
        value = self._preds.get(op.name)
        if value is None:
            self.misses += 1
            value = self._preds[op.name] = self.graph.predecessors(op)
        return value

    def successors(self, op: Operation) -> List[Operation]:
        value = self._succs.get(op.name)
        if value is None:
            self.misses += 1
            value = self._succs[op.name] = self.graph.successors(op)
        return value

    def topological_order(self) -> List[Operation]:
        """Canonical (name-tie-broken) Kahn order via cached adjacency.

        Matches ``graph.topological_order(canonical=True)`` exactly.  The
        order is memoized on ``graph.version`` (a structural mutation
        counter), so every reader of one committed graph shares it;
        callers must not mutate the returned list.
        """
        if self._topo_version == self.graph.version:
            return self._topo
        indegree: Dict[str, int] = {}
        for op in self.graph:
            indegree[op.name] = len(self.predecessors(op))
        heap = [name for name, degree in indegree.items() if degree == 0]
        heapq.heapify(heap)
        order: List[Operation] = []
        while heap:
            op = self.graph.get_op(heapq.heappop(heap))
            order.append(op)
            for succ in self.successors(op):
                indegree[succ.name] -= 1
                if indegree[succ.name] == 0:
                    heapq.heappush(heap, succ.name)
        if len(order) != self.graph.num_ops:
            raise GraphError(
                f"graph {self.graph.name!r} contains a cycle; FastT only "
                "handles DAGs — unroll while-loops before scheduling"
            )
        self._topo, self._topo_version = order, self.graph.version
        return order

    def rebind(self, graph: Graph) -> None:
        """Serve the memos over ``graph``, a structural copy of this one.

        The copy has the same op names and structure, so every cost memo
        (keyed by name) stays valid; memoized adjacency is re-pointed at
        the copy's op objects.
        """
        get_op = graph.get_op
        for memo in (self._preds, self._succs):
            for name, ops in memo.items():
                memo[name] = [get_op(op.name) for op in ops]
        if self._topo_version == self.graph.version:
            self._topo = [get_op(op.name) for op in self._topo]
            self._topo_version = graph.version
        else:
            self._topo_version = None
        self.graph = graph

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, names: Optional[Iterable[str]] = None) -> None:
        """Drop every memo involving ``names`` (or everything if None).

        The graph-independent memos (transfer time by byte count) survive:
        the communication model is frozen during a search, so those values
        cannot go stale.
        """
        self.invalidations += 1
        if names is None:
            self._time.clear()
            self._weight.clear()
            self._min_weight.clear()
            self._persistent.clear()
            self._preds.clear()
            self._succs.clear()
            self._edge_bytes.clear()
            self._edge_comm.clear()
            self._edge_index.clear()
            return
        for name in names:
            for device in self.devices:
                self._time.pop((name, device), None)
            self._weight.pop(name, None)
            self._min_weight.pop(name, None)
            self._persistent.pop(name, None)
            self._preds.pop(name, None)
            self._succs.pop(name, None)
            for key in self._edge_index.pop(name, ()):
                self._edge_bytes.pop(key, None)
                self._edge_comm.pop(key, None)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_stats(self) -> None:
        """Count lookups on the hot accessors (observability runs only).

        Wraps the memoized lookups with per-call counting by rebinding
        them as instance attributes, so the default (un-observed) path
        keeps the plain methods and pays nothing.  Hits are then
        ``lookups - misses``.
        """
        if self.stats_enabled:
            return
        self.stats_enabled = True
        for name in (
            "time", "weight", "min_weight", "edge_bytes", "edge_comm",
            "predecessors", "successors",
        ):
            inner = getattr(self, name)

            def counting(*args, _inner=inner):
                self.lookups += 1
                return _inner(*args)

            setattr(self, name, counting)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters plus the live entry count.

        ``lookups`` and ``hits`` are only meaningful after
        :meth:`enable_stats`; ``misses`` (cost-model/adjacency
        evaluations) is always tracked.
        """
        return {
            "lookups": self.lookups,
            "hits": max(0, self.lookups - self.misses),
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": self.num_entries,
        }

    @property
    def num_entries(self) -> int:
        """Total live memo entries (introspection/tests)."""
        return (
            len(self._time)
            + len(self._weight)
            + len(self._min_weight)
            + len(self._persistent)
            + len(self._preds)
            + len(self._succs)
            + len(self._edge_bytes)
            + len(self._edge_comm)
        )
