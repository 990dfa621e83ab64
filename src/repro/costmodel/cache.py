"""Id-indexed cost and adjacency arrays for the strategy search.

One OS-DPOS run invokes DPOS once per surviving split candidate, and every
DPOS run re-reads the same (op, device) execution times, max-over-pairs
transmission times, edge byte counts and adjacency — quantities that a
candidate split changes only for the handful of ops around the split
point.  :class:`CostCache` numbers every op name it sees with a stable
int id and keeps those quantities in lists indexed by id, so DPOS runs its
hot loops over ints.  The search reports the ops each split touched (the
transaction journal does) and :meth:`invalidate` clears exactly those
ids' slots; the next read refills them, so candidate evaluation cost
tracks the split size rather than the graph size.

An id names one op name for the cache's lifetime and survives split
apply, undo and :meth:`rebind`.  An undo restores the graph's name
counters, so the next candidate's sub-ops get their old names, and with
them their old ids.

The first fill (and any full refill) reads every op's adjacency, edge
bytes and costs from the graph's :class:`~repro.graph.index.GraphIndex`
in one pass; an invalidated op is refilled from the op and the graph
directly.  Both compute the same values, so a DPOS run over a fresh cache
and one over a cache shared by a whole search return bit-identical
strategies.  A :class:`~repro.graph.coarsen.CoarsePlan` stands in for a
graph here: it is its own index, one record per coarse node (names,
producer rows, persistent bytes, lifted groups), so the coarse search
fills a cache from the lists the contraction recorded.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..graph import Graph, GraphError
from ..graph.index import canonical_order


class CostCache:
    """Cost-model and adjacency slots, one per op id, over one working graph.

    Args:
        graph: The working graph the strategy search mutates in place,
            or a :class:`~repro.graph.coarsen.CoarsePlan` (never mutated).
        computation: Computation cost model (``time`` duck type); over a
            plan, the plan's
            :class:`~repro.graph.coarsen.SuperComputationModel`.
        communication: Communication cost model (``time``/``max_time``).
        devices: Candidate device names, in topology order; a device's
            index in this list is its device index.

    Per-id slots (``None`` while cleared or once the op is gone), read
    after :meth:`topological_order` has refilled them:

    * ``times[i]``: the op's time on every device, by device index;
    * ``weights[i]``: ``w_i`` of the rank computation, the max of those;
    * ``persistent[i]``: ``op.persistent_bytes``;
    * ``groups[i]``: the op's colocation group;
    * ``preds[i]`` / ``pred_bytes[i]``: producer ids, in input order,
      and the bytes each sends the op;
    * ``succs[i]`` / ``succ_comm[i]``: consumer ids and ``c_ij``, the
      worst-case transfer time over device pairs of each edge.

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
        self.pairs = [
            (a, b) for a in self.devices for b in self.devices if a != b
        ]
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.times: List[Optional[List[float]]] = []
        self.weights: List[Optional[float]] = []
        self.persistent: List[Optional[int]] = []
        self.groups: List[Optional[str]] = []
        self.preds: List[Optional[List[int]]] = []
        self.pred_bytes: List[Optional[List[int]]] = []
        self.succs: List[Optional[List[int]]] = []
        self.succ_comm: List[Optional[List[float]]] = []
        self._slots = (
            self.times, self.weights, self.persistent, self.groups,
            self.preds, self.pred_bytes, self.succs, self.succ_comm,
        )
        #: Ids of the ops in the graph.
        self.live: Set[int] = set()
        # Names whose slots await a refill; None means every op's.
        self._stale: Optional[Set[str]] = None
        # Graph-independent memos (the models are frozen during a search).
        self._comm_by_bytes: Dict[int, float] = {}
        self._rows: Dict[int, List[float]] = {}
        # Canonical topological order, valid while graph.version matches.
        self._order: List[int] = []
        self._order_version: Optional[int] = None
        # Observability: fills are counted unconditionally; reads only
        # after enable_stats() (see stats()).
        self.misses = 0
        self.lookups = 0
        self.invalidations = 0
        self.stats_enabled = False

    # ------------------------------------------------------------------
    # Ids and slots
    # ------------------------------------------------------------------
    def id_of(self, name: str) -> int:
        """The op name's id, assigned on first sight."""
        index = self.ids.get(name)
        if index is None:
            index = self.ids[name] = len(self.names)
            self.names.append(name)
            for slots in self._slots:
                slots.append(None)
        return index

    def _fill(
        self, index: int, times: List[float], persistent: int,
        group: Optional[str], preds: List[int], pred_bytes: List[int],
        succs: List[int], succ_bytes: Iterable[int],
    ) -> None:
        self.times[index] = times
        self.weights[index] = max(times, default=0.0)
        self.persistent[index] = persistent
        self.groups[index] = group
        self.preds[index], self.pred_bytes[index] = preds, pred_bytes
        self.succs[index] = succs
        self.succ_comm[index] = [self.max_transfer_time(b) for b in succ_bytes]
        self.live.add(index)
        self.misses += 1

    def _sync(self) -> None:
        """Refill the slots of every stale op still in the graph.

        A full refill reads the graph's index in one pass (its
        ``op_costs`` prices every op); an op-by-op refill walks each op's
        inputs and its outputs' uses.  Both list producers in input order
        and sum each edge's input slots.
        """
        graph, id_of = self.graph, self.id_of
        if self._stale is None:
            self._stale = set()
            for slots in self._slots:
                slots[:] = [None] * len(slots)
            self.live.clear()
            index = graph.index()
            ids = [id_of(name) for name in index.names]
            pred_ptr, preds, pred_bytes = (
                index.pred_ptr, index.preds, index.pred_bytes
            )
            succ_ptr, succs, succ_bytes = index.successors()
            costs = index.op_costs(self.computation, self.devices)
            for i, (times, persistent, group) in enumerate(costs):
                start, stop, first, last = (
                    pred_ptr[i], pred_ptr[i + 1], succ_ptr[i], succ_ptr[i + 1]
                )
                self._fill(
                    ids[i], times, persistent, group,
                    [ids[p] for p in preds[start:stop]], pred_bytes[start:stop],
                    [ids[j] for j in succs[first:last]], succ_bytes[first:last],
                )
            return
        stale, self._stale = sorted(self._stale), set()
        for name in stale:
            if name not in graph:
                if name in self.ids:
                    self.live.discard(self.ids[name])
                continue
            op = graph.get_op(name)
            received: Dict[str, int] = {}
            for tensor in op.inputs:
                if tensor.producer is not None:
                    p = tensor.producer.name
                    received[p] = received.get(p, 0) + tensor.size_bytes
            sent: Dict[str, int] = {}
            for tensor in op.outputs:
                for consumer, _ in graph.consumers(tensor):
                    c = consumer.name
                    sent[c] = sent.get(c, 0) + tensor.size_bytes
            self._fill(
                id_of(name), [self.computation.time(op, d) for d in self.devices],
                op.persistent_bytes, op.colocation_group,
                [id_of(p) for p in received], list(received.values()),
                [id_of(c) for c in sent], sent.values(),
            )

    # ------------------------------------------------------------------
    # Communication times (graph-independent)
    # ------------------------------------------------------------------
    def max_transfer_time(self, num_bytes: int) -> float:
        """``c_ij`` of ``num_bytes``: worst case over device pairs."""
        value = self._comm_by_bytes.get(num_bytes)
        if value is None:
            value = self._comm_by_bytes[num_bytes] = (
                self.communication.max_time(num_bytes, self.pairs)
            )
        return value

    def transfer_row(self, num_bytes: int) -> List[float]:
        """``communication.time`` of ``num_bytes`` over every device pair.

        Entry ``src * len(devices) + dst`` is the time from device index
        ``src`` to device index ``dst``.
        """
        row = self._rows.get(num_bytes)
        if row is None:
            time = self.communication.time
            row = self._rows[num_bytes] = [
                time(a, b, num_bytes) for a in self.devices for b in self.devices
            ]
        return row

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Canonical (name-tie-broken) Kahn order of the live op ids.

        Refills stale slots first.  Matches
        ``graph.topological_order(canonical=True)`` exactly.  The order is
        memoized on ``graph.version`` (a structural mutation counter), so
        every reader of one committed graph shares it; callers must not
        mutate the returned list.
        """
        if self._order_version == self.graph.version and not self._stale:
            if self.stats_enabled:
                self.lookups += len(self.live)
            return self._order
        self._sync()
        if self.stats_enabled:
            self.lookups += len(self.live)
        preds = self.preds
        indegree = [0] * len(self.names)
        for index in self.live:
            indegree[index] = len(preds[index])
        order = canonical_order(
            self.live, self.names, indegree, self.succs.__getitem__
        )
        if len(order) != len(self.live):
            raise GraphError(
                f"graph {self.graph.name!r} contains a cycle; FastT only "
                "handles DAGs — unroll while-loops before scheduling"
            )
        self._order, self._order_version = order, self.graph.version
        return order

    def rebind(self, graph: Graph) -> None:
        """Serve the slots over ``graph``, a structural copy of this one.

        The copy has the same op names and structure, and the slots hold
        ids and numbers only, so they all stay valid.
        """
        if self._order_version == self.graph.version:
            self._order_version = graph.version
        else:
            self._order_version = None
        self.graph = graph

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, names: Optional[Iterable[str]] = None) -> None:
        """Clear the slots of ``names`` (or of every op if None).

        The graph-independent memos (transfer times by byte count)
        survive: the communication model is frozen during a search, so
        those values cannot go stale.
        """
        self.invalidations += 1
        if names is None:
            self._stale = None
            return
        if self._stale is None:
            return
        ids, slots = self.ids, self._slots
        for name in names:
            index = ids.get(name)
            if index is not None:
                for column in slots:
                    column[index] = None
            self._stale.add(name)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_stats(self) -> None:
        """Count slot reads too (observability runs only)."""
        self.stats_enabled = True

    def stats(self) -> Dict[str, int]:
        """Read/fill/invalidation counters plus the filled-id count.

        * ``misses``: slot fills — one per op whose costs and adjacency
          were (re)computed from the models and the graph; always
          counted.
        * ``lookups``: slot reads — every live op once per
          :meth:`topological_order` call, i.e. per DPOS run or placement
          critical path; counted only after :meth:`enable_stats`.
        * ``hits``: ``lookups - misses``.
        * ``invalidations``: :meth:`invalidate` calls.
        * ``entries``: ids whose slots are filled.
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
        """Ids whose slots are filled (introspection/tests)."""
        return sum(1 for times in self.times if times is not None)
