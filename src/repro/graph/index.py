"""One integer numbering of a graph version, shared by its readers.

:meth:`Graph.index` builds a :class:`GraphIndex` once per
:attr:`Graph.version`; the simulator, coarsening and the cost cache read
it instead of numbering the graph themselves.  Ops are numbered in graph
order and tensors in (op, output) order.  Adjacency is stored as
compressed sparse rows: ``x_ptr[i]:x_ptr[i + 1]`` slices row ``i`` out
of the flat list ``x``.  The lists share one int object per distinct
value, so an entry costs a pointer; no name-keyed map is kept.
"""

from __future__ import annotations

import heapq
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph


def _offsets(ints: List[int], counts: Iterable[int]) -> List[int]:
    """CSR offsets of rows of ``counts`` entries, as shared ``ints``."""
    return [0, *map(ints.__getitem__, accumulate(counts))]


def _transpose(
    ints: List[int], ptr: List[int], ids: List[int], size: int
) -> Tuple[List[int], List[int], List[int]]:
    """Reverse a CSR relation: row ``r`` lists, in row order, the rows
    whose entries name ``r``.  Also returns the entry order used, to
    carry per-entry values along."""
    counts = [0] * size
    for j in ids:
        counts[j] += 1
    order = sorted(range(len(ids)), key=ids.__getitem__)
    owner = [i for i, a, b in zip(ints, ptr, ptr[1:]) for _ in range(a, b)]
    return _offsets(ints, counts), [owner[k] for k in order], order


def successors_of(
    ints: List[int], pred_ptr: List[int], preds: List[int],
    pred_bytes: List[int], size: int,
) -> Tuple[List[int], List[int], List[int]]:
    """``(succ_ptr, succs, succ_bytes)`` of a producer relation in CSR:
    each node's distinct consumers by ascending id, with the bytes each
    receives.  ``ints`` covers ``range(max(size, len(preds)) + 1)``."""
    succ_ptr, succs, order = _transpose(ints, pred_ptr, preds, size)
    return succ_ptr, succs, [pred_bytes[k] for k in order]


def canonical_order(
    nodes: Iterable[int],
    names: List[str],
    indegree: List[int],
    successors: Callable[[int], Iterable[int]],
) -> List[int]:
    """Kahn's order of ``nodes`` with the ready set drained by name.

    ``indegree`` (by id, consumed) counts each node's in-edges and
    ``successors(i)`` lists ``i``'s out-edges by target, one entry per
    edge.  Names are unique, so a heap of name ranks pops like a heap of
    names, with int comparisons.
    """
    by_rank = sorted(nodes, key=names.__getitem__)
    rank = [0] * len(names)
    for r, i in enumerate(by_rank):
        rank[i] = r
    heap = [rank[i] for i in by_rank if not indegree[i]]  # sorted: a heap
    pop, push = heapq.heappop, heapq.heappush
    order = []
    while heap:
        i = by_rank[pop(heap)]
        order.append(i)
        for j in successors(i):
            indegree[j] -= 1
            if not indegree[j]:
                push(heap, rank[j])
    return order


class GraphIndex:
    """Integer adjacency of one graph version (see the module docstring).

    By op id: ``ops``, ``names``, output tensors (``out_ptr``), distinct
    input tensors in first-occurrence order (``in_ptr``/``in_ids``), and
    distinct producers in input order with the bytes of all the input
    slots each feeds (``pred_ptr``/``preds``/``pred_bytes``); consumers
    come from :meth:`successors`.  By tensor id: ``tensor_names``,
    ``tensor_bytes``, ``producers`` and consumers by ascending op id
    (``cons_ptr``/``cons_ids``).
    """

    __slots__ = (
        "version", "graph_name", "ops", "names",
        "tensor_names", "tensor_bytes", "producers", "out_ptr",
        "in_ptr", "in_ids", "cons_ptr", "cons_ids",
        "pred_ptr", "preds", "pred_bytes", "_ints", "_successors",
        "_canonical",
    )

    def __init__(self, graph: "Graph") -> None:
        self.version = graph.version
        self.graph_name = graph.name
        self.ops = ops = graph.ops
        self.names = [op.name for op in ops]
        tensors = [t for op in ops for t in op.outputs]
        self.tensor_names = [t.name for t in tensors]
        self.tensor_bytes = sizes = [t.size_bytes for t in tensors]
        # One int object per id and offset, shared by every list.
        slot_lists = [op.inputs for op in ops]
        bound = max(len(ops), len(tensors), sum(map(len, slot_lists)))
        ints = list(range(bound + 1))
        self.producers = producers = [
            i for i, op in zip(ints, ops) for _ in op.outputs
        ]
        # Inputs are numbered once every tensor has its id: a rewired op
        # may read a tensor created after it.
        tensor_id = dict(zip(self.tensor_names, ints))
        in_ptr, pred_ptr = [0], [0]
        in_ids, preds, pred_bytes = [], [], []
        for row in slot_lists:
            if len(row) == 1:
                t = tensor_id[row[0].name]
                in_ids.append(t)
                preds.append(producers[t])
                pred_bytes.append(sizes[t])
            elif row:
                row = [tensor_id[t.name] for t in row]
                received: Dict[int, int] = {}
                for t in row:
                    p = producers[t]
                    received[p] = (
                        received[p] + sizes[t] if p in received else sizes[t]
                    )
                in_ids += dict.fromkeys(row)
                preds += received
                pred_bytes += received.values()
            in_ptr.append(ints[len(in_ids)])
            pred_ptr.append(ints[len(preds)])
        self.in_ptr, self.in_ids = in_ptr, in_ids
        self.pred_ptr, self.preds, self.pred_bytes = pred_ptr, preds, pred_bytes
        self.out_ptr = _offsets(ints, map(len, (op.outputs for op in ops)))
        self.cons_ptr, self.cons_ids, _ = _transpose(
            ints, in_ptr, in_ids, len(tensors)
        )
        self._ints = ints
        self._successors: Optional[Tuple[List[int], List[int], List[int]]] = None
        self._canonical: Optional[List[int]] = None

    def successors(self) -> Tuple[List[int], List[int], List[int]]:
        """``(succ_ptr, succs, succ_bytes)``: each op's distinct consumers
        by ascending id, with the bytes each receives (computed once)."""
        if self._successors is None:
            self._successors = successors_of(
                self._ints, self.pred_ptr, self.preds, self.pred_bytes,
                len(self.ops),
            )
        return self._successors

    def op_costs(self, computation, devices: List[str]):
        """Per op, in id order: ``(times, persistent bytes, colocation
        group)``, ``times`` being ``computation.time`` on each device."""
        time = computation.time
        for op in self.ops:
            yield (
                [time(op, d) for d in devices],
                op.persistent_bytes, op.colocation_group,
            )

    def canonical_order(self) -> List[int]:
        """The op ids in :meth:`Graph.topological_order` order with
        ``canonical=True`` (computed once).  Callers must not mutate it."""
        if self._canonical is None:
            # Edges by tensor: an op waits for each distinct input tensor,
            # and an op's readers are the consumers of its outputs, which
            # are consecutive in cons_ids.  Readiness, and so the order,
            # equal the distinct-producer edges', without successors().
            n = len(self.ops)
            in_ptr, out_ptr = self.in_ptr, self.out_ptr
            cons_ptr, cons_ids = self.cons_ptr, self.cons_ids
            order = canonical_order(
                self._ints[:n], self.names,
                [in_ptr[i + 1] - in_ptr[i] for i in range(n)],
                lambda i: cons_ids[
                    cons_ptr[out_ptr[i]]:cons_ptr[out_ptr[i + 1]]
                ],
            )
            if len(order) != n:
                from .graph import GraphError

                raise GraphError(
                    f"graph {self.graph_name!r} contains a cycle "
                    f"({n - len(order)} ops unreachable); FastT only "
                    "handles DAGs — unroll while-loops before scheduling"
                )
            self._canonical = order
        return self._canonical
