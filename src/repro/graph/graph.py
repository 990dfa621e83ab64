"""The dataflow :class:`Graph`: a DAG of operations connected by tensors.

This is the structure FastT's strategy calculator consumes — the analogue
of a frozen TensorFlow ``GraphDef``.  Graphs are acyclic by construction
(an op may only consume tensors that already exist), and rewrites
(operation splitting, data-parallel replication) go through explicit
mutation helpers so consumer bookkeeping stays consistent.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .index import GraphIndex
from .ops import Operation, get_spec
from .tensor import Tensor


class GraphError(RuntimeError):
    """Raised on structural violations (cycles, duplicate names, ...)."""


#: Journal entry kinds of an open transaction (see :meth:`Graph.begin_transaction`).
_CREATE, _REPLACE, _REMOVE = "create", "replace", "remove"


class Graph:
    """A directed acyclic dataflow graph of named operations."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._ops: Dict[str, Operation] = {}
        self._tensors: Dict[str, Tensor] = {}
        # tensor name -> list of (consumer op, input index)
        self._consumers: Dict[str, List[Tuple[Operation, int]]] = {}
        self._name_counter = 0
        # Monotone mutation counter: bumped by every structural change
        # (including rollbacks, which also mutate).  Equal versions imply
        # identical structure, so per-graph caches — e.g. the simulator's
        # execution plan — key on it instead of hashing the whole graph.
        self._version = 0
        # Per-version memos of derived structure: the integer index (it
        # also holds the canonical order), the insertion-order Kahn order
        # as (version, ops), and the last version that passed validate().
        # A version bump makes all three stale.
        self._index: Optional[GraphIndex] = None
        self._fifo_order: Optional[Tuple[int, List[Operation]]] = None
        self._validated_version: Optional[int] = None
        # Open mutation journal; None outside a transaction.
        self._txn: Optional[List[tuple]] = None
        self._txn_name_counter = 0

    @property
    def version(self) -> int:
        """Structural mutation counter (see ``__init__``)."""
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def create_op(
        self,
        op_type: str,
        name: str,
        inputs: Sequence[Tensor] = (),
        attrs: Optional[Dict[str, object]] = None,
        colocation_group: Optional[str] = None,
    ) -> Operation:
        """Create an operation, inferring output shapes from its spec.

        Raises :class:`GraphError` if ``name`` is taken or an input tensor
        does not belong to this graph.
        """
        if name in self._ops:
            raise GraphError(f"duplicate op name {name!r} in graph {self.name!r}")
        attrs = dict(attrs or {})
        inputs = list(inputs)
        for t in inputs:
            if self._tensors.get(t.name) is not t:
                raise GraphError(
                    f"input tensor {t.name!r} of op {name!r} is not in graph "
                    f"{self.name!r}"
                )
        spec = get_spec(op_type)
        out_shapes = spec.infer_shapes(inputs, attrs)
        out_dtypes = spec.output_dtypes(inputs, attrs, len(out_shapes))
        op = Operation(
            name=name,
            op_type=op_type,
            inputs=inputs,
            attrs=attrs,
            colocation_group=colocation_group,
        )
        for i, (shape, dtype) in enumerate(zip(out_shapes, out_dtypes)):
            t = Tensor(f"{name}:{i}", tuple(shape), dtype, producer=op, output_index=i)
            op.outputs.append(t)
            self._tensors[t.name] = t
            self._consumers[t.name] = []
        self._ops[name] = op
        self._version += 1
        for idx, t in enumerate(inputs):
            self._consumers[t.name].append((op, idx))
        if self._txn is not None:
            self._txn.append((_CREATE, op))
        return op

    def unique_name(self, prefix: str) -> str:
        """A name starting with ``prefix`` not yet used by any op."""
        if prefix not in self._ops:
            return prefix
        while True:
            candidate = f"{prefix}_{self._name_counter}"
            self._name_counter += 1
            if candidate not in self._ops:
                return candidate

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def ops(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._ops.values())

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def get_op(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"no op named {name!r} in graph {self.name!r}") from None

    def get_tensor(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise GraphError(
                f"no tensor named {name!r} in graph {self.name!r}"
            ) from None

    def consumers(self, tensor: Tensor) -> List[Tuple[Operation, int]]:
        """The ``(op, input index)`` pairs consuming ``tensor``."""
        return list(self._consumers.get(tensor.name, ()))

    def predecessors(self, op: Operation) -> List[Operation]:
        """Unique producer ops of ``op``'s inputs, in input order."""
        seen: Dict[str, Operation] = {}
        for t in op.inputs:
            prod = t.producer
            if prod is not None and prod.name not in seen:
                seen[prod.name] = prod
        return list(seen.values())

    def successors(self, op: Operation) -> List[Operation]:
        """Unique consumer ops of ``op``'s outputs."""
        seen: Dict[str, Operation] = {}
        for t in op.outputs:
            for consumer, _ in self._consumers.get(t.name, ()):
                if consumer.name not in seen:
                    seen[consumer.name] = consumer
        return list(seen.values())

    def entry_ops(self) -> List[Operation]:
        """Operations with no predecessors."""
        return [op for op in self if not op.inputs]

    def exit_ops(self) -> List[Operation]:
        """Operations none of whose outputs are consumed."""
        return [op for op in self if not self.successors(op)]

    def edge_bytes(self, src: Operation, dst: Operation) -> int:
        """Total bytes flowing directly from ``src`` into ``dst``.

        This is the tensor volume the communication cost model prices when
        the two ops land on different devices.
        """
        src_outputs = {t.name for t in src.outputs}
        return sum(t.size_bytes for t in dst.inputs if t.name in src_outputs)

    # ------------------------------------------------------------------
    # Traversal / validation
    # ------------------------------------------------------------------
    def index(self) -> GraphIndex:
        """The integer index of this version (built once per version)."""
        index = self._index
        if index is None or index.version != self._version:
            index = self._index = GraphIndex(self)
        return index

    def topological_order(self, canonical: bool = False) -> List[Operation]:
        """Kahn's algorithm; raises :class:`GraphError` on a cycle.

        With ``canonical=True`` the ready set is drained in op-name order
        (a min-heap), making the result a pure function of the graph's
        *content*, independent of insertion order.  The strategy search
        relies on this so that an in-place-mutated graph and a structural
        copy of it order-tie-break identically.  That order is the
        :meth:`index`'s.

        The order is computed once per (:attr:`version`, ``canonical``);
        each call returns a fresh list the caller may mutate.
        """
        if canonical:
            index = self.index()
            ops = index.ops
            return [ops[i] for i in index.canonical_order()]
        cached = self._fifo_order
        if cached is not None and cached[0] == self._version:
            return list(cached[1])
        ops, consumers = self._ops, self._consumers
        # Same adjacency as predecessors()/successors(), inlined: an op's
        # in-degree counts its distinct producers, and each distinct
        # consumer is released once, in consumer-list order.
        indegree: Dict[str, int] = {
            name: len({t.producer.name for t in op.inputs if t.producer is not None})
            for name, op in ops.items()
        }
        ready = deque(ops[name] for name, degree in indegree.items() if degree == 0)
        order: List[Operation] = []
        while ready:
            op = ready.popleft()
            order.append(op)
            released: Set[str] = set()
            for t in op.outputs:
                for succ, _ in consumers[t.name]:
                    name = succ.name
                    if name not in released:
                        released.add(name)
                        indegree[name] -= 1
                        if indegree[name] == 0:
                            ready.append(succ)
        if len(order) != len(self._ops):
            raise GraphError(
                f"graph {self.name!r} contains a cycle "
                f"({len(self._ops) - len(order)} ops unreachable); FastT only "
                "handles DAGs — unroll while-loops before scheduling"
            )
        self._fifo_order = (self._version, order)
        return list(order)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on failure.

        A version that passed once is not re-checked.
        """
        if self._validated_version == self._version:
            return
        self.topological_order()
        for op in self:
            for t in op.outputs:
                if self._tensors.get(t.name) is not t:
                    raise GraphError(f"output {t.name!r} missing from tensor table")
            for idx, t in enumerate(op.inputs):
                if (op, idx) not in self._consumers.get(t.name, ()):
                    raise GraphError(
                        f"consumer table out of sync for {t.name!r} -> "
                        f"{op.name!r}[{idx}]"
                    )
        self._validated_version = self._version

    def total_flops(self) -> float:
        return sum(op.flops for op in self)

    def total_param_bytes(self) -> int:
        return sum(op.param_bytes for op in self)

    # ------------------------------------------------------------------
    # Mutation (used by graph rewrites)
    # ------------------------------------------------------------------
    def replace_input(self, op: Operation, index: int, new_tensor: Tensor) -> None:
        """Rewire input ``index`` of ``op`` to ``new_tensor``."""
        if self._tensors.get(new_tensor.name) is not new_tensor:
            raise GraphError(f"tensor {new_tensor.name!r} is not in this graph")
        old = op.inputs[index]
        if self._txn is not None:
            self._txn.append(
                (
                    _REPLACE,
                    op,
                    index,
                    old,
                    new_tensor,
                    list(self._consumers[old.name]),
                    list(self._consumers[new_tensor.name]),
                )
            )
        pairs = self._consumers[old.name]
        self._consumers[old.name] = [
            (c, i) for c, i in pairs if not (c is op and i == index)
        ]
        op.inputs[index] = new_tensor
        op._reset_memos()
        self._consumers[new_tensor.name].append((op, index))
        self._version += 1

    def remove_op(self, op: Operation) -> None:
        """Remove ``op``; its outputs must be unconsumed."""
        for t in op.outputs:
            if self._consumers.get(t.name):
                raise GraphError(
                    f"cannot remove {op.name!r}: output {t.name!r} still has "
                    f"consumers"
                )
        if self._txn is not None:
            position = list(self._ops).index(op.name)
            saved = {
                t.name: list(self._consumers[t.name])
                for t in {t.name: t for t in op.inputs}.values()
            }
            self._txn.append((_REMOVE, op, position, saved))
        for idx, t in enumerate(op.inputs):
            pairs = self._consumers[t.name]
            self._consumers[t.name] = [
                (c, i) for c, i in pairs if not (c is op and i == idx)
            ]
        for t in op.outputs:
            del self._tensors[t.name]
            del self._consumers[t.name]
        del self._ops[op.name]
        self._version += 1

    def copy(self, name: Optional[str] = None) -> "Graph":
        """Structural deep copy (new Operation/Tensor objects, same names).

        Ops are cloned in :meth:`topological_order`, exactly as if each
        were re-created with :meth:`create_op` (same op order, consumer
        lists and version), but without re-running shape inference: this
        graph's shapes were inferred and checked when its ops were made.
        """
        clone = Graph(name or self.name)
        tensors, consumers = clone._tensors, clone._consumers
        for op in self.topological_order():
            new_op = Operation(
                name=op.name,
                op_type=op.op_type,
                inputs=[tensors[t.name] for t in op.inputs],
                attrs=dict(op.attrs),
                colocation_group=op.colocation_group,
            )
            new_op._flops = op._flops
            new_op._bytes_accessed = op._bytes_accessed
            for t in op.outputs:
                new_t = Tensor(
                    t.name, t.shape, t.dtype, producer=new_op,
                    output_index=t.output_index,
                )
                new_op.outputs.append(new_t)
                tensors[new_t.name] = new_t
                consumers[new_t.name] = []
            clone._ops[op.name] = new_op
            for idx, t in enumerate(new_op.inputs):
                consumers[t.name].append((new_op, idx))
        clone._version = len(clone._ops)
        return clone

    # ------------------------------------------------------------------
    # Transactions (apply/undo for speculative rewrites)
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin_transaction(self) -> None:
        """Start journaling mutations so they can be rolled back exactly.

        While a transaction is open, :meth:`create_op`,
        :meth:`replace_input`, and :meth:`remove_op` record undo
        information; :meth:`rollback_transaction` then restores the graph
        byte-for-byte (op iteration order, consumer-list order, and object
        identity included), in time proportional to the number of
        journaled mutations — not the graph size.  This is what lets
        OS-DPOS evaluate a split candidate in place instead of deep
        copying the whole graph.
        """
        if self._txn is not None:
            raise GraphError("a transaction is already open (no nesting)")
        self._txn = []
        self._txn_name_counter = self._name_counter

    def _txn_touched(self, entries: List[tuple]) -> Set[str]:
        """Ops whose structure (attrs or adjacency) a journal touched."""
        touched: Set[str] = set()
        for entry in entries:
            kind, op = entry[0], entry[1]
            touched.add(op.name)
            if kind == _REPLACE:
                for tensor in (entry[3], entry[4]):
                    if tensor.producer is not None:
                        touched.add(tensor.producer.name)
            else:  # create / remove change the producers' successor sets
                for tensor in op.inputs:
                    if tensor.producer is not None:
                        touched.add(tensor.producer.name)
        return touched

    def transaction_touched(self) -> Set[str]:
        """Touched-op set of the open transaction so far.

        Same contract as the :meth:`commit_transaction` return value, but
        readable mid-transaction — callers invalidate per-op caches right
        after applying a speculative rewrite, before evaluating it.
        """
        if self._txn is None:
            raise GraphError("no open transaction")
        return self._txn_touched(self._txn)

    def commit_transaction(self) -> Set[str]:
        """Close the open transaction, keeping every mutation.

        Returns the names of ops whose structure or adjacency changed
        (created, removed, or rewired ops plus their direct producers) so
        callers can invalidate per-op caches.
        """
        if self._txn is None:
            raise GraphError("no open transaction to commit")
        entries, self._txn = self._txn, None
        return self._txn_touched(entries)

    def rollback_transaction(self) -> Set[str]:
        """Undo every mutation of the open transaction, newest first.

        Returns the same touched-op set as :meth:`commit_transaction`
        would have.
        """
        if self._txn is None:
            raise GraphError("no open transaction to roll back")
        entries, self._txn = self._txn, None
        touched = self._txn_touched(entries)
        self._version += 1
        # Restore the name counter so a rolled-back rewrite, re-applied to
        # the restored graph, generates exactly the same op names.
        self._name_counter = self._txn_name_counter
        for entry in reversed(entries):
            kind = entry[0]
            if kind == _CREATE:
                op = entry[1]
                for idx, t in enumerate(op.inputs):
                    pairs = self._consumers[t.name]
                    self._consumers[t.name] = [
                        (c, i) for c, i in pairs if not (c is op and i == idx)
                    ]
                for t in op.outputs:
                    del self._tensors[t.name]
                    del self._consumers[t.name]
                del self._ops[op.name]
            elif kind == _REPLACE:
                _, op, index, old, new, old_pairs, new_pairs = entry
                op.inputs[index] = old
                op._reset_memos()
                self._consumers[old.name] = old_pairs
                self._consumers[new.name] = new_pairs
            else:  # _REMOVE: reinsert at the original position
                _, op, position, saved = entry
                items = list(self._ops.items())
                items.insert(position, (op.name, op))
                self._ops = dict(items)
                for t in op.outputs:
                    self._tensors[t.name] = t
                    self._consumers[t.name] = []
                for tensor_name, pairs in saved.items():
                    self._consumers[tensor_name] = pairs
        return touched

    # ------------------------------------------------------------------
    # Colocation
    # ------------------------------------------------------------------
    def colocation_groups(self) -> Dict[str, List[Operation]]:
        """Map group id -> member ops, for ops that declare a group."""
        groups: Dict[str, List[Operation]] = {}
        for op in self:
            if op.colocation_group is not None:
                groups.setdefault(op.colocation_group, []).append(op)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.name!r}, {len(self._ops)} ops)"
