"""Graph rewriting: the ``SplitOperation`` function of OS-DPOS (Alg. 2).

Splitting an operation into ``n`` sub-operations inserts split nodes on
partitionable input edges, broadcasts the remaining inputs, and merges
the sub-outputs with concat nodes — a pure graph transformation that
preserves training semantics (verified numerically by the test suite's
reference executor, ``tests/graph/numeric.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .graph import Graph
from .op_library import split_sizes
from .ops import Operation, SplitDimSpec
from .tensor import Tensor


class SplitError(RuntimeError):
    """Raised when a requested split is structurally impossible."""


@dataclass(frozen=True)
class SplitDecision:
    """One entry of the partition list FastT outputs (Sec. 3).

    Attributes:
        op_name: Operation that was split.
        dim: Named parallelizable dimension (``"batch"``, ``"channel"``...).
        num_splits: Number of sub-operations created.
    """

    op_name: str
    dim: str
    num_splits: int


def sub_op_names(op_name: str, num_splits: int) -> List[str]:
    """Deterministic names of the sub-operations a split creates."""
    return [f"{op_name}/part{i}" for i in range(num_splits)]


def split_operation(
    graph: Graph, op: Operation, dim: str, num_splits: int
) -> List[Operation]:
    """Split ``op`` into ``num_splits`` sub-operations along ``dim``.

    Mutates ``graph`` in place: the original op is removed, split/concat
    nodes are inserted, and consumers are rewired to the concatenated
    outputs.  Returns the new sub-operations.

    Raises :class:`SplitError` when the op does not expose ``dim`` or an
    extent is too small to partition.
    """
    if num_splits < 2:
        raise SplitError(f"num_splits must be >= 2, got {num_splits}")
    dims = op.split_dims
    if dim not in dims:
        raise SplitError(
            f"op {op.name!r} ({op.op_type}) has no splittable dimension "
            f"{dim!r}; available: {sorted(dims)}"
        )
    spec = dims[dim]

    piece_inputs = _split_inputs(graph, op, spec, num_splits)
    sub_ops = _create_sub_ops(graph, op, spec, num_splits, piece_inputs)
    _merge_outputs(graph, op, spec, sub_ops)
    graph.remove_op(op)
    return sub_ops


def _split_inputs(
    graph: Graph, op: Operation, spec: SplitDimSpec, n: int
) -> List[List[Tensor]]:
    """Per-sub-op input lists: sliced via SplitN nodes or broadcast whole."""
    per_piece: List[List[Tensor]] = [[] for _ in range(n)]
    for idx, tensor in enumerate(op.inputs):
        axis = spec.input_axes.get(idx)
        if axis is None:
            for piece in per_piece:
                piece.append(tensor)
            continue
        extent = tensor.shape[axis]
        if extent < n:
            raise SplitError(
                f"cannot split input {idx} of {op.name!r}: axis {axis} extent "
                f"{extent} < {n} pieces"
            )
        split_node = graph.create_op(
            "SplitN",
            graph.unique_name(f"{op.name}/split_in{idx}"),
            [tensor],
            attrs={"axis": axis, "num_splits": n},
        )
        for piece, out in zip(per_piece, split_node.outputs):
            piece.append(out)
    return per_piece


#: Attr keys that pin an output shape and must track the split pieces.
_SHAPE_ATTRS = ("input_shape", "filter_shape")


def _piece_fractions(
    op: Operation, spec: SplitDimSpec, n: int, out_pieces: Dict[int, List[int]]
) -> List[float]:
    """Fraction of the parent's work each sub-op performs."""
    if out_pieces:
        out_idx = min(out_pieces)
        axis = spec.output_axes[out_idx]
        extent = op.outputs[out_idx].shape[axis]
        return [size / extent for size in out_pieces[out_idx]]
    return [1.0 / n] * n


def _create_sub_ops(
    graph: Graph,
    op: Operation,
    spec: SplitDimSpec,
    n: int,
    piece_inputs: List[List[Tensor]],
) -> List[Operation]:
    out_pieces: Dict[int, List[int]] = {
        out_idx: split_sizes(op.outputs[out_idx].shape[axis], n)
        for out_idx, axis in spec.output_axes.items()
    }
    # Work fraction per piece, taken from the first sliced axis (FLOPs of
    # the supported split kinds scale linearly in the sliced extent).
    fractions = _piece_fractions(op, spec, n, out_pieces)
    sub_ops: List[Operation] = []
    for i, name in enumerate(sub_op_names(op.name, n)):
        attrs = dict(op.attrs)
        # Provenance lets the computation cost model estimate a sub-op's
        # time from its parent's profiled time before the sub-op has ever
        # executed (needed when Alg. 2 evaluates candidate splits).
        attrs["split_parent"] = op.name
        attrs["split_num"] = n
        attrs["split_fraction"] = fractions[i]
        for key in _SHAPE_ATTRS:
            if key in attrs:
                shape = list(attrs[key])  # type: ignore[arg-type]
                for out_idx, axis in spec.output_axes.items():
                    expected = tuple(op.outputs[out_idx].shape)
                    if tuple(shape) == expected:
                        shape[axis] = out_pieces[out_idx][i]
                attrs[key] = tuple(shape)
        sub = graph.create_op(
            op.op_type,
            graph.unique_name(name),
            piece_inputs[i],
            attrs=attrs,
            colocation_group=op.colocation_group,
        )
        for out_idx, axis in spec.output_axes.items():
            got = sub.outputs[out_idx].shape
            want = list(op.outputs[out_idx].shape)
            want[axis] = out_pieces[out_idx][i]
            if got != tuple(want):
                raise SplitError(
                    f"sub-op {sub.name!r} output {out_idx} has shape {got}, "
                    f"expected {tuple(want)} — split spec for "
                    f"{op.op_type}/{spec.name} is inconsistent"
                )
        sub_ops.append(sub)
    return sub_ops


def _merge_outputs(
    graph: Graph, op: Operation, spec: SplitDimSpec, sub_ops: List[Operation]
) -> None:
    for out_idx, tensor in enumerate(op.outputs):
        consumers = graph.consumers(tensor)
        if not consumers:
            continue
        axis = spec.output_axes.get(out_idx)
        if axis is None:
            raise SplitError(
                f"output {out_idx} of {op.name!r} is consumed but the split "
                f"spec declares no concat axis for it"
            )
        concat = graph.create_op(
            "Concat",
            graph.unique_name(f"{op.name}/concat_out{out_idx}"),
            [sub.outputs[out_idx] for sub in sub_ops],
            attrs={"axis": axis},
        )
        if concat.outputs[0].shape != tensor.shape:
            raise SplitError(
                f"concat of {op.name!r} output {out_idx} reconstructs shape "
                f"{concat.outputs[0].shape}, expected {tensor.shape}"
            )
        for consumer, input_idx in consumers:
            graph.replace_input(consumer, input_idx, concat.outputs[0])


class SplitTransaction:
    """One speculative split with O(split size) apply/undo.

    Wraps :func:`split_operation` in a graph transaction so OS-DPOS can
    evaluate a candidate by mutating the working graph in place and
    rolling the mutation back, instead of deep-copying the whole graph
    per candidate.  ``touched`` (populated by :meth:`apply`,
    :meth:`undo`, and :meth:`commit` — and by a failed apply) names every
    op whose structure or adjacency the split changed, for cache
    invalidation.

    Usage::

        txn = SplitTransaction(graph, op, dim, num_splits)
        sub_ops = txn.apply()      # raises SplitError (graph restored)
        ...evaluate the candidate...
        txn.undo()                 # or txn.commit() to keep the split
    """

    def __init__(
        self, graph: Graph, op: Operation, dim: str, num_splits: int
    ) -> None:
        self.graph = graph
        self.op = op
        self.dim = dim
        self.num_splits = num_splits
        self.sub_ops: List[Operation] = []
        self.touched: Set[str] = set()
        self._open = False

    @property
    def decision(self) -> SplitDecision:
        return SplitDecision(
            op_name=self.op.name, dim=self.dim, num_splits=self.num_splits
        )

    def apply(self) -> List[Operation]:
        """Apply the split; on :class:`SplitError` the graph is restored."""
        self.graph.begin_transaction()
        try:
            self.sub_ops = split_operation(
                self.graph, self.op, self.dim, self.num_splits
            )
        except Exception:
            self.touched |= self.graph.rollback_transaction()
            raise
        self._open = True
        self.touched |= self.graph.transaction_touched()
        return self.sub_ops

    def undo(self) -> Set[str]:
        """Roll the applied split back; returns the touched op names."""
        if not self._open:
            raise RuntimeError("no applied split to undo")
        self._open = False
        touched = self.graph.rollback_transaction()
        self.touched |= touched
        return touched

    def commit(self) -> Set[str]:
        """Keep the applied split; returns the touched op names."""
        if not self._open:
            raise RuntimeError("no applied split to commit")
        self._open = False
        touched = self.graph.commit_transaction()
        self.touched |= touched
        return touched


def apply_split_list(graph: Graph, decisions: List[SplitDecision]) -> Graph:
    """Apply a partition list to ``graph`` in order (mutating it)."""
    for decision in decisions:
        op = graph.get_op(decision.op_name)
        split_operation(graph, op, decision.dim, decision.num_splits)
    return graph
