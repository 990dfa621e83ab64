"""Tensors: the values flowing along edges of the dataflow graph.

A :class:`Tensor` is produced by exactly one operation output slot and may
be consumed by any number of downstream operations.  FastT's scheduling
algorithms only ever need a tensor's *size in bytes* (to estimate transfer
cost) and its *shape* (to reason about split dimensions), so tensors here
are lightweight descriptors, not numeric buffers.  Numeric execution for
semantics tests lives in the test suite (``tests/graph/numeric.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ops import Operation

#: Bytes per element for the dtypes we model.
DTYPE_SIZES = {
    "float16": 2,
    "float32": 4,
    "float64": 8,
    "int32": 4,
    "int64": 8,
    "bool": 1,
}


class ShapeError(ValueError):
    """Raised when shapes are inconsistent with an operation's contract."""


def shape_num_elements(shape: Tuple[int, ...]) -> int:
    """Number of elements in ``shape`` (1 for a scalar / rank-0 shape)."""
    return int(math.prod(shape)) if shape else 1


@dataclass(eq=False, frozen=True, init=False)
class Tensor:
    """A symbolic tensor: one output of one operation.

    Tensors are immutable: assigning any field raises
    :class:`dataclasses.FrozenInstanceError`, so the element count and
    byte size computed at creation can never go stale.  Rewrites change
    which tensor an op reads (:meth:`repro.graph.graph.Graph.replace_input`),
    never a tensor.

    Attributes:
        name: Globally unique name, conventionally ``"<op name>:<index>"``.
        shape: Static shape.  All dims must be positive; we do not model
            unknown dimensions because the scheduler needs concrete sizes.
        dtype: One of :data:`DTYPE_SIZES`.
        producer: The operation producing this tensor (passed in by
            :meth:`repro.graph.graph.Graph.create_op`).
        output_index: Which output slot of ``producer`` this tensor is.
    """

    __slots__ = (
        "name", "shape", "dtype", "producer", "output_index",
        "_num_elements", "_size_bytes",
    )
    name: str
    shape: Tuple[int, ...]
    dtype: str
    producer: Optional["Operation"]
    output_index: int

    def __init__(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: str = "float32",
        producer: Optional["Operation"] = None,
        output_index: int = 0,
    ) -> None:
        if dtype not in DTYPE_SIZES:
            raise ValueError(f"unknown dtype {dtype!r} for tensor {name!r}")
        shape = tuple(map(int, shape))
        if shape and min(shape) <= 0:
            raise ShapeError(
                f"tensor {name!r} has non-positive dimension in shape {shape}"
            )
        num_elements = shape_num_elements(shape)
        setattr_ = object.__setattr__  # the frozen class's own setter raises
        setattr_(self, "name", name)
        setattr_(self, "shape", shape)
        setattr_(self, "dtype", dtype)
        setattr_(self, "producer", producer)
        setattr_(self, "output_index", output_index)
        setattr_(self, "_num_elements", num_elements)
        setattr_(self, "_size_bytes", num_elements * DTYPE_SIZES[dtype])

    @property
    def num_elements(self) -> int:
        """Total element count."""
        return self._num_elements

    @property
    def size_bytes(self) -> int:
        """Size of this tensor in bytes; the unit of the communication model."""
        return self._size_bytes

    @property
    def rank(self) -> int:
        return len(self.shape)

    def with_dim(self, axis: int, new_size: int) -> Tuple[int, ...]:
        """Return this tensor's shape with dimension ``axis`` replaced."""
        if not 0 <= axis < self.rank:
            raise ShapeError(f"axis {axis} out of range for shape {self.shape}")
        if new_size <= 0:
            raise ShapeError(f"replacement size {new_size} must be positive")
        shape = list(self.shape)
        shape[axis] = int(new_size)
        return tuple(shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor({self.name!r}, shape={self.shape}, dtype={self.dtype})"
