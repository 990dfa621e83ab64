"""Operations and the op-type registry.

An :class:`Operation` is a node of the dataflow DAG.  Its behaviour —
shape inference, FLOP count, splittable dimensions, and gradient
construction — is defined by an :class:`OpSpec` looked up in the global
registry by ``op_type`` string (``"Conv2D"``, ``"MatMul"``, ...).

This mirrors how FastT consumes a TensorFlow graph: the scheduling
algorithms never execute kernels, they only read structural metadata
(edges, tensor sizes, per-op cost estimates) that the op specs provide.
Concrete specs live in :mod:`repro.graph.op_library`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph


class NotDifferentiableError(RuntimeError):
    """Raised when autodiff reaches an op whose spec defines no gradient."""


class UnknownOpTypeError(KeyError):
    """Raised when an op type has not been registered."""


@dataclass(frozen=True)
class SplitDimSpec:
    """How an operation may be partitioned along one named dimension.

    Attributes:
        name: Human-readable dimension name (``"batch"``, ``"channel"``...).
        input_axes: For each input index, the axis to slice, or ``None``
            when that input must be broadcast whole to every sub-operation
            (e.g. convolution filters under a batch split).  Inputs absent
            from the mapping are treated as broadcast.
        output_axes: For each output index, the axis along which the
            sub-operations' outputs are concatenated to reconstruct the
            original output.  Every output must be present: the rewrite
            inserts one concat node per output.
    """

    name: str
    input_axes: Dict[int, Optional[int]]
    output_axes: Dict[int, int]


class OpSpec:
    """Behaviour of one operation type.  Subclass and register."""

    #: The ``op_type`` string this spec serves.
    type_name: str = ""

    def infer_shapes(
        self, inputs: Sequence[Tensor], attrs: Dict[str, object]
    ) -> List[Tuple[int, ...]]:
        """Return the output shapes for the given inputs and attributes."""
        raise NotImplementedError

    def output_dtypes(
        self, inputs: Sequence[Tensor], attrs: Dict[str, object],
        num_outputs: int,
    ) -> List[str]:
        """Dtypes of the ``num_outputs`` outputs (the length of
        :meth:`infer_shapes`' result); defaults to the first input's
        dtype (or float32)."""
        dtype = inputs[0].dtype if inputs else str(attrs.get("dtype", "float32"))
        return [dtype] * num_outputs

    def flops(self, op: "Operation") -> float:
        """Floating point operations performed by ``op`` (default 0)."""
        return 0.0

    def bytes_accessed(self, op: "Operation") -> int:
        """Memory traffic of one execution; the roofline model's bandwidth term."""
        total = sum(t.size_bytes for t in op.inputs)
        total += sum(t.size_bytes for t in op.outputs)
        return total

    def param_bytes(self, op: "Operation") -> int:
        """Bytes of trainable parameters persistently held by ``op``."""
        return 0

    def split_dims(self, op: "Operation") -> Dict[str, SplitDimSpec]:
        """Dimensions along which ``op`` can be partitioned (default none)."""
        return {}

    def build_grad(
        self, graph: "Graph", op: "Operation", grad_outputs: Sequence[Optional[Tensor]]
    ) -> List[Optional[Tensor]]:
        """Emit gradient ops into ``graph``; return one gradient per input.

        ``grad_outputs`` holds the upstream gradient for each output of
        ``op`` (``None`` when that output does not influence the loss).
        Return ``None`` for inputs that need no gradient.
        """
        raise NotDifferentiableError(
            f"op type {op.op_type!r} ({op.name!r}) defines no gradient"
        )


_REGISTRY: Dict[str, OpSpec] = {}

_TOKENS = itertools.count()  # Operation.structure_token values


def register_op(spec_cls: type) -> type:
    """Class decorator adding an :class:`OpSpec` subclass to the registry."""
    spec = spec_cls()
    if not spec.type_name:
        raise ValueError(f"{spec_cls.__name__} must set type_name")
    if spec.type_name in _REGISTRY:
        raise ValueError(f"duplicate op spec for type {spec.type_name!r}")
    _REGISTRY[spec.type_name] = spec
    return spec_cls


def get_spec(op_type: str) -> OpSpec:
    """Look up the registered spec for ``op_type``."""
    try:
        return _REGISTRY[op_type]
    except KeyError:
        raise UnknownOpTypeError(
            f"op type {op_type!r} is not registered; known types: "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_types() -> List[str]:
    """All registered op type names, sorted."""
    return sorted(_REGISTRY)


@dataclass(eq=False)
class Operation:
    """One node of the dataflow DAG.

    Create operations via :meth:`repro.graph.graph.Graph.create_op`, which
    performs shape inference and bookkeeping; do not instantiate directly.

    """

    name: str
    op_type: str
    inputs: List[Tensor]
    outputs: List[Tensor] = field(default_factory=list)
    attrs: Dict[str, object] = field(default_factory=dict)
    colocation_group: Optional[str] = None

    def __post_init__(self) -> None:
        self._spec = get_spec(self.op_type)
        # Memos over the op's inputs and outputs; Graph.replace_input and
        # its rollback reset them when an input is rewired.
        self._flops: Optional[float] = None
        self._bytes_accessed: Optional[int] = None
        self._token: Optional[int] = None

    @property
    def spec(self) -> OpSpec:
        return self._spec

    @property
    def flops(self) -> float:
        """Cached FLOP estimate used by the ground-truth hardware model."""
        if self._flops is None:
            self._flops = float(self._spec.flops(self))
        return self._flops

    @property
    def bytes_accessed(self) -> int:
        """Cached memory traffic of one execution."""
        if self._bytes_accessed is None:
            self._bytes_accessed = self._spec.bytes_accessed(self)
        return self._bytes_accessed

    def _reset_memos(self) -> None:
        """Forget the input-dependent memos (after an input is rewired)."""
        self._flops = None
        self._bytes_accessed = None
        self._token = None

    @property
    def structure_token(self) -> int:
        """An int unique to this op object and its current inputs.

        Drawn on first read; every rewiring (and its rollback) forgets it,
        so a tuple of member tokens keys memos over a set of ops exactly.
        """
        if self._token is None:
            self._token = next(_TOKENS)
        return self._token

    @property
    def param_bytes(self) -> int:
        return self._spec.param_bytes(self)

    @property
    def output_bytes(self) -> int:
        return sum(t.size_bytes for t in self.outputs)

    @property
    def persistent_bytes(self) -> int:
        """Bytes pinned on a device for the whole step: parameters + outputs.

        This is the static accounting DPOS uses for its memory-capacity
        checks (Alg. 1 line 13); the simulator's ref-counted liveness
        accounting (:mod:`repro.sim.runner`) is the precise model.
        """
        return self.param_bytes + self.output_bytes

    @property
    def split_dims(self) -> Dict[str, SplitDimSpec]:
        return self._spec.split_dims(self)

    @property
    def is_splittable(self) -> bool:
        return bool(self.split_dims)

    def input_index_of(self, tensor: Tensor) -> int:
        """Index of ``tensor`` among this op's inputs (first occurrence)."""
        for i, t in enumerate(self.inputs):
            if t is tensor:
                return i
        raise ValueError(f"{tensor.name!r} is not an input of {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operation({self.name!r}, type={self.op_type})"
