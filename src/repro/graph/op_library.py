"""Concrete operation specs: shape inference, FLOPs, splits, gradients.

The library covers every op type the model zoo (:mod:`repro.models`)
emits, mirroring TensorFlow 1.x kernel granularity where FastT's paper
refers to it (``Conv2D``/``Conv2Dbp`` as separate schedulable nodes,
``MatMul`` reused for its own backward, fused softmax cross-entropy).

Conventions
-----------
* Image tensors are NHWC, filters are ``[kh, kw, c_in, c_out]``.
* ``attrs["stride"]`` / ``attrs["ksize"]`` are ints (square windows),
  ``attrs["padding"]`` is ``"SAME"`` or ``"VALID"``.
* FLOPs are multiply-add counted as 2 ops, the usual convention.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .ops import OpSpec, Operation, SplitDimSpec, register_op
from .tensor import ShapeError, Tensor

Shape = Tuple[int, ...]


def _conv_output_hw(h: int, w: int, k: int, stride: int, padding: str) -> Tuple[int, int]:
    """Spatial output size of a convolution / pooling window."""
    if padding == "SAME":
        return (math.ceil(h / stride), math.ceil(w / stride))
    if padding == "VALID":
        if h < k or w < k:
            raise ShapeError(f"window {k} larger than input {h}x{w} with VALID padding")
        return ((h - k) // stride + 1, (w - k) // stride + 1)
    raise ShapeError(f"unknown padding {padding!r}")


def split_sizes(total: int, n: int) -> List[int]:
    """Near-equal partition of ``total`` into ``n`` positive pieces.

    The first ``total % n`` pieces receive one extra element, matching how
    the rewrite in :mod:`repro.graph.rewrite` slices tensors.
    """
    if n <= 0:
        raise ValueError(f"cannot split into {n} pieces")
    if total < n:
        raise ShapeError(f"cannot split extent {total} into {n} non-empty pieces")
    base, rem = divmod(total, n)
    return [base + 1 if i < rem else base for i in range(n)]


def _require_rank(t: Tensor, rank: int, role: str) -> None:
    if t.rank != rank:
        raise ShapeError(f"{role} {t.name!r} must be rank {rank}, got shape {t.shape}")


def _elementwise_flops(op: Operation, per_element: float = 1.0) -> float:
    return per_element * sum(t.num_elements for t in op.outputs)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------
class _SourceSpec(OpSpec):
    """Common base for ops whose output shape comes from attrs."""

    def infer_shapes(self, inputs: Sequence[Tensor], attrs: Dict[str, object]):
        if inputs:
            raise ShapeError(f"{self.type_name} takes no inputs")
        shape = attrs.get("shape")
        if shape is None:
            raise ShapeError(f"{self.type_name} requires attrs['shape']")
        return [tuple(int(d) for d in shape)]  # type: ignore[arg-type]

    def output_dtypes(self, inputs, attrs, num_outputs):
        return [str(attrs.get("dtype", "float32"))]


@register_op
class PlaceholderSpec(_SourceSpec):
    """Training-batch input feed; no compute, no parameters."""

    type_name = "Placeholder"


@register_op
class ConstSpec(_SourceSpec):
    """Compile-time constant (e.g. label tensors in tests)."""

    type_name = "Const"


@register_op
class VariableSpec(_SourceSpec):
    """A trainable parameter.  Its output bytes are persistent state."""

    type_name = "Variable"

    def param_bytes(self, op: Operation) -> int:
        return op.outputs[0].size_bytes

    def build_grad(self, graph, op, grad_outputs):
        return []  # variables have no inputs


# ---------------------------------------------------------------------------
# Elementwise and shape ops
# ---------------------------------------------------------------------------
class _UnarySpec(OpSpec):
    per_element_flops = 1.0

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError(f"{self.type_name} takes exactly one input")
        return [inputs[0].shape]

    def flops(self, op):
        return _elementwise_flops(op, self.per_element_flops)


@register_op
class IdentitySpec(_UnarySpec):
    type_name = "Identity"
    per_element_flops = 0.0

    def build_grad(self, graph, op, grad_outputs):
        return [grad_outputs[0]]


@register_op
class ReluSpec(_UnarySpec):
    type_name = "Relu"

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "ReluGrad",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0], op.outputs[0]],
        )
        return [g.outputs[0]]


@register_op
class ReluGradSpec(OpSpec):
    type_name = "ReluGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2 or inputs[0].shape != inputs[1].shape:
            raise ShapeError("ReluGrad takes (grad_y, y) of identical shape")
        return [inputs[0].shape]

    def flops(self, op):
        return _elementwise_flops(op)


@register_op
class TanhSpec(_UnarySpec):
    type_name = "Tanh"
    per_element_flops = 4.0

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "TanhGrad",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0], op.outputs[0]],
        )
        return [g.outputs[0]]


@register_op
class TanhGradSpec(ReluGradSpec):
    type_name = "TanhGrad"

    def flops(self, op):
        return _elementwise_flops(op, 3.0)


@register_op
class SigmoidSpec(_UnarySpec):
    type_name = "Sigmoid"
    per_element_flops = 4.0

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "SigmoidGrad",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0], op.outputs[0]],
        )
        return [g.outputs[0]]


@register_op
class SigmoidGradSpec(ReluGradSpec):
    type_name = "SigmoidGrad"

    def flops(self, op):
        return _elementwise_flops(op, 3.0)


@register_op
class DropoutSpec(_UnarySpec):
    """Dropout with attrs['rate']; modelled as one elementwise pass."""

    type_name = "Dropout"

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "DropoutGrad",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0]],
            attrs={"rate": op.attrs.get("rate", 0.1)},
        )
        return [g.outputs[0]]


@register_op
class DropoutGradSpec(_UnarySpec):
    type_name = "DropoutGrad"


class _BinarySpec(OpSpec):
    per_element_flops = 1.0

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2 or inputs[0].shape != inputs[1].shape:
            raise ShapeError(
                f"{self.type_name} takes two inputs of identical shape, got "
                f"{[t.shape for t in inputs]}"
            )
        return [inputs[0].shape]

    def flops(self, op):
        return _elementwise_flops(op, self.per_element_flops)


@register_op
class AddSpec(_BinarySpec):
    type_name = "Add"

    def build_grad(self, graph, op, grad_outputs):
        return [grad_outputs[0], grad_outputs[0]]


@register_op
class MulSpec(_BinarySpec):
    type_name = "Mul"

    def build_grad(self, graph, op, grad_outputs):
        ga = graph.create_op(
            "Mul", graph.unique_name(f"{op.name}_grad_a"), [grad_outputs[0], op.inputs[1]]
        )
        gb = graph.create_op(
            "Mul", graph.unique_name(f"{op.name}_grad_b"), [grad_outputs[0], op.inputs[0]]
        )
        return [ga.outputs[0], gb.outputs[0]]


@register_op
class AddNSpec(OpSpec):
    """Sum of N same-shaped tensors (gradient aggregation in data parallel)."""

    type_name = "AddN"

    def infer_shapes(self, inputs, attrs):
        if not inputs:
            raise ShapeError("AddN needs at least one input")
        shape = inputs[0].shape
        for t in inputs[1:]:
            if t.shape != shape:
                raise ShapeError(
                    f"AddN inputs must share a shape; got {shape} and {t.shape}"
                )
        return [shape]

    def flops(self, op):
        return (len(op.inputs) - 1) * op.outputs[0].num_elements

    def build_grad(self, graph, op, grad_outputs):
        return [grad_outputs[0]] * len(op.inputs)


@register_op
class ReshapeSpec(OpSpec):
    """Reshape to attrs['shape']; element count must be preserved."""

    type_name = "Reshape"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError("Reshape takes one input")
        shape = tuple(int(d) for d in attrs["shape"])  # type: ignore[index]
        if math.prod(shape) != inputs[0].num_elements:
            raise ShapeError(
                f"cannot reshape {inputs[0].shape} to {shape}: element count differs"
            )
        return [shape]

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "Reshape",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0]],
            attrs={"shape": op.inputs[0].shape},
        )
        return [g.outputs[0]]


@register_op
class TransposeSpec(OpSpec):
    """Permute tensor axes by attrs['perm'] (attention head folding)."""

    type_name = "Transpose"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError("Transpose takes one input")
        perm = tuple(int(p) for p in attrs["perm"])  # type: ignore[index]
        shape = inputs[0].shape
        if sorted(perm) != list(range(len(shape))):
            raise ShapeError(
                f"perm {perm} is not a permutation of rank {len(shape)}"
            )
        return [tuple(shape[p] for p in perm)]

    def flops(self, op):
        return 0.0

    def build_grad(self, graph, op, grad_outputs):
        perm = [int(p) for p in op.attrs["perm"]]
        inverse = [0] * len(perm)
        for i, p in enumerate(perm):
            inverse[p] = i
        g = graph.create_op(
            "Transpose",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0]],
            attrs={"perm": tuple(inverse)},
        )
        return [g.outputs[0]]


@register_op
class ConcatSpec(OpSpec):
    """Concatenate along attrs['axis']; the rewrite's merge node."""

    type_name = "Concat"

    def infer_shapes(self, inputs, attrs):
        if not inputs:
            raise ShapeError("Concat needs inputs")
        axis = int(attrs["axis"])  # type: ignore[index]
        base = list(inputs[0].shape)
        if not 0 <= axis < len(base):
            raise ShapeError(f"concat axis {axis} out of range for {inputs[0].shape}")
        total = 0
        for t in inputs:
            if len(t.shape) != len(base):
                raise ShapeError("Concat inputs must share rank")
            for d in range(len(base)):
                if d != axis and t.shape[d] != base[d]:
                    raise ShapeError(
                        f"Concat inputs differ on non-concat axis {d}: "
                        f"{inputs[0].shape} vs {t.shape}"
                    )
            total += t.shape[axis]
        base[axis] = total
        return [tuple(base)]

    def build_grad(self, graph, op, grad_outputs):
        axis = int(op.attrs["axis"])
        sizes = [t.shape[axis] for t in op.inputs]
        g = graph.create_op(
            "SplitN",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0]],
            attrs={"axis": axis, "num_splits": len(sizes), "sizes": sizes},
        )
        return list(g.outputs)


@register_op
class SplitNSpec(OpSpec):
    """Slice one tensor into N pieces along attrs['axis'].

    ``attrs['sizes']`` may pin piece sizes; otherwise a near-equal split is
    used.  This is the split node the Alg. 2 rewrite inserts.
    """

    type_name = "SplitN"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError("SplitN takes one input")
        axis = int(attrs["axis"])  # type: ignore[index]
        n = int(attrs["num_splits"])  # type: ignore[index]
        shape = inputs[0].shape
        if not 0 <= axis < len(shape):
            raise ShapeError(f"split axis {axis} out of range for {shape}")
        sizes = attrs.get("sizes")
        if sizes is None:
            sizes = split_sizes(shape[axis], n)
            attrs["sizes"] = sizes
        sizes = [int(s) for s in sizes]  # type: ignore[union-attr]
        if len(sizes) != n or sum(sizes) != shape[axis]:
            raise ShapeError(
                f"split sizes {sizes} do not partition extent {shape[axis]}"
            )
        out = []
        for s in sizes:
            piece = list(shape)
            piece[axis] = s
            out.append(tuple(piece))
        return out

    def build_grad(self, graph, op, grad_outputs):
        if any(g is None for g in grad_outputs):
            raise ShapeError("SplitN gradient requires grads for all pieces")
        g = graph.create_op(
            "Concat",
            graph.unique_name(f"{op.name}_grad"),
            list(grad_outputs),
            attrs={"axis": op.attrs["axis"]},
        )
        return [g.outputs[0]]


# ---------------------------------------------------------------------------
# Dense / matmul
# ---------------------------------------------------------------------------
def _matmul_dims(a: Tensor, b: Tensor, ta: bool, tb: bool) -> Tuple[int, int, int, int]:
    """Return (batch, m, k, n) for the supported matmul shapes."""
    if a.rank == 2:
        m, k = (a.shape[1], a.shape[0]) if ta else a.shape
        batch = 1
    elif a.rank == 3:
        batch = a.shape[0]
        m, k = (a.shape[2], a.shape[1]) if ta else a.shape[1:]
    else:
        raise ShapeError(f"MatMul lhs must be rank 2 or 3, got {a.shape}")
    if b.rank == 2:
        kb, n = (b.shape[1], b.shape[0]) if tb else b.shape
    elif b.rank == 3:
        if a.rank != 3 or b.shape[0] != batch:
            raise ShapeError(
                f"batched MatMul requires matching batch dims, got {a.shape} x {b.shape}"
            )
        kb, n = (b.shape[2], b.shape[1]) if tb else b.shape[1:]
    else:
        raise ShapeError(f"MatMul rhs must be rank 2 or 3, got {b.shape}")
    if k != kb:
        raise ShapeError(f"MatMul inner dims differ: {a.shape} x {b.shape} (ta={ta}, tb={tb})")
    return batch, m, k, n


@register_op
class MatMulSpec(OpSpec):
    """(Batched) matrix multiply; its backward is also MatMuls.

    This is the compute-heavy op the paper splits for Transformer and
    BERT-large.  Row splits give fine-grained data parallelism; column
    splits give fine-grained model parallelism.
    """

    type_name = "MatMul"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("MatMul takes two inputs")
        a, b = inputs
        ta = bool(attrs.get("transpose_a", False))
        tb = bool(attrs.get("transpose_b", False))
        batch, m, _, n = _matmul_dims(a, b, ta, tb)
        if a.rank == 3:
            return [(batch, m, n)]
        return [(m, n)]

    def flops(self, op):
        a, b = op.inputs
        ta = bool(op.attrs.get("transpose_a", False))
        tb = bool(op.attrs.get("transpose_b", False))
        batch, m, k, n = _matmul_dims(a, b, ta, tb)
        return 2.0 * batch * m * k * n

    def split_dims(self, op):
        a, b = op.inputs
        ta = bool(op.attrs.get("transpose_a", False))
        tb = bool(op.attrs.get("transpose_b", False))
        dims: Dict[str, SplitDimSpec] = {}
        out_rank = op.outputs[0].rank
        # Row split: slice lhs on its "m" axis (or batch axis when rank 3),
        # broadcast rhs.  Not offered when the rhs is batched, because the
        # rhs batch dim would have to be sliced in lockstep.
        if b.rank == 2:
            if a.rank == 2:
                row_axis = 1 if ta else 0
            else:
                row_axis = 0  # slice the batch dimension of a rank-3 lhs
            dims["row"] = SplitDimSpec(
                name="row",
                input_axes={0: row_axis, 1: None},
                output_axes={0: 0},
            )
        # Column split: slice rhs on its "n" axis, broadcast lhs.
        if b.rank == 2:
            col_axis = 0 if tb else 1
            dims["column"] = SplitDimSpec(
                name="column",
                input_axes={0: None, 1: col_axis},
                output_axes={0: out_rank - 1},
            )
        elif a.rank == 3 and b.rank == 3:
            dims["batch"] = SplitDimSpec(
                name="batch",
                input_axes={0: 0, 1: 0},
                output_axes={0: 0},
            )
        return dims

    def build_grad(self, graph, op, grad_outputs):
        a, b = op.inputs
        ta = bool(op.attrs.get("transpose_a", False))
        tb = bool(op.attrs.get("transpose_b", False))
        gc = grad_outputs[0]
        # Standard matmul gradient identities for all four transpose
        # combinations: each input's gradient is itself a MatMul.
        if not ta and not tb:
            ga_args = ([gc, b], {"transpose_b": True})
            gb_args = ([a, gc], {"transpose_a": True})
        elif not ta and tb:
            ga_args = ([gc, b], {})
            gb_args = ([gc, a], {"transpose_a": True})
        elif ta and not tb:
            ga_args = ([b, gc], {"transpose_b": True})
            gb_args = ([a, gc], {})
        else:
            ga_args = ([b, gc], {"transpose_a": True, "transpose_b": True})
            gb_args = ([gc, a], {"transpose_a": True, "transpose_b": True})
        ga = graph.create_op(
            "MatMul",
            graph.unique_name(f"{op.name}_grad_a"),
            ga_args[0],
            attrs=ga_args[1],
        )
        gb_mm = graph.create_op(
            "MatMul",
            graph.unique_name(f"{op.name}_grad_b"),
            gb_args[0],
            attrs=gb_args[1],
        )
        gb_out = gb_mm.outputs[0]
        if a.rank == 3 and b.rank == 2:
            # A batched lhs against a shared weight matrix: sum the
            # per-batch contributions back to the weight's shape.
            red = graph.create_op(
                "ReduceSum",
                graph.unique_name(f"{op.name}_grad_b_sum"),
                [gb_out],
                attrs={"axis": 0},
            )
            gb_out = red.outputs[0]
        return [ga.outputs[0], gb_out]


@register_op
class ReduceSumSpec(OpSpec):
    """Sum over attrs['axis']."""

    type_name = "ReduceSum"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError("ReduceSum takes one input")
        axis = int(attrs["axis"])  # type: ignore[index]
        shape = list(inputs[0].shape)
        if not 0 <= axis < len(shape):
            raise ShapeError(f"reduce axis {axis} out of range for {inputs[0].shape}")
        del shape[axis]
        return [tuple(shape) if shape else (1,)]

    def flops(self, op):
        return float(op.inputs[0].num_elements)


@register_op
class ReduceMeanSpec(ReduceSumSpec):
    type_name = "ReduceMean"


@register_op
class BiasAddSpec(OpSpec):
    """Add a [C] bias over the last axis of x."""

    type_name = "BiasAdd"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("BiasAdd takes (x, bias)")
        x, bias = inputs
        _require_rank(bias, 1, "bias")
        if x.shape[-1] != bias.shape[0]:
            raise ShapeError(
                f"bias length {bias.shape[0]} != channel dim {x.shape[-1]}"
            )
        return [x.shape]

    def flops(self, op):
        return float(op.outputs[0].num_elements)

    def build_grad(self, graph, op, grad_outputs):
        gbias = graph.create_op(
            "BiasAddGrad",
            graph.unique_name(f"{op.name}_grad_bias"),
            [grad_outputs[0]],
        )
        return [grad_outputs[0], gbias.outputs[0]]


@register_op
class BiasAddGradSpec(OpSpec):
    """Reduce a gradient over all axes but the last (bias gradient)."""

    type_name = "BiasAddGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError("BiasAddGrad takes one input")
        return [(inputs[0].shape[-1],)]

    def flops(self, op):
        return float(op.inputs[0].num_elements)


# ---------------------------------------------------------------------------
# Convolution / pooling / normalization
# ---------------------------------------------------------------------------
@register_op
class Conv2DSpec(OpSpec):
    """NHWC convolution — the paper's canonical split candidate."""

    type_name = "Conv2D"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("Conv2D takes (x, filter)")
        x, f = inputs
        _require_rank(x, 4, "conv input")
        _require_rank(f, 4, "conv filter")
        if x.shape[3] != f.shape[2]:
            raise ShapeError(
                f"input channels {x.shape[3]} != filter in-channels {f.shape[2]}"
            )
        stride = int(attrs.get("stride", 1))
        padding = str(attrs.get("padding", "SAME"))
        oh, ow = _conv_output_hw(x.shape[1], x.shape[2], f.shape[0], stride, padding)
        return [(x.shape[0], oh, ow, f.shape[3])]

    def flops(self, op):
        f = op.inputs[1]
        out = op.outputs[0]
        kh, kw, ci, _ = f.shape
        return 2.0 * out.num_elements * kh * kw * ci

    def split_dims(self, op):
        return {
            "batch": SplitDimSpec(
                name="batch", input_axes={0: 0, 1: None}, output_axes={0: 0}
            ),
            "channel": SplitDimSpec(
                name="channel", input_axes={0: None, 1: 3}, output_axes={0: 3}
            ),
        }

    def build_grad(self, graph, op, grad_outputs):
        x, f = op.inputs
        gy = grad_outputs[0]
        attrs = {
            "stride": op.attrs.get("stride", 1),
            "padding": op.attrs.get("padding", "SAME"),
        }
        gx = graph.create_op(
            "Conv2DBackpropInput",
            graph.unique_name(f"{op.name}_bp_input"),
            [f, gy],
            attrs={**attrs, "input_shape": x.shape},
        )
        gf = graph.create_op(
            "Conv2DBackpropFilter",
            graph.unique_name(f"{op.name}_bp_filter"),
            [x, gy],
            attrs={**attrs, "filter_shape": f.shape},
        )
        return [gx.outputs[0], gf.outputs[0]]


@register_op
class Conv2DBackpropInputSpec(OpSpec):
    """Gradient of Conv2D w.r.t. its input — the paper's ``Conv2Dbp``."""

    type_name = "Conv2DBackpropInput"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("Conv2DBackpropInput takes (filter, grad_y)")
        return [tuple(int(d) for d in attrs["input_shape"])]  # type: ignore[index]

    def flops(self, op):
        f, gy = op.inputs
        kh, kw, ci, _ = f.shape
        return 2.0 * gy.num_elements * kh * kw * ci

    def split_dims(self, op):
        # Slice grad_y on the batch axis, broadcast the filter; the input
        # gradient pieces concatenate on batch.
        return {
            "batch": SplitDimSpec(
                name="batch", input_axes={0: None, 1: 0}, output_axes={0: 0}
            ),
        }


@register_op
class Conv2DBackpropFilterSpec(OpSpec):
    """Gradient of Conv2D w.r.t. its filter."""

    type_name = "Conv2DBackpropFilter"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("Conv2DBackpropFilter takes (x, grad_y)")
        return [tuple(int(d) for d in attrs["filter_shape"])]  # type: ignore[index]

    def flops(self, op):
        x, gy = op.inputs
        kh, kw, _, _ = op.outputs[0].shape
        return 2.0 * gy.num_elements * kh * kw * x.shape[3]

    def split_dims(self, op):
        # Slice grad_y on its channel axis: each sub-op computes the
        # gradient for a slice of output filters; concat on filter axis 3.
        return {
            "channel": SplitDimSpec(
                name="channel", input_axes={0: None, 1: 3}, output_axes={0: 3}
            ),
        }


class _PoolSpec(OpSpec):
    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError(f"{self.type_name} takes one input")
        x = inputs[0]
        _require_rank(x, 4, "pool input")
        k = int(attrs.get("ksize", 2))
        stride = int(attrs.get("stride", k))
        padding = str(attrs.get("padding", "VALID"))
        oh, ow = _conv_output_hw(x.shape[1], x.shape[2], k, stride, padding)
        return [(x.shape[0], oh, ow, x.shape[3])]

    def flops(self, op):
        k = int(op.attrs.get("ksize", 2))
        return float(op.outputs[0].num_elements * k * k)


@register_op
class MaxPoolSpec(_PoolSpec):
    type_name = "MaxPool"

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "MaxPoolGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.inputs[0], op.outputs[0], grad_outputs[0]],
            attrs=dict(op.attrs),
        )
        return [g.outputs[0]]


@register_op
class MaxPoolGradSpec(OpSpec):
    type_name = "MaxPoolGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 3:
            raise ShapeError("MaxPoolGrad takes (x, y, grad_y)")
        return [inputs[0].shape]

    def flops(self, op):
        k = int(op.attrs.get("ksize", 2))
        return float(op.inputs[2].num_elements * k * k)


@register_op
class AvgPoolSpec(_PoolSpec):
    type_name = "AvgPool"

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "AvgPoolGrad",
            graph.unique_name(f"{op.name}_grad"),
            [grad_outputs[0]],
            attrs={**op.attrs, "input_shape": op.inputs[0].shape},
        )
        return [g.outputs[0]]


@register_op
class AvgPoolGradSpec(OpSpec):
    type_name = "AvgPoolGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 1:
            raise ShapeError("AvgPoolGrad takes grad_y")
        return [tuple(int(d) for d in attrs["input_shape"])]  # type: ignore[index]

    def flops(self, op):
        k = int(op.attrs.get("ksize", 2))
        return float(op.inputs[0].num_elements * k * k)


@register_op
class BatchNormSpec(OpSpec):
    """Fused batch normalization over NHWC.  Deliberately *not* splittable
    on batch: the batch statistics couple all samples (the paper cites
    BatchNorm as an op its example split method does not suit)."""

    type_name = "BatchNorm"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 3:
            raise ShapeError("BatchNorm takes (x, gamma, beta)")
        x, gamma, beta = inputs
        _require_rank(gamma, 1, "gamma")
        _require_rank(beta, 1, "beta")
        if gamma.shape[0] != x.shape[-1] or beta.shape[0] != x.shape[-1]:
            raise ShapeError("gamma/beta length must equal channel dim")
        return [x.shape]

    def flops(self, op):
        return _elementwise_flops(op, 5.0)

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "BatchNormGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.inputs[0], op.inputs[1], grad_outputs[0]],
        )
        return [g.outputs[0], g.outputs[1], g.outputs[2]]


@register_op
class BatchNormGradSpec(OpSpec):
    type_name = "BatchNormGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 3:
            raise ShapeError("BatchNormGrad takes (x, gamma, grad_y)")
        x, gamma, _ = inputs
        return [x.shape, gamma.shape, gamma.shape]

    def flops(self, op):
        return 7.0 * op.inputs[0].num_elements


@register_op
class LayerNormSpec(OpSpec):
    """Layer normalization over the last axis (Transformer / BERT)."""

    type_name = "LayerNorm"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 3:
            raise ShapeError("LayerNorm takes (x, gamma, beta)")
        x, gamma, beta = inputs
        if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
            raise ShapeError("gamma/beta must be rank-1 of the last dim")
        return [x.shape]

    def flops(self, op):
        return _elementwise_flops(op, 5.0)

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "LayerNormGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.inputs[0], op.inputs[1], grad_outputs[0]],
        )
        return [g.outputs[0], g.outputs[1], g.outputs[2]]


@register_op
class LayerNormGradSpec(BatchNormGradSpec):
    type_name = "LayerNormGrad"


@register_op
class LRNSpec(_UnarySpec):
    """Local response normalization (AlexNet)."""

    type_name = "LRN"
    per_element_flops = 8.0

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "LRNGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.inputs[0], op.outputs[0], grad_outputs[0]],
        )
        return [g.outputs[0]]


@register_op
class LRNGradSpec(OpSpec):
    type_name = "LRNGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 3:
            raise ShapeError("LRNGrad takes (x, y, grad_y)")
        return [inputs[0].shape]

    def flops(self, op):
        return _elementwise_flops(op, 8.0)


# ---------------------------------------------------------------------------
# Softmax / losses
# ---------------------------------------------------------------------------
@register_op
class SoftmaxSpec(_UnarySpec):
    """Softmax over the last axis (attention probabilities)."""

    type_name = "Softmax"
    per_element_flops = 5.0

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "SoftmaxGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.outputs[0], grad_outputs[0]],
        )
        return [g.outputs[0]]


@register_op
class SoftmaxGradSpec(OpSpec):
    type_name = "SoftmaxGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2 or inputs[0].shape != inputs[1].shape:
            raise ShapeError("SoftmaxGrad takes (y, grad_y) of identical shape")
        return [inputs[0].shape]

    def flops(self, op):
        return _elementwise_flops(op, 4.0)


@register_op
class CrossEntropyLossSpec(OpSpec):
    """Fused softmax cross-entropy with mean reduction -> scalar loss."""

    type_name = "CrossEntropyLoss"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("CrossEntropyLoss takes (logits, labels)")
        logits, labels = inputs
        if logits.shape[:-1] != labels.shape:
            raise ShapeError(
                f"labels shape {labels.shape} must be logits shape "
                f"{logits.shape} minus the class axis"
            )
        return [(1,)]

    def output_dtypes(self, inputs, attrs, num_outputs):
        return ["float32"]

    def flops(self, op):
        return _elementwise_flops(op, 0.0) + 6.0 * op.inputs[0].num_elements

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "CrossEntropyLossGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.inputs[0], op.inputs[1]],
        )
        return [g.outputs[0], None]


@register_op
class CrossEntropyLossGradSpec(OpSpec):
    type_name = "CrossEntropyLossGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("CrossEntropyLossGrad takes (logits, labels)")
        return [inputs[0].shape]

    def flops(self, op):
        return 2.0 * op.inputs[0].num_elements


# ---------------------------------------------------------------------------
# Embedding / recurrent
# ---------------------------------------------------------------------------
@register_op
class EmbeddingSpec(OpSpec):
    """Gather rows of a [V, d] table for int ids."""

    type_name = "Embedding"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("Embedding takes (params, ids)")
        params, ids = inputs
        _require_rank(params, 2, "embedding table")
        return [ids.shape + (params.shape[1],)]

    def output_dtypes(self, inputs, attrs, num_outputs):
        return [inputs[0].dtype]

    def flops(self, op):
        return float(op.outputs[0].num_elements)

    def build_grad(self, graph, op, grad_outputs):
        g = graph.create_op(
            "EmbeddingGrad",
            graph.unique_name(f"{op.name}_grad"),
            [op.inputs[1], grad_outputs[0]],
            attrs={"vocab_size": op.inputs[0].shape[0]},
        )
        return [g.outputs[0], None]


@register_op
class EmbeddingGradSpec(OpSpec):
    """Dense scatter-add of embedding gradients back to the table."""

    type_name = "EmbeddingGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("EmbeddingGrad takes (ids, grad_y)")
        vocab = int(attrs["vocab_size"])  # type: ignore[index]
        return [(vocab, inputs[1].shape[-1])]

    def output_dtypes(self, inputs, attrs, num_outputs):
        return [inputs[1].dtype]

    def flops(self, op):
        return float(op.inputs[1].num_elements)


@register_op
class LSTMCellSpec(OpSpec):
    """One fused LSTM step: (x, h, c, w, b) -> (h', c').

    ``w`` is ``[input+hidden, 4*hidden]``.  Kept fused and non-splittable,
    matching the paper's finding that LSTM NMT models yield no split
    candidates.
    """

    type_name = "LSTMCell"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 5:
            raise ShapeError("LSTMCell takes (x, h, c, w, b)")
        x, h, c, w, b = inputs
        _require_rank(x, 2, "x")
        _require_rank(h, 2, "h")
        hidden = h.shape[1]
        if c.shape != h.shape:
            raise ShapeError("cell state must match hidden state shape")
        if w.shape != (x.shape[1] + hidden, 4 * hidden):
            raise ShapeError(
                f"LSTM weight must be [{x.shape[1] + hidden}, {4 * hidden}], got {w.shape}"
            )
        if b.shape != (4 * hidden,):
            raise ShapeError(f"LSTM bias must be [{4 * hidden}], got {b.shape}")
        return [h.shape, c.shape]

    def flops(self, op):
        x, h = op.inputs[0], op.inputs[1]
        batch, hidden = h.shape
        return 2.0 * batch * (x.shape[1] + hidden) * 4 * hidden

    def build_grad(self, graph, op, grad_outputs):
        gh = grad_outputs[0]
        gc = grad_outputs[1]
        x, h, c, w, b = op.inputs
        if gh is None and gc is None:
            return [None] * 5
        if gh is None:
            gh = graph.create_op(
                "Const", graph.unique_name(f"{op.name}_zero_gh"),
                attrs={"shape": op.outputs[0].shape},
            ).outputs[0]
        if gc is None:
            gc = graph.create_op(
                "Const", graph.unique_name(f"{op.name}_zero_gc"),
                attrs={"shape": op.outputs[1].shape},
            ).outputs[0]
        g = graph.create_op(
            "LSTMCellGrad",
            graph.unique_name(f"{op.name}_grad"),
            [x, h, c, w, gh, gc],
        )
        return [g.outputs[0], g.outputs[1], g.outputs[2], g.outputs[3], g.outputs[4]]


@register_op
class LSTMCellGradSpec(OpSpec):
    type_name = "LSTMCellGrad"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 6:
            raise ShapeError("LSTMCellGrad takes (x, h, c, w, grad_h, grad_c)")
        x, h, c, w, _, _ = inputs
        return [x.shape, h.shape, c.shape, w.shape, (w.shape[1],)]

    def flops(self, op):
        x, h = op.inputs[0], op.inputs[1]
        batch, hidden = h.shape
        return 4.0 * batch * (x.shape[1] + hidden) * 4 * hidden


# ---------------------------------------------------------------------------
# Optimizer / bookkeeping
# ---------------------------------------------------------------------------
@register_op
class ApplyGradientSpec(OpSpec):
    """SGD update of a variable; colocated with its variable.

    The dataflow output is a 1-element completion token so the update
    participates in the DAG (exit operations in training graphs).
    """

    type_name = "ApplyGradient"

    def infer_shapes(self, inputs, attrs):
        if len(inputs) != 2:
            raise ShapeError("ApplyGradient takes (var, grad)")
        var, grad = inputs
        if var.shape != grad.shape:
            raise ShapeError(
                f"grad shape {grad.shape} must match var shape {var.shape}"
            )
        return [(1,)]

    def flops(self, op):
        return 2.0 * op.inputs[0].num_elements


@register_op
class NoOpSpec(OpSpec):
    """Pure control/merge node (e.g. the train-step group op)."""

    type_name = "NoOp"

    def infer_shapes(self, inputs, attrs):
        return [(1,)]


@register_op
class GenericSpec(OpSpec):
    """Synthetic op for tests and random DAGs.

    Attrs: ``output_shapes`` (list of shapes, default ``[(1,)]``),
    ``flops`` (float, default 0), ``param_bytes`` (int, default 0).
    """

    type_name = "Generic"

    def infer_shapes(self, inputs, attrs):
        shapes = attrs.get("output_shapes", [(1,)])
        return [tuple(int(d) for d in s) for s in shapes]  # type: ignore[union-attr]

    def flops(self, op):
        return float(op.attrs.get("flops", 0.0))

    def param_bytes(self, op):
        return int(op.attrs.get("param_bytes", 0))
