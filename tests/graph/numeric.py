"""Numpy reference executor for a subset of op types.

FastT's claim that "splitting operations does not change training
semantics" (Sec. 5.2) is checked numerically here: the test suite runs a
graph before and after :func:`repro.graph.rewrite.split_operation` and
asserts bit-for-bit-close outputs.  Only forward inference for the op
types involved in splits (plus glue) is implemented — the scheduler never
needs numerics, so this stays deliberately small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.graph.graph import Graph, GraphError
from repro.graph.ops import Operation
from repro.graph.tensor import Tensor


class UnsupportedOpError(NotImplementedError):
    """Raised when the reference executor meets an op it cannot compute."""


def _conv2d(x: np.ndarray, f: np.ndarray, stride: int, padding: str) -> np.ndarray:
    n, h, w, _ = x.shape
    kh, kw, ci, co = f.shape
    if padding == "SAME":
        oh = -(-h // stride)
        ow = -(-w // stride)
        pad_h = max((oh - 1) * stride + kh - h, 0)
        pad_w = max((ow - 1) * stride + kw - w, 0)
        x = np.pad(
            x,
            (
                (0, 0),
                (pad_h // 2, pad_h - pad_h // 2),
                (pad_w // 2, pad_w - pad_w // 2),
                (0, 0),
            ),
        )
    else:
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
    out = np.zeros((n, oh, ow, co), dtype=x.dtype)
    fmat = f.reshape(kh * kw * ci, co)
    for i in range(oh):
        for j in range(ow):
            patch = x[:, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
            out[:, i, j, :] = patch.reshape(n, -1) @ fmat
    return out


def _pool(x: np.ndarray, k: int, stride: int, padding: str, kind: str) -> np.ndarray:
    n, h, w, c = x.shape
    if padding == "SAME":
        oh = -(-h // stride)
        ow = -(-w // stride)
        pad_h = max((oh - 1) * stride + k - h, 0)
        pad_w = max((ow - 1) * stride + k - w, 0)
        fill = -np.inf if kind == "max" else 0.0
        x = np.pad(
            x,
            (
                (0, 0),
                (pad_h // 2, pad_h - pad_h // 2),
                (pad_w // 2, pad_w - pad_w // 2),
                (0, 0),
            ),
            constant_values=fill,
        )
    else:
        oh = (h - k) // stride + 1
        ow = (w - k) // stride + 1
    out = np.zeros((n, oh, ow, c), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            window = x[:, i * stride : i * stride + k, j * stride : j * stride + k, :]
            if kind == "max":
                out[:, i, j, :] = window.max(axis=(1, 2))
            else:
                out[:, i, j, :] = window.mean(axis=(1, 2))
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _matmul(op: Operation, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op.attrs.get("transpose_a"):
        a = np.swapaxes(a, -1, -2)
    if op.attrs.get("transpose_b"):
        b = np.swapaxes(b, -1, -2)
    return a @ b


def execute(
    graph: Graph,
    feeds: Dict[str, np.ndarray],
    fetch: Optional[Iterable[str]] = None,
) -> Dict[str, np.ndarray]:
    """Run the graph on numpy arrays.

    Args:
        graph: The dataflow graph (must validate).
        feeds: Values for every ``Placeholder``/``Variable``/``Const`` op,
            keyed by *op name*.  Missing sources default to zeros.
        fetch: Tensor names to return; defaults to all tensors.

    Returns:
        Map from tensor name to computed array.
    """
    values: Dict[str, np.ndarray] = {}
    for op in graph.topological_order():
        outs = _execute_op(op, values, feeds)
        if len(outs) != len(op.outputs):
            raise GraphError(
                f"executor returned {len(outs)} outputs for {op.name!r}, "
                f"expected {len(op.outputs)}"
            )
        for t, v in zip(op.outputs, outs):
            if tuple(v.shape) != t.shape and t.shape != (1,):
                raise GraphError(
                    f"executor produced shape {v.shape} for {t.name!r}, "
                    f"graph says {t.shape}"
                )
            values[t.name] = v
    if fetch is None:
        return values
    return {name: values[name] for name in fetch}


def _execute_op(
    op: Operation, values: Dict[str, np.ndarray], feeds: Dict[str, np.ndarray]
) -> List[np.ndarray]:
    ins = [values[t.name] for t in op.inputs]
    kind = op.op_type

    if kind in ("Placeholder", "Variable", "Const"):
        if op.name in feeds:
            fed = np.asarray(feeds[op.name])
            if tuple(fed.shape) != op.outputs[0].shape:
                raise GraphError(
                    f"feed for {op.name!r} has shape {fed.shape}, expected "
                    f"{op.outputs[0].shape}"
                )
            return [fed]
        return [np.zeros(op.outputs[0].shape, dtype=np.float32)]
    if kind == "Identity":
        return [ins[0]]
    if kind == "Relu":
        return [np.maximum(ins[0], 0.0)]
    if kind == "Tanh":
        return [np.tanh(ins[0])]
    if kind == "Sigmoid":
        return [1.0 / (1.0 + np.exp(-ins[0]))]
    if kind == "Add":
        return [ins[0] + ins[1]]
    if kind == "Mul":
        return [ins[0] * ins[1]]
    if kind == "AddN":
        return [np.sum(ins, axis=0)]
    if kind == "Reshape":
        return [ins[0].reshape(op.attrs["shape"])]
    if kind == "Transpose":
        return [np.transpose(ins[0], axes=[int(p) for p in op.attrs["perm"]])]
    if kind == "Concat":
        return [np.concatenate(ins, axis=int(op.attrs["axis"]))]
    if kind == "SplitN":
        sizes = [int(s) for s in op.attrs["sizes"]]
        offsets = np.cumsum(sizes)[:-1]
        return list(np.split(ins[0], offsets, axis=int(op.attrs["axis"])))
    if kind == "MatMul":
        return [_matmul(op, ins[0], ins[1])]
    if kind == "BiasAdd":
        return [ins[0] + ins[1]]
    if kind == "Conv2D":
        return [
            _conv2d(
                ins[0],
                ins[1],
                int(op.attrs.get("stride", 1)),
                str(op.attrs.get("padding", "SAME")),
            )
        ]
    if kind == "MaxPool" or kind == "AvgPool":
        k = int(op.attrs.get("ksize", 2))
        return [
            _pool(
                ins[0],
                k,
                int(op.attrs.get("stride", k)),
                str(op.attrs.get("padding", "VALID")),
                "max" if kind == "MaxPool" else "avg",
            )
        ]
    if kind == "Softmax":
        return [_softmax(ins[0])]
    if kind == "ReduceSum":
        return [ins[0].sum(axis=int(op.attrs["axis"]))]
    if kind == "ReduceMean":
        return [ins[0].mean(axis=int(op.attrs["axis"]))]
    if kind == "Embedding":
        return [ins[0][ins[1].astype(np.int64)]]
    if kind == "CrossEntropyLoss":
        probs = _softmax(ins[0].reshape(-1, ins[0].shape[-1]))
        labels = ins[1].reshape(-1).astype(np.int64)
        picked = probs[np.arange(len(labels)), labels]
        return [np.array([-np.log(np.maximum(picked, 1e-12)).mean()])]
    raise UnsupportedOpError(
        f"reference executor does not implement op type {kind!r} ({op.name!r})"
    )
