"""Graph and model factories and perf doubles shared across the tests."""

from __future__ import annotations

import numpy as np

from repro.graph import Graph


class BatchedPerf:
    """The simulator's batched perf-model calls over scalar test methods.

    A double defines ``op_time(op, device)`` and ``transfer_time(src,
    dst, num_bytes)``, plus ``link_time(link, num_bytes)`` for routed
    topologies; subclassing this derives the batched, noise-free calls
    :class:`~repro.sim.ExecutionSimulator` makes from them.
    """

    def batch_op_cost_inputs(self, ops):
        return (ops,)

    def batch_base_op_times(self, ops, device):
        return np.array([self.op_time(op, device) for op in ops], dtype=float)

    def jittered(self, base):
        return base

    def base_transfer_time(self, src, dst, num_bytes):
        return self.transfer_time(src, dst, num_bytes)

    def base_link_time(self, link, num_bytes):
        return self.link_time(link, num_bytes)


def build_mlp(graph: Graph, prefix: str, batch: int, hidden: int = 64,
              layers: int = 2, num_classes: int = 10):
    """Small dense classifier used as a generic model builder in tests."""
    x = graph.create_op(
        "Placeholder", f"{prefix}x", attrs={"shape": (batch, hidden)}
    ).outputs[0]
    h = x
    for i in range(layers):
        w = graph.create_op(
            "Variable", f"{prefix}w{i}", attrs={"shape": (hidden, hidden)}
        ).outputs[0]
        h = graph.create_op("MatMul", f"{prefix}fc{i}", [h, w]).outputs[0]
        h = graph.create_op("Relu", f"{prefix}relu{i}", [h]).outputs[0]
    w_out = graph.create_op(
        "Variable", f"{prefix}w_out", attrs={"shape": (hidden, num_classes)}
    ).outputs[0]
    logits = graph.create_op("MatMul", f"{prefix}logits", [h, w_out]).outputs[0]
    labels = graph.create_op(
        "Placeholder", f"{prefix}labels", attrs={"shape": (batch,), "dtype": "int32"}
    ).outputs[0]
    return graph.create_op(
        "CrossEntropyLoss", f"{prefix}loss", [logits, labels]
    ).outputs[0]


def build_small_cnn(graph: Graph, prefix: str, batch: int):
    """Small conv net exercising Conv2D/Pool/Reshape in tests."""
    x = graph.create_op(
        "Placeholder", f"{prefix}images", attrs={"shape": (batch, 16, 16, 3)}
    ).outputs[0]
    w1 = graph.create_op(
        "Variable", f"{prefix}conv1_w", attrs={"shape": (3, 3, 3, 8)}
    ).outputs[0]
    conv = graph.create_op(
        "Conv2D", f"{prefix}conv1", [x, w1], attrs={"stride": 1, "padding": "SAME"}
    ).outputs[0]
    relu = graph.create_op("Relu", f"{prefix}relu1", [conv]).outputs[0]
    pool = graph.create_op(
        "MaxPool", f"{prefix}pool1", [relu], attrs={"ksize": 2}
    ).outputs[0]
    flat = graph.create_op(
        "Reshape", f"{prefix}flatten", [pool], attrs={"shape": (batch, 8 * 8 * 8)}
    ).outputs[0]
    w2 = graph.create_op(
        "Variable", f"{prefix}fc_w", attrs={"shape": (8 * 8 * 8, 10)}
    ).outputs[0]
    logits = graph.create_op("MatMul", f"{prefix}fc", [flat, w2]).outputs[0]
    labels = graph.create_op(
        "Placeholder", f"{prefix}labels", attrs={"shape": (batch,), "dtype": "int32"}
    ).outputs[0]
    return graph.create_op(
        "CrossEntropyLoss", f"{prefix}loss", [logits, labels]
    ).outputs[0]


def diamond_graph(flops=(10.0, 20.0, 30.0, 5.0), shape=(4, 4)) -> Graph:
    """A -> {B, C} -> D diamond of Generic ops with given FLOPs."""
    g = Graph("diamond")
    a = g.create_op(
        "Generic", "a", attrs={"output_shapes": [shape], "flops": flops[0]}
    )
    b = g.create_op(
        "Generic", "b", [a.outputs[0]],
        attrs={"output_shapes": [shape], "flops": flops[1]},
    )
    c = g.create_op(
        "Generic", "c", [a.outputs[0]],
        attrs={"output_shapes": [shape], "flops": flops[2]},
    )
    g.create_op(
        "Generic", "d", [b.outputs[0], c.outputs[0]],
        attrs={"output_shapes": [shape], "flops": flops[3]},
    )
    return g


def chain_graph(num_ops: int = 5, flops: float = 10.0, shape=(8, 8)) -> Graph:
    """A linear chain of Generic ops."""
    g = Graph("chain")
    previous = None
    for i in range(num_ops):
        inputs = [previous.outputs[0]] if previous is not None else []
        previous = g.create_op(
            "Generic", f"op{i}", inputs,
            attrs={"output_shapes": [shape], "flops": flops},
        )
    return g


