"""Structural backward-pass construction.

FastT schedules *training* graphs: forward ops, their gradients, gradient
aggregation and parameter updates.  ``build_training_graph`` turns a
forward graph ending in a scalar loss into such a graph by reverse-mode
accumulation, emitting real backward op types (``Conv2DBackpropInput``,
``MatMul`` for matmul grads, ...) so the scheduler sees the same node mix
a TensorFlow training graph would expose.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .graph import Graph, GraphError
from .ops import NotDifferentiableError, Operation
from .tensor import Tensor


def gradients(graph: Graph, loss: Tensor) -> Dict[str, Tensor]:
    """Build gradient ops for every tensor the loss depends on.

    Returns a map from tensor name to its gradient tensor.  Multiple
    gradient contributions to one tensor are summed with ``AddN``.
    """
    loss_op = loss.producer
    if loss_op is None or loss_op.name not in graph:
        raise GraphError(f"loss tensor {loss.name!r} is not produced in this graph")
    if loss.num_elements != 1:
        raise GraphError(f"loss must be scalar-like, got shape {loss.shape}")

    # Restrict the backward sweep to the ancestors of the loss.
    relevant = _ancestors(graph, loss_op)
    order = [op for op in graph.topological_order() if op.name in relevant]

    # tensor name -> accumulated gradient contributions
    pending: Dict[str, List[Tensor]] = {loss.name: []}
    grad_of: Dict[str, Tensor] = {}
    ones = graph.create_op(
        "Const", graph.unique_name(f"{loss_op.name}_grad_seed"), attrs={"shape": (1,)}
    )
    grad_of[loss.name] = ones.outputs[0]

    for op in reversed(order):
        grad_outputs: List[Optional[Tensor]] = []
        any_grad = False
        for t in op.outputs:
            g = _resolve(graph, t, pending, grad_of)
            grad_outputs.append(g)
            any_grad = any_grad or g is not None
        if not any_grad:
            continue
        try:
            grad_inputs = op.spec.build_grad(graph, op, grad_outputs)
        except NotDifferentiableError:
            continue
        for inp, g in zip(op.inputs, grad_inputs):
            if g is None:
                continue
            if g.shape != inp.shape:
                raise GraphError(
                    f"gradient for {inp.name!r} via {op.name!r} has shape "
                    f"{g.shape}, expected {inp.shape}"
                )
            pending.setdefault(inp.name, []).append(g)

    # Materialize any gradients that were never queried during the sweep
    # (tensors with no differentiable consumers downstream of themselves).
    for name in list(pending):
        if name not in grad_of:
            t = graph.get_tensor(name)
            _resolve(graph, t, pending, grad_of)
    return grad_of


def _ancestors(graph: Graph, op: Operation) -> set:
    """Names of ``op`` and everything it transitively depends on."""
    seen = {op.name}
    stack = [op]
    while stack:
        cur = stack.pop()
        for pred in graph.predecessors(cur):
            if pred.name not in seen:
                seen.add(pred.name)
                stack.append(pred)
    return seen


def _resolve(
    graph: Graph,
    tensor: Tensor,
    pending: Dict[str, List[Tensor]],
    grad_of: Dict[str, Tensor],
) -> Optional[Tensor]:
    """Collapse accumulated contributions for ``tensor`` into one gradient."""
    if tensor.name in grad_of:
        return grad_of[tensor.name]
    contributions = pending.get(tensor.name)
    if not contributions:
        return None
    if len(contributions) == 1:
        grad = contributions[0]
    else:
        acc = graph.create_op(
            "AddN",
            graph.unique_name(f"{tensor.producer.name}_grad_acc"),
            contributions,
        )
        grad = acc.outputs[0]
    grad_of[tensor.name] = grad
    return grad


def trainable_variables(graph: Graph) -> List[Operation]:
    """All ``Variable`` ops, in insertion order."""
    return [op for op in graph.ops if op.op_type == "Variable"]


def prune_dangling(graph: Graph, keep: set) -> int:
    """Remove ops with unconsumed outputs not named in ``keep``, until
    none is left.

    This mirrors TensorFlow's graph pruning of nodes that do not feed the
    fetched targets (e.g. gradients computed toward placeholders).  A
    worklist starts from the ops nothing consumes, and each removal
    rechecks the producers that lost a consumer.  Returns the number of
    ops removed.
    """
    consumers = graph.consumers

    def dangling(op: Operation) -> bool:
        return op.name not in keep and not any(
            consumers(t) for t in op.outputs
        )

    work = [op for op in graph.ops if dangling(op)]
    removed = 0
    while work:
        op = work.pop()
        graph.remove_op(op)
        removed += 1
        work.extend(p for p in graph.predecessors(op) if dangling(p))
    return removed


def build_training_graph(graph: Graph, loss: Tensor) -> Graph:
    """Append backward pass and SGD updates for every trainable variable.

    Mutates ``graph`` in place and returns it.  Each ``ApplyGradient`` op
    is colocated with its variable (a constraint FastT's device placer
    honours, as TensorFlow does for resource variables).  Gradient ops
    that feed no parameter update are pruned, matching what TensorFlow's
    session would actually execute.
    """
    grad_of = gradients(graph, loss)
    keep = {loss.producer.name}
    updated = False
    for var in trainable_variables(graph):
        weight = var.outputs[0]
        grad = grad_of.get(weight.name)
        if grad is None:
            continue
        group = var.colocation_group or var.name
        var.colocation_group = group
        apply_op = graph.create_op(
            "ApplyGradient",
            graph.unique_name(f"{var.name}_apply"),
            [weight, grad],
            colocation_group=group,
        )
        keep.add(apply_op.name)
        updated = True
    if not updated:
        raise GraphError(
            "no trainable variable receives a gradient from the given loss"
        )
    prune_dangling(graph, keep)
    return graph
