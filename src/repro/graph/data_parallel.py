"""Data-parallel training-graph construction.

FastT uses data parallelism as its *starting* strategy whenever the model
fits on one GPU (Sec. 5.2): the model is replicated once per device and
the resulting replicated graph — towers, per-variable gradient
aggregation, parameter updates — is the input DAG that DPOS/OS-DPOS then
improve on.  This module builds that graph, mirroring TensorFlow-slim's
in-graph replicated training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .autodiff import gradients, prune_dangling
from .graph import Graph, GraphError
from .op_library import split_sizes
from .tensor import Tensor

#: A model builder emits one tower of the forward graph into ``graph``
#: under ``prefix`` with the given per-tower batch size and returns the
#: scalar loss tensor.
ModelBuilder = Callable[[Graph, str, int], Tensor]

REPLICA_PREFIX = "replica_{index}/"


def replica_prefix(index: int) -> str:
    """Name prefix of tower ``index`` (``"replica_0/"``, ...)."""
    return REPLICA_PREFIX.format(index=index)


def replica_index_of(op_name: str) -> Optional[int]:
    """Tower index encoded in an op name, or ``None`` for shared ops."""
    if not op_name.startswith("replica_"):
        return None
    head = op_name[len("replica_"):].split("/", 1)[0]
    return int(head) if head.isdigit() else None


@dataclass
class ReplicatedGraphInfo:
    """Bookkeeping for a data-parallel training graph.

    Attributes:
        num_replicas: Number of towers.
        global_batch: Total samples per iteration across towers.
        tower_batches: Per-tower batch sizes (near-equal partition).
        losses: Per-tower loss tensor names.
        aggregation_ops: Names of the cross-tower gradient AddN ops.
    """

    num_replicas: int
    global_batch: int
    tower_batches: List[int]
    losses: List[str] = field(default_factory=list)
    aggregation_ops: List[str] = field(default_factory=list)


def build_single_device_training_graph(
    model_builder: ModelBuilder, batch_size: int, name: str = "train"
) -> Graph:
    """One tower, no replication: the model-parallel starting point."""
    from .autodiff import build_training_graph

    graph = Graph(name)
    loss = model_builder(graph, "", batch_size)
    return build_training_graph(graph, loss)


def _share_tower_variables(graph: Graph, prefix: str) -> None:
    """Rewire tower ``prefix``'s variables to the tower-0 instances.

    TensorFlow-slim's in-graph replication keeps ONE copy of every
    variable (on the parameter device); each clone reads the shared
    weights.  We emulate that by deleting tower r's variables and feeding
    tower 0's variable tensors to its ops — the per-step weight broadcast
    and gradient gathering then emerge naturally from the placement.
    """
    shared_prefix = replica_prefix(0)
    for op in list(graph.ops):
        if op.op_type != "Variable" or not op.name.startswith(prefix):
            continue
        base = op.name[len(prefix):]
        shared = graph.get_op(f"{shared_prefix}{base}")
        tensor = op.outputs[0]
        for consumer, input_index in graph.consumers(tensor):
            graph.replace_input(consumer, input_index, shared.outputs[0])
        graph.remove_op(op)


def build_data_parallel_training_graph(
    model_builder: ModelBuilder,
    num_replicas: int,
    global_batch: int,
    name: str = "dp_train",
) -> tuple:
    """Replicate a model ``num_replicas`` times with gradient aggregation.

    As in the paper's TensorFlow-slim baseline, all towers read one copy
    of each variable; every step the weights are broadcast to the towers'
    devices and the per-tower gradients travel back to be summed and
    applied where the variable lives.  FastT exploits exactly this
    structure (Sec. 6.5): placing all replicas of a large-parameter
    operation on the variable's GPU removes the broadcast and the
    cross-GPU aggregation.

    Returns ``(graph, info)``.
    """
    if num_replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
    if global_batch < num_replicas:
        raise ValueError(
            f"global batch {global_batch} smaller than replica count "
            f"{num_replicas}"
        )
    graph = Graph(name)
    tower_batches = split_sizes(global_batch, num_replicas)
    info = ReplicatedGraphInfo(
        num_replicas=num_replicas,
        global_batch=global_batch,
        tower_batches=tower_batches,
    )

    # var base name (prefix stripped) -> list of (variable op, grad)
    grads_by_base: Dict[str, List[tuple]] = {}
    base_order: List[str] = []
    shared_prefix = replica_prefix(0)
    for r in range(num_replicas):
        prefix = replica_prefix(r)
        loss = model_builder(graph, prefix, tower_batches[r])
        info.losses.append(loss.name)
        if r > 0:
            _share_tower_variables(graph, prefix)
        grad_of = gradients(graph, loss)
        for op in graph.ops:
            if op.op_type != "Variable" or not op.name.startswith(shared_prefix):
                continue
            grad = grad_of.get(op.outputs[0].name)
            if grad is None:
                continue
            base = op.name[len(shared_prefix):]
            if base not in grads_by_base:
                grads_by_base[base] = []
                base_order.append(base)
            grads_by_base[base].append((op, grad))

    if not base_order:
        raise GraphError("model has no trainable variables with gradients")

    keep = {graph.get_tensor(n).producer.name for n in info.losses}
    for base in base_order:
        entries = grads_by_base[base]
        if len(entries) != num_replicas:
            raise GraphError(
                f"variable {base!r} received {len(entries)} tower gradients, "
                f"expected {num_replicas}; model builder must create the "
                f"same variables under every prefix"
            )
        if num_replicas > 1:
            agg = graph.create_op(
                "AddN",
                graph.unique_name(f"grad_agg/{base}"),
                [grad for _, grad in entries],
            )
            info.aggregation_ops.append(agg.name)
            update_grad = agg.outputs[0]
        else:
            update_grad = entries[0][1]
        # Every tower's entry holds the one shared variable.
        var_op = entries[0][0]
        group = var_op.colocation_group or var_op.name
        var_op.colocation_group = group
        apply_op = graph.create_op(
            "ApplyGradient",
            graph.unique_name(f"{var_op.name}_apply"),
            [var_op.outputs[0], update_grad],
            colocation_group=group,
        )
        keep.add(apply_op.name)
    prune_dangling(graph, keep)
    return graph, info


def data_parallel_placement(
    graph: Graph, device_names: Sequence[str]
) -> Dict[str, str]:
    """The default DP placement: tower ``r`` on device ``r``.

    Shared ops (gradient aggregation) go to the device hosting tower 0,
    as TensorFlow-slim pins shared state to the first worker device.
    """
    placement: Dict[str, str] = {}
    for op in graph.ops:
        idx = replica_index_of(op.name)
        if idx is None:
            placement[op.name] = device_names[0]
        else:
            if idx >= len(device_names):
                raise GraphError(
                    f"op {op.name!r} belongs to tower {idx} but only "
                    f"{len(device_names)} devices were given"
                )
            placement[op.name] = device_names[idx]
    return placement
