"""GPipe-style pipeline parallelism (the paper's noted complement).

Sec. 7 of the paper: "these pipeline strategies can be complementary to
FastT.  After FastT obtains operation placement and execution order, it
can further split a mini-batch into micro-batches and allow pipelined
training in the similar fashion as proposed in GPipe."

This module implements that extension: the *forward* model is cut into
FLOPs-balanced contiguous stages, one per device; each backward operation
runs on the stage of the forward activations it consumes (so a layer's
forward and backward share a device, as in GPipe); the mini-batch is
split into ``M`` micro-batch towers sharing one set of variables; and
per-variable gradients are accumulated before a single update — exact
synchronous-SGD semantics, unlike asynchronous pipelines.  The
discrete-event simulator overlaps micro-batch ``m``'s stage ``s+1`` with
micro-batch ``m+1``'s stage ``s`` automatically, so the pipeline bubble
and its shrinkage with more micro-batches emerge from the schedule.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cluster import Topology
from ..core.strategy import Strategy
from ..graph import (
    Graph,
    ModelBuilder,
    build_data_parallel_training_graph,
    replica_index_of,
    replica_prefix,
)


def forward_stage_map(
    model_builder: ModelBuilder,
    topology: Topology,
    micro_batch: int,
) -> Dict[str, int]:
    """Cut the forward DAG into contiguous FLOPs-balanced stages.

    Returns base op name -> stage index.
    """
    graph = Graph("pipeline_forward")
    model_builder(graph, "", micro_batch)
    order = graph.topological_order()
    num_stages = len(topology.devices)
    total = sum(op.flops for op in order) or float(len(order))
    uniform = total <= len(order)
    per_stage = total / num_stages

    stages: Dict[str, int] = {}
    stage = 0
    accumulated = 0.0
    for op in order:
        weight = 1.0 if uniform else op.flops
        if accumulated + weight > per_stage and stage < num_stages - 1:
            stage += 1
            accumulated = 0.0
        accumulated += weight
        stages[op.name] = stage
    # Source ops (variables, feeds) all sit at the topological front and
    # would otherwise land on stage 0; a weight belongs with the stage
    # that consumes it.
    for op in order:
        if not op.inputs:
            consumer_stages = [
                stages[c.name] for c in graph.successors(op)
            ]
            if consumer_stages:
                stages[op.name] = min(consumer_stages)
    return stages


def build_pipeline_strategy(
    model_builder: ModelBuilder,
    topology: Topology,
    global_batch: int,
    num_microbatches: int,
    name: str = "pipeline",
) -> Tuple[Graph, Strategy]:
    """Micro-batched pipeline deployment over the cluster's devices.

    Returns ``(graph, strategy)`` ready for the simulator.
    """
    if num_microbatches < 1:
        raise ValueError(f"need at least one micro-batch, got {num_microbatches}")
    if global_batch < num_microbatches:
        raise ValueError(
            f"global batch {global_batch} smaller than micro-batch count "
            f"{num_microbatches}"
        )
    devices: List[str] = list(topology.device_names)
    fwd_stage = forward_stage_map(
        model_builder, topology, max(global_batch // num_microbatches, 1)
    )

    graph, _ = build_data_parallel_training_graph(
        model_builder,
        num_replicas=num_microbatches,
        global_batch=global_batch,
        name=name,
    )

    # Stage of every op: forward ops by the map; backward ops inherit the
    # deepest stage among the *forward* tensors they consume; anything
    # else (pure gradient plumbing) follows the max stage of its inputs.
    stage_of: Dict[str, int] = {}
    for op in graph.topological_order():
        index = replica_index_of(op.name)
        base = (
            op.name[len(replica_prefix(index)):] if index is not None else None
        )
        if base is not None and base in fwd_stage:
            stage_of[op.name] = fwd_stage[base]
            continue
        input_stages = [
            stage_of[t.producer.name]
            for t in op.inputs
            if t.producer is not None and t.producer.name in stage_of
        ]
        forward_inputs = [
            fwd_stage[t.producer.name[len(replica_prefix(replica_index_of(t.producer.name))):]]
            for t in op.inputs
            if t.producer is not None
            and replica_index_of(t.producer.name) is not None
            and t.producer.name[
                len(replica_prefix(replica_index_of(t.producer.name))):
            ] in fwd_stage
        ]
        if forward_inputs:
            stage_of[op.name] = max(forward_inputs)
        elif input_stages:
            stage_of[op.name] = max(input_stages)
        else:
            stage_of[op.name] = 0

    placement = {
        op.name: devices[stage_of[op.name]] for op in graph.ops
    }
    # Parameter updates sit with their variable.
    for op in graph.ops:
        if op.op_type == "ApplyGradient":
            placement[op.name] = placement[op.inputs[0].producer.name]

    # Execution order: micro-batch-major, so earlier micro-batches drain
    # forward through the pipeline first.
    order = sorted(
        (op.name for op in graph.topological_order()),
        key=lambda n: (
            replica_index_of(n)
            if replica_index_of(n) is not None
            else num_microbatches
        ),
    )
    strategy = Strategy(
        placement=placement,
        order=list(order),
        label=f"pipeline-{num_microbatches}",
    )
    return graph, strategy
