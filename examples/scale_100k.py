"""Optimizing a 100k-op training graph in seconds (the scale path).

Small zoo graphs run the exact OS-DPOS search; past
``SearchOptions.coarsen_threshold`` ops the engine automatically
switches to the hierarchical search: contract the graph into super-ops
with exact aggregate costs, place coarse, refine splits inside the
coarse critical path, and expand the strategy back to the fine graph.
The event-heap simulator then measures the expanded strategy directly
on all 100k+ fine ops.

This walkthrough builds a synthetic 9100-layer MLP (11 training-graph
ops per layer -> ~100k ops), runs the full FastT workflow on a 4-GPU
PCIe box, and shows that placement provenance still resolves ops that
were absorbed into super-ops.

    python examples/scale_100k.py      (~30 s)
"""

import time

import repro
from repro import FastTConfig, SearchOptions
from repro.models.layers import LayerHelper

NUM_LAYERS = 9100
HIDDEN = 64


def build_deep_mlp(graph, prefix, batch):
    net = LayerHelper(graph, prefix)
    x = net.placeholder("x", (batch, HIDDEN))
    for i in range(NUM_LAYERS):
        x = net.dense(x, f"fc{i}", HIDDEN, relu=True)
    return net.softmax_loss(x)


def main():
    start = time.perf_counter()
    result = repro.optimize(
        build_deep_mlp,
        "pcie:4",
        # Below the device count: the session skips data-parallel
        # replication and optimizes the model-parallel graph directly.
        global_batch=2,
        config=FastTConfig(
            profiling_steps=1,
            max_rounds=1,
            min_rounds=1,
            measure_steps=1,
            search=SearchOptions(
                # "auto" (the default) would do the same: 100k ops is
                # far past coarsen_threshold.  Spelled out for clarity.
                coarsen=True,
                max_candidate_ops=2,
                split_counts=[2],
            ),
        ),
        model_name="deep_mlp_100k",
    )
    wall = time.perf_counter() - start
    print(
        f"{result.graph.num_ops} ops optimized + simulated in {wall:.1f}s: "
        f"step {result.iteration_time:.4f}s, "
        f"{result.training_speed:.1f} samples/s, "
        f"strategy {result.strategy.label}"
    )
    devices = {}
    for device in result.strategy.placement.values():
        devices[device] = devices.get(device, 0) + 1
    for device in sorted(devices):
        print(f"  {device}: {devices[device]} ops")


if __name__ == "__main__":
    main()
