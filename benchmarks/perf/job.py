"""One optimize job in a fresh process: ``python3 job.py SPEC [TRACE_FILE]``.

``SPEC`` is the JSON of one job from :func:`workloads.optimize_jobs`.
The process first times the host's speed (:mod:`speed`, printed as
``reference <seconds>``) and prints ``ready`` once ``import repro`` is
done; the parent times set-up up to that line, less the reference loop.
It then runs ``repro.optimize`` once under a :class:`speed.Sampler`,
checks the result, and prints one JSON line with the timings, the
host-speed samples, the result and any failed check.  With ``TRACE_FILE`` it records layer spans and writes
them there as Chrome-trace JSON.  ``SPEC`` ``probe`` stops after
``ready``: the parent uses it for extra set-up samples.
"""

from __future__ import annotations

import json
import math
import sys
import time


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def check_result(result) -> list:
    """The output invariants every strategy must satisfy."""
    failed = []
    graph, strategy = result.graph, result.strategy
    names = [op.name for op in graph.ops]
    if len(set(names)) != len(names):
        failed.append("graph has duplicate op names")
    placement = strategy.placement
    if set(placement) != set(names):
        failed.append(
            f"placement covers {len(placement)} ops, graph has {len(names)}"
        )
    devices = set(result.topology.device_names)
    off = sorted({d for d in placement.values() if d not in devices})
    if off:
        failed.append(f"ops placed on unknown devices {off[:3]}")
    order = list(strategy.order)
    if order:
        position = {name: i for i, name in enumerate(order)}
        if len(position) != len(order) or not set(position) <= set(names):
            failed.append("order repeats ops or names unknown ones")
        else:
            for op in graph.ops:
                if op.name not in position:
                    continue
                for tensor in op.inputs:
                    producer = tensor.producer
                    if (
                        producer is not None
                        and producer.name in position
                        and position[producer.name] > position[op.name]
                    ):
                        failed.append(
                            f"order runs {op.name} before its input "
                            f"{producer.name}"
                        )
                        break
    step = result.iteration_time
    if not (math.isfinite(step) and step > 0):
        failed.append(f"step time {step!r} is not finite and positive")
    return failed


def mlp_builder(layers: int, hidden: int):
    from repro.models.layers import LayerHelper

    def build_mlp(graph, prefix, batch):
        net = LayerHelper(graph, prefix)
        x = net.placeholder("x", (batch, hidden))
        for i in range(layers):
            x = net.dense(x, f"fc{i}", hidden, relu=True)
        return net.softmax_loss(x)

    return build_mlp


def build_config(overrides: dict):
    from repro.core.calculator import FastTConfig
    from repro.core.os_dpos import SearchOptions

    fields = {k: v for k, v in overrides.items() if k != "search"}
    return FastTConfig(search=SearchOptions(**overrides.get("search", {})), **fields)


def main(argv: list) -> int:
    from speed import Sampler, announce

    announce()
    import repro

    print("ready", flush=True)
    if argv[0] == "probe":
        return 0
    spec = json.loads(argv[0])
    tracer = None
    if len(argv) > 1:
        from layers import Tracer

        tracer = Tracer(job=spec["name"])
        tracer.install()

    kwargs = {}
    if "mlp_layers" in spec:
        # Deep graphs recurse when copied (tensor -> producer -> ...).
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 200 * spec["mlp_layers"]))
        model = mlp_builder(spec["mlp_layers"], spec["mlp_hidden"])
        kwargs["model_name"] = spec["name"]
    else:
        model = spec["model"]
    if "global_batch" in spec:
        kwargs["global_batch"] = spec["global_batch"]
    if "config" in spec:
        kwargs["config"] = build_config(spec["config"])

    out = {"name": spec["name"], "ok": False, "failed": []}
    try:
        with Sampler() as sampler:
            start = time.perf_counter()
            result = repro.optimize(model, spec["topology"], **kwargs)
            out["wall_s"] = time.perf_counter() - start
        out["samples"] = sampler.samples
        out["failed"] = check_result(result)
        out.update(
            ok=not out["failed"],
            ops=result.graph.num_ops,
            iteration_time=result.iteration_time,
            training_speed=result.training_speed,
        )
    except Exception as exc:  # reported as a failed job, not a crash
        out["failed"] = [f"{type(exc).__name__}: {exc}"]
    out["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write(argv[1])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
