"""Observability walkthrough: trace and meter one FastT deployment.

Runs ``repro.optimize`` on LeNet over 2 simulated V100s with an
``Observability`` hook attached, then exports everything the hook saw:

* ``search.trace.json`` — the wall-clock timeline of the pre-training
  workflow (rounds, profiling, per-op OS-DPOS evaluations), recorded
  from the hook's event-bus spans;
* ``step.trace.json`` — the simulated-time timeline of one training
  iteration under the winning strategy (kernel spans, ready-queue
  waits, transfer-channel rows);
* ``metrics.json`` / ``metrics.csv`` — the flattened counter/gauge/
  timer registry.

Open either ``*.trace.json`` in ``chrome://tracing`` or
https://ui.perfetto.dev.  The same files are what the benchmark suite's
``--trace-dir`` flag writes per trial, and what CI validates with
``python -m repro.obs validate``.

It then *explains* the deployment with ``repro.obs.analyze``: the
critical path of one simulated step with every nanosecond attributed to
{compute, transfer, wait, idle}, per-device utilization/overlap, and a
strategy diff against a 4-GPU deployment of the same model.  See the
"Explaining a strategy" sections of README.md and EXPERIMENTS.md.

    python examples/observability.py [output-dir]
"""

import sys

import repro
from repro import Observability
from repro.cluster import single_server
from repro.experiments import measure_strategy
from repro.hardware import PerfModel
from repro.obs import ensure_dir, export_step_trace, validate_trace_dir


def main() -> None:
    out = ensure_dir(sys.argv[1] if len(sys.argv) > 1 else "traces")

    obs = Observability()
    topology = single_server(2)
    result = repro.optimize("lenet", topology, obs=obs)
    print(result.summary())

    # 1. The strategy-search workflow as a wall-clock timeline.
    search_trace = obs.export_chrome_trace(f"{out}/search.trace.json")
    print(f"search timeline: {search_trace} "
          f"({len(obs.trace.events)} events)")

    # 2. One simulated iteration of the winning strategy, rendered with
    #    per-device rows (compute + ready-queue waits) and per-channel
    #    transfer rows.
    trace = measure_strategy(
        result.graph, result.strategy, topology,
        PerfModel(topology, noise_sigma=0.02, seed=0), steps=1,
    )[-1]
    step_trace = export_step_trace(f"{out}/step.trace.json", trace)
    print(f"step timeline:   {step_trace} "
          f"({len(trace.op_records)} ops, "
          f"{len(trace.transfer_records)} transfers, "
          f"makespan {trace.makespan * 1000:.2f} ms)")

    # 3. The metrics registry, flattened.
    obs.export_metrics_json(f"{out}/metrics.json", model="lenet")
    obs.export_metrics_csv(f"{out}/metrics.csv")
    print("\nsearch counters:")
    for name, value in sorted(result.metrics.counters("search.").items()):
        print(f"  {name:40s} {value}")

    # 4. Structural validation — the same check CI runs on benchmark
    #    trace output.
    for path, counts in validate_trace_dir(out).items():
        print(f"valid: {path}  {counts}")

    # 5. Explain the strategy: critical path + attribution + per-device
    #    utilization.  ``trace.save`` writes the serialized StepTrace
    #    that ``python -m repro.obs show`` and ``diff`` read.
    trace.save(f"{out}/step.step.json")
    analysis = result.explain()
    print()
    print(analysis.render())
    attribution = analysis.critical_path.attribution()
    print(f"\nattributed total = {sum(attribution.values()) * 1000:.3f} ms "
          f"(= makespan {analysis.makespan * 1000:.3f} ms)")

    # 6. Strategy diff: why does 4 GPUs differ from 2?  Attributes the
    #    makespan delta to the specific ops that moved or were split.
    other = repro.optimize("lenet", single_server(4))
    print()
    print(result.diff(other).render())


if __name__ == "__main__":
    main()
