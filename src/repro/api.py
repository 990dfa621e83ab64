"""The one-call public API: ``repro.optimize(...)``.

Everything the library does — building the training graph, choosing the
input DAG, bootstrapping cost models through simulated pre-training,
running the OS-DPOS strategy search, activating/rolling back strategies —
sits behind one function::

    import repro
    from repro.cluster import single_server

    result = repro.optimize("lenet", single_server(2))
    print(result.strategy.placement)
    print(result.training_speed)          # samples/second
    print(result.metrics["search.candidates_evaluated"])

Pass an :class:`~repro.obs.Observability` hook to record the run and
export a Chrome-trace timeline::

    from repro.obs import Observability

    obs = Observability()
    result = repro.optimize("lenet", single_server(2), obs=obs)
    obs.export_chrome_trace("optimize.trace.json")   # open in Perfetto

Or let the flight recorder do all of it: ``run_dir=True`` (or setting
``REPRO_RECORD=1``) mints a run id, streams telemetry events to a JSONL
log, and leaves a versioned manifest plus every artifact — trace,
provenance journal, calibration report, metrics, a simulated step —
under one registry directory (see :mod:`repro.obs.runs`)::

    result = repro.optimize("lenet", single_server(2), run_dir=True)
    print(result.run_id, result.run_dir)
    # later: python -m repro.obs show <run_id>
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from .cluster import Topology, TopologyLike, topology_from
from .core.calculator import CalculationReport, FastTConfig
from .core.session import FastTSession
from .core.strategy import Strategy
from .graph import Graph
from .hardware import PerfModel
from .models import get_model
from .models.registry import ModelSpec
from .obs import MetricsSnapshot, Observability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .obs.analyze import StepAnalysis, TraceDiff
    from .obs.calibration import CalibrationReport
    from .obs.provenance import OpExplanation

#: What ``optimize`` accepts as its model argument: a model-zoo name, a
#: :class:`~repro.models.registry.ModelSpec`, or a bare model-builder
#: callable (with ``global_batch=`` then required).
ModelLike = Union[str, ModelSpec, Callable]


@dataclass
class OptimizeResult:
    """Structured output of :func:`repro.optimize`.

    The interesting pieces of the full :class:`CalculationReport` are
    lifted to attributes; the report itself (rounds, timings) and the
    live session (for further simulated training via ``session.run()``)
    stay reachable.
    """

    model_name: str
    topology: Topology
    global_batch: int
    strategy: Strategy
    graph: Graph
    report: CalculationReport
    session: FastTSession
    iteration_time: float
    training_speed: float
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Flight-recorder identity, set when the run was recorded
    #: (``run_dir=`` / ``REPRO_RECORD=1``); query it later with
    #: ``python -m repro.obs show <run_id>``.
    run_id: Optional[str] = None
    run_dir: Optional[str] = None

    @property
    def num_devices(self) -> int:
        return len(self.topology.devices)

    @property
    def speedup_vs_initial(self) -> float:
        """Initial strategy's iteration time over the final one's."""
        initial = self.report.initial_measured_time
        if not self.iteration_time or initial == float("inf"):
            return 1.0
        return initial / self.iteration_time

    def explain(self, steps: int = 1) -> "StepAnalysis":
        """Fig. 5-style attribution of one step under this strategy.

        Re-simulates ``steps`` iterations through the live session and
        analyzes the last one: the critical path with every nanosecond
        attributed to {compute, transfer, wait, idle}, per-device
        utilization/overlap, straggler detection, and per-channel
        congestion.  ``print(result.explain().render())`` for the TTY
        report; ``.to_json()`` for the machine-readable one.
        """
        from .obs.analyze import analyze_step

        trace = self.session.run(steps)[-1]
        return analyze_step(
            trace, label=f"{self.model_name}/{self.strategy.label}"
        )

    def diff(self, other: "OptimizeResult", steps: int = 1) -> "TraceDiff":
        """Explain why this result's strategy differs from ``other``'s.

        Diffs placements, priorities, and split decisions, re-simulates
        both strategies, and attributes the makespan delta to specific
        moved/split ops (``render()`` / ``to_json()`` on the returned
        :class:`~repro.obs.analyze.TraceDiff`).  ``self`` is the A side,
        ``other`` the B side.
        """
        from .obs.analyze import diff_results

        return diff_results(self, other, steps=steps)

    def explain_placement(self, op_name: str) -> "OpExplanation":
        """Why did this (sub-)op land where it did?

        Requires the run to have been made with
        ``obs=Observability(provenance=True)``; reconstructs, from the
        recorded journal, the chosen device with every alternative the
        scheduler scored, and — for split ops — the accept/reject
        verdict chain that produced them.
        ``print(result.explain_placement("op").render())`` for the TTY
        report; ``.to_json()`` for the machine-readable one.
        """
        from .obs.provenance import ProvenanceError

        provenance = getattr(self.session.obs, "provenance", None)
        journal = getattr(provenance, "journal", None)
        if journal is None:
            raise ProvenanceError(
                "no provenance journal was recorded; rerun with "
                "obs=Observability(provenance=True)"
            )
        return journal.explain(op_name, placement=self.strategy.placement)

    @property
    def calibration(self) -> Optional["CalibrationReport"]:
        """Cost-model calibration report (provenance-enabled runs only)."""
        return self.report.calibration

    def summary(self) -> str:
        """A short human-readable account of the optimization."""
        from .obs.report import render_search_counters

        lines = [
            f"model={self.model_name} devices={self.num_devices} "
            f"batch={self.global_batch}",
            f"strategy={self.strategy.label} "
            f"splits={len(self.strategy.split_list)}",
            f"iteration_time={self.iteration_time:.6f}s "
            f"speed={self.training_speed:.1f} samples/s "
            f"speedup={self.speedup_vs_initial:.2f}x",
            render_search_counters(self.report.metrics)
            + f" over {len(self.report.rounds)} round(s)",
        ]
        calibration = self.report.calibration
        if calibration is not None and calibration.entries:
            lines.append(
                "calibration: "
                f"max |rel| residual {calibration.max_abs_relative * 100:.1f}% "
                f"over {len(calibration.entries)} prediction(s)"
            )
        return "\n".join(lines)


def optimize(
    model_or_name: ModelLike,
    topology: TopologyLike,
    *,
    global_batch: Optional[int] = None,
    config: Optional[FastTConfig] = None,
    obs: Optional[Observability] = None,
    perf_model: Optional[PerfModel] = None,
    model_name: Optional[str] = None,
    run_dir: Union[None, bool, str] = None,
    progress: bool = False,
) -> OptimizeResult:
    """Find and evaluate a deployment strategy for one training job.

    Args:
        model_or_name: A model-zoo name (``"lenet"``, ``"vgg19"``, …), a
            :class:`ModelSpec`, or a model-builder callable.
        topology: The cluster to deploy onto — a built
            :class:`Topology` (e.g. ``single_server(4)``), a preset name
            (``"pcie:4"``, ``"dgx:8"``, ``"servers:4x2"``), a
            :class:`~repro.cluster.ClusterSpec`, or a dict/JSON cluster
            spec (see :func:`repro.cluster.topology_from`).
        global_batch: Per-iteration batch size; defaults to the model
            spec's, and is required for bare builder callables.
        config: Workflow tunables (:class:`FastTConfig`); search knobs
            live in ``config.search``.
        obs: Optional :class:`~repro.obs.Observability` hook recording
            spans and metrics across every layer of the run.
        perf_model: Override the simulated hardware model (testing).
        model_name: Display name when passing a bare builder.
        run_dir: Record this run in the flight-recorder registry
            (:mod:`repro.obs.runs`).  ``True`` records under the default
            root (``$REPRO_RUNS_DIR`` or ``~/.repro/runs``); a string
            records under that root instead; ``False`` disables even the
            ``REPRO_RECORD=1`` environment default; ``None`` (default)
            defers to ``REPRO_RECORD``.
        progress: Render live search progress on stderr (the same
            renderer behind the benchmarks' ``--progress`` flag).

    Returns:
        An :class:`OptimizeResult` with the surviving strategy, the
        measured iteration time / training speed, the run's metrics, and
        — for recorded runs — ``run_id``/``run_dir``.
    """
    topology = topology_from(topology)
    if isinstance(model_or_name, str):
        spec = get_model(model_or_name)
        builder, name = spec.builder, spec.name
        batch = global_batch if global_batch is not None else spec.global_batch
    elif isinstance(model_or_name, ModelSpec):
        spec = model_or_name
        builder, name = spec.builder, spec.name
        batch = global_batch if global_batch is not None else spec.global_batch
    elif callable(model_or_name):
        builder = model_or_name
        name = model_name or getattr(model_or_name, "__name__", "model")
        if global_batch is None:
            raise TypeError(
                "optimize() requires global_batch= when given a bare "
                "model-builder callable"
            )
        batch = global_batch
    else:
        raise TypeError(
            "model_or_name must be a model-zoo name, a ModelSpec, or a "
            f"model-builder callable, not {type(model_or_name).__name__}"
        )
    if model_name is not None:
        name = model_name

    if run_dir is None:
        record = os.environ.get("REPRO_RECORD", "") == "1"
        registry_root = None
    else:
        record = bool(run_dir)
        registry_root = run_dir if isinstance(run_dir, str) else None

    recorder = None
    renderer = None
    if record or progress:
        if obs is None:
            obs = Observability(provenance=record)
        elif not obs.enabled:
            raise ValueError(
                "run recording/progress needs an enabled Observability; "
                "got a disabled obs= hook"
            )
    if record:
        from .obs.runs import RunRegistry

        recorder = RunRegistry(registry_root).create()
        recorder.attach(obs)
    if progress:
        from .obs.progress import ProgressRenderer

        renderer = ProgressRenderer()
        obs.events.subscribe(renderer)
    if obs is not None and obs.events.enabled:
        obs.events.emit(
            "run.start",
            run_id=recorder.run_id if recorder else None,
            model=name,
            batch=batch,
            devices=len(topology.devices),
        )

    try:
        session = FastTSession(
            builder,
            topology,
            global_batch=batch,
            perf_model=perf_model,
            config=config,
            model_name=name,
            obs=obs,
        )
        report = session.optimize()
    except BaseException as exc:
        if recorder is not None:
            recorder.finish(
                status="failed",
                model=name,
                global_batch=batch,
                devices=len(topology.devices),
                error=f"{type(exc).__name__}: {exc}",
            )
        if renderer is not None:
            obs.events.unsubscribe(renderer)
            renderer.close()
        raise

    iteration_time = report.measured_time
    speed = batch / iteration_time if iteration_time else float("inf")
    if obs is not None and obs.enabled:
        metrics = obs.snapshot()
    else:
        metrics = MetricsSnapshot(report.metrics)

    run_id_out: Optional[str] = None
    run_dir_out: Optional[str] = None
    if recorder is not None:
        run_id_out, run_dir_out = _record_run(
            recorder, obs, session, report, name, batch, topology,
            iteration_time, speed, metrics,
        )
    elif obs is not None and obs.events.enabled:
        obs.events.emit(
            "run.finish", status="completed", makespan=iteration_time
        )
    if renderer is not None:
        obs.events.unsubscribe(renderer)
        renderer.close()

    return OptimizeResult(
        model_name=name,
        topology=topology,
        global_batch=batch,
        strategy=report.strategy,
        graph=report.graph,
        report=report,
        session=session,
        iteration_time=iteration_time,
        training_speed=speed,
        metrics=metrics,
        run_id=run_id_out,
        run_dir=run_dir_out,
    )


def _record_run(
    recorder,
    obs: Observability,
    session: FastTSession,
    report: CalculationReport,
    name: str,
    batch: int,
    topology: Topology,
    iteration_time: float,
    speed: float,
    metrics: MetricsSnapshot,
) -> tuple:
    """Write a recorded run's artifacts and manifest; returns (id, dir).

    Everything lands inside the run directory: the Chrome trace, the
    provenance journal, the calibration report, the metrics snapshot,
    and one simulated step under the surviving strategy (what
    ``python -m repro.obs diff`` re-attributes).
    """
    from .obs.runs import config_fingerprints

    step_trace = session.run(1)[-1]
    recorder.add_artifact(
        "step", step_trace.save(recorder.path("step.json"))
    )
    recorder.add_artifact(
        "trace", obs.export_chrome_trace(recorder.path("trace.json"))
    )
    recorder.add_artifact(
        "provenance",
        obs.export_provenance(recorder.path("provenance.json")),
    )
    if report.calibration is not None:
        recorder.add_artifact(
            "calibration",
            report.calibration.save(recorder.path("calibration.json")),
        )
    recorder.add_artifact(
        "metrics",
        obs.export_metrics_json(
            recorder.path("metrics.json"), run_id=recorder.run_id
        ),
    )
    obs.events.emit(
        "run.finish",
        run_id=recorder.run_id,
        status="completed",
        makespan=iteration_time,
    )
    recorder.finish(
        status="completed",
        model=name,
        global_batch=batch,
        devices=len(topology.devices),
        fingerprints=config_fingerprints(
            session.input_graph, topology, session.config
        ),
        makespan=iteration_time,
        training_speed=speed,
        strategy_label=report.strategy.label,
        splits=len(report.strategy.split_list),
        metrics={
            k: v for k, v in metrics.items()
            if isinstance(v, (int, float)) and k.startswith("search.")
        },
    )
    return recorder.run_id, recorder.run_dir
