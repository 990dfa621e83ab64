"""``repro.obs`` — unified observability for the FastT reproduction.

Every execution layer (the discrete-event simulator, the DPOS/OS-DPOS
strategy search, the pre-training calculator, the session facade)
accepts an ``obs=`` hook.  The hook bundles two instruments:

* an **event bus** (:mod:`repro.obs.events`) that every engine site
  instruments with one call — a span or an event.  A Chrome-trace
  recorder subscribed to it keeps the wall-clock timeline, so a
  strategy-search run renders in ``chrome://tracing`` / Perfetto;
* a **metrics registry** of counters/gauges/timers, frozen into a
  :class:`~repro.obs.metrics.MetricsSnapshot` that result objects
  (``OSDPOSResult``, ``CalculationReport``, ``OptimizeResult``) carry.

The default is :data:`NULL_OBS`, whose every instrument is a shared
no-op, so un-observed runs pay essentially nothing::

    import repro
    from repro.cluster import single_server
    from repro.obs import Observability

    obs = Observability()
    result = repro.optimize("lenet", single_server(2), obs=obs)
    obs.export_chrome_trace("search.trace.json")   # open in Perfetto
    print(result.metrics["search.candidates_evaluated"])
"""

from __future__ import annotations

from typing import Optional

from .chrome_trace import (
    ChromeTraceRecorder,
    TraceValidationError,
    export_step_trace,
    step_trace_events,
    trace_document,
    validate_trace,
    validate_trace_dir,
    write_trace,
)
from .exporters import (
    ensure_dir,
    write_metrics_csv,
    write_metrics_json,
    write_rows_csv,
)
from .events import (
    EVENT_SCHEMA_VERSION,
    NULL_EVENTS,
    Event,
    EventBus,
    EventSchemaError,
    JsonlEventWriter,
    NullEventBus,
    get_events,
    read_event_log,
)
from .metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
    Timer,
    metric_key,
    parse_metric_key,
)


class _NullOpRound:
    """No-op stand-in for :class:`~repro.obs.provenance.OpRound`."""

    __slots__ = ()
    enabled = False

    def candidate(self, *args, **kwargs) -> None:
        return None

    def accept(self, *args, **kwargs) -> None:
        return None

    def reject(self, *args, **kwargs) -> None:
        return None

    def no_candidates(self) -> None:
        return None


class _NullSearchRecord:
    """No-op stand-in for :class:`~repro.obs.provenance.SearchRecord`."""

    __slots__ = ()
    enabled = False

    def record_initial(self, *args, **kwargs) -> None:
        return None

    def set_candidate_ops(self, *args, **kwargs) -> None:
        return None

    def set_super_ops(self, *args, **kwargs) -> None:
        return None

    def begin_op(self, *args, **kwargs) -> "_NullOpRound":
        return _NULL_OP_ROUND

    def finalize(self, *args, **kwargs) -> None:
        return None


class NullProvenance:
    """The zero-cost default for ``obs.provenance``: records nothing.

    Mirrors :class:`~repro.obs.provenance.ProvenanceRecorder`'s builder
    surface so the engines never branch beyond ``enabled`` checks.
    (Defined here rather than in :mod:`repro.obs.provenance` so that
    importing ``repro.obs`` — which every run does — does not import the
    journal machinery, and ``python -m repro.obs.provenance`` never
    trips runpy's double-import warning.)
    """

    __slots__ = ()
    enabled = False
    journal = None

    def begin_search(self, *args, **kwargs) -> "_NullSearchRecord":
        return _NULL_SEARCH_RECORD

    def record_dpos(self, *args, **kwargs) -> None:
        return None


_NULL_OP_ROUND = _NullOpRound()
_NULL_SEARCH_RECORD = _NullSearchRecord()

#: Shared no-op provenance recorder (the ``obs.provenance`` default).
NULL_PROVENANCE = NullProvenance()


class Observability:
    """The ``obs=`` hook: event bus + metrics registry (+ provenance).

    ``Observability()`` carries a live :class:`~repro.obs.events.EventBus`
    with a :class:`~repro.obs.chrome_trace.ChromeTraceRecorder`
    (``obs.trace``) subscribed, and a metrics registry; :data:`NULL_OBS`
    (the library default) is the disabled instance whose every
    instrument is a no-op.  ``provenance=True`` additionally journals
    every DPOS / OS-DPOS decision (see :mod:`repro.obs.provenance`); it
    defaults to a shared no-op, so runs pay nothing for what they did
    not ask for.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        provenance: bool = False,
    ) -> None:
        self.enabled = enabled
        self.trace = ChromeTraceRecorder()
        if enabled:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self.events: EventBus = EventBus()
            self.events.subscribe(self.trace)
        else:
            self.metrics = NullMetricsRegistry()
            self.events = NULL_EVENTS
        if enabled and provenance:
            from .provenance import ProvenanceRecorder

            self.provenance = ProvenanceRecorder()
        else:
            self.provenance = NULL_PROVENANCE

    # ------------------------------------------------------------------
    def export_chrome_trace(self, path: str) -> Optional[str]:
        """Write the wall-clock timeline; None when disabled/empty."""
        if not self.trace.events:
            return None
        return write_trace(path, self.trace.events)

    def export_provenance(self, path: str) -> Optional[str]:
        """Write the provenance journal; None when disabled or empty."""
        journal = getattr(self.provenance, "journal", None)
        if journal is None or not journal.searches:
            return None
        return journal.save(path)

    def export_metrics_json(self, path: str, **extra: object) -> str:
        return write_metrics_json(path, self.metrics.snapshot(), extra=extra)

    def export_metrics_csv(self, path: str) -> str:
        return write_metrics_csv(path, self.metrics.snapshot())

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()


#: Shared disabled instance: the default for every ``obs=`` parameter.
NULL_OBS = Observability(enabled=False)

#: Analysis-layer names re-exported lazily (PEP 562) so that
#: ``python -m repro.obs.analyze`` does not import the submodule twice
#: (once as a package attribute, once as ``__main__``), which would
#: trip runpy's double-import warning.
_ANALYZE_EXPORTS = (
    "ChannelReport",
    "CriticalPath",
    "DeviceReport",
    "PathSegment",
    "StepAnalysis",
    "StrategyDiff",
    "TraceDiff",
    "analyze_step",
    "analyze_utilization",
    "cite_divergences",
    "diff_results",
    "diff_strategies",
    "diff_traces",
    "extract_critical_path",
)

#: Provenance-journal names, lazily re-exported for the same reason
#: (``python -m repro.obs.provenance`` is a CLI entry point).
_PROVENANCE_EXPORTS = (
    "OpExplanation",
    "OpRound",
    "PlacementAlternative",
    "PlacementDecision",
    "ProvenanceError",
    "ProvenanceJournal",
    "ProvenanceRecorder",
    "ProvenanceSchemaError",
    "SearchRecord",
    "SplitCandidate",
)

#: Cost-model calibration names (capture/join/report).
_CALIBRATION_EXPORTS = (
    "CalibrationReport",
    "CalibrationSchemaError",
    "FamilyStats",
    "Prediction",
    "PredictionSet",
    "ResidualEntry",
    "calibrate",
    "capture_predictions",
)

#: Run-registry names, lazily re-exported for the same reason
#: (``python -m repro.obs.runs`` is a CLI entry point).
_RUNS_EXPORTS = (
    "MANIFEST_SCHEMA_VERSION",
    "ManifestSchemaError",
    "RunManifest",
    "RunNotFoundError",
    "RunRecorder",
    "RunRegistry",
    "cluster_fingerprint",
    "config_fingerprints",
    "default_runs_dir",
    "graph_fingerprint",
    "new_run_id",
    "options_fingerprint",
)

#: Progress-renderer names (lazy: most runs never render progress).
_PROGRESS_EXPORTS = ("LivePanel", "ProgressRenderer", "format_seconds")

#: Prometheus exposition names (lazy: only the serving layer renders).
_PROMETHEUS_EXPORTS = (
    "parse_prometheus",
    "prometheus_name",
    "render_prometheus",
)


def __getattr__(name: str):
    if name in _ANALYZE_EXPORTS:
        from . import analyze

        return getattr(analyze, name)
    if name in _PROVENANCE_EXPORTS:
        from . import provenance

        return getattr(provenance, name)
    if name in _CALIBRATION_EXPORTS:
        from . import calibration

        return getattr(calibration, name)
    if name in _RUNS_EXPORTS:
        from . import runs

        return getattr(runs, name)
    if name in _PROGRESS_EXPORTS:
        from . import progress

        return getattr(progress, name)
    if name in _PROMETHEUS_EXPORTS:
        from . import prometheus

        return getattr(prometheus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def get_obs(obs: Optional[Observability]) -> Observability:
    """Normalize an ``obs=`` argument (None -> the shared null hook)."""
    return NULL_OBS if obs is None else obs


__all__ = list(_ANALYZE_EXPORTS) + list(_PROVENANCE_EXPORTS) + list(
    _CALIBRATION_EXPORTS
) + list(_RUNS_EXPORTS) + list(_PROGRESS_EXPORTS) + list(
    _PROMETHEUS_EXPORTS
) + [
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventBus",
    "EventSchemaError",
    "JsonlEventWriter",
    "NULL_EVENTS",
    "NullEventBus",
    "get_events",
    "read_event_log",
    "ChromeTraceRecorder",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "parse_metric_key",
    "MetricsSnapshot",
    "NULL_OBS",
    "NULL_PROVENANCE",
    "NullMetricsRegistry",
    "NullProvenance",
    "Observability",
    "Timer",
    "TraceValidationError",
    "ensure_dir",
    "export_step_trace",
    "get_obs",
    "step_trace_events",
    "trace_document",
    "validate_trace",
    "validate_trace_dir",
    "write_metrics_csv",
    "write_metrics_json",
    "write_rows_csv",
    "write_trace",
]
