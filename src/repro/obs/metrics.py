"""Metrics registry: counters, gauges, timers, and histograms.

The registry is a subscriber of the event bus (:mod:`repro.obs.events`):
engines and the strategy service never write it by hand.  Each span
finish or fact event they emit is turned into counter increments, gauge
sets, timer additions and histogram samples by one rule table,
:data:`METRIC_RULES`.  At the end of a run the registry is frozen into a
:class:`MetricsSnapshot` (a plain ``dict`` subclass) that travels on the
result objects and serializes to JSON/CSV.

Metric names are dotted paths (``search.candidates_evaluated``,
``workflow.rounds``, ``sim.steps``).  Timers store seconds under
``<name>.seconds`` and invocation counts under ``<name>.count``;
histograms store ``<name>.count/.sum/.min/.max`` plus estimated
``.p50/.p95/.p99`` quantiles.

Metrics may carry **labels** — ``registry.counter("serve.requests",
outcome="hit")`` — stored under the canonical key
``serve.requests{outcome=hit}``.  Labels keep low-cardinality dimensions
(request outcome, tier) out of the metric name proper so the Prometheus
renderer (:mod:`repro.obs.prometheus`) can emit them as proper label
sets while snapshots stay flat and greppable.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .events import Event

Number = Union[int, float]

#: One lock shared by every metric update.  Read-modify-write on a
#: Python int (``value += n``) is not atomic across threads; with the
#: strategy service running N requests concurrently against one
#: registry, unguarded increments lose counts.  Metric updates sit at
#: round/search boundaries, never in per-op hot loops, so one
#: uncontended shared lock costs nothing measurable
#: (``tests/obs/test_run_overhead.py`` still pins the disabled path).
_METRICS_LOCK = threading.Lock()


class Counter:
    """Monotonically increasing integer metric (thread-safe)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with _METRICS_LOCK:
            self.value += amount


class Gauge:
    """Last-write-wins numeric metric (thread-safe)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        # Locked like every other write: a bare store is atomic under
        # the GIL, but an unlocked set racing inc()'s read-modify-write
        # can be overwritten by a stale ``value + amount``.
        with _METRICS_LOCK:
            self.value = value

    def inc(self, amount: Number = 1) -> None:
        with _METRICS_LOCK:
            self.value += amount

    def dec(self, amount: Number = 1) -> None:
        with _METRICS_LOCK:
            self.value -= amount


class Timer:
    """Accumulated seconds plus an invocation count, fed by :meth:`add`."""

    __slots__ = ("name", "seconds", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds: float, count: int = 1) -> None:
        with _METRICS_LOCK:
            self.seconds += seconds
            self.count += count


#: Default histogram bucket upper bounds: fixed exponential (log-spaced,
#: factor 2) from 100 microseconds to ~1.7 hours.  Latency-shaped: the
#: relative quantile-estimation error is bounded by one bucket width
#: (a factor of 2), which is plenty to tell p50 from p99 on a serving
#: path, and the fixed layout means every histogram in the process
#: shares bucket boundaries.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    1e-4 * (2.0 ** i) for i in range(26)
)


class Histogram:
    """Log-bucketed distribution metric (thread-safe).

    Tracks exact ``count``/``sum``/``min``/``max`` plus per-bucket
    counts over fixed exponential bounds, from which :meth:`quantile`
    estimates order statistics with error bounded by the width of the
    bucket the quantile falls in.  Values above the last bound land in a
    ``+Inf`` overflow bucket (quantiles there report the last finite
    bound).
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> None:
        self.name = name
        bounds = tuple(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.bounds = bounds
        #: Non-cumulative per-bucket counts; index len(bounds) is +Inf.
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    def observe(self, value: Number) -> None:
        """Record one sample."""
        value = float(value)
        index = self._bucket_index(value)
        with _METRICS_LOCK:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect_left on bounds)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1); 0.0 on an empty histogram.

        Walks cumulative bucket counts to the bucket containing the
        target rank and interpolates linearly inside it — the absolute
        error is at most that bucket's width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with _METRICS_LOCK:
            total = self.count
            if not total:
                return 0.0
            rank = q * total
            cumulative = 0
            for index, bucket_count in enumerate(self.bucket_counts):
                if not bucket_count:
                    continue
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= rank:
                    if index >= len(self.bounds):
                        return self.bounds[-1]  # overflow bucket
                    upper = self.bounds[index]
                    lower = self.bounds[index - 1] if index else 0.0
                    fraction = (rank - previous) / bucket_count
                    return lower + (upper - lower) * min(1.0, fraction)
            return self.max  # pragma: no cover - rank <= count always hits

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last.

        The Prometheus ``_bucket{le=...}`` series shape.
        """
        with _METRICS_LOCK:
            counts = list(self.bucket_counts)
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out

    def snapshot_into(self, snap: Dict[str, Number]) -> None:
        """Write this histogram's flat snapshot keys into ``snap``."""
        with _METRICS_LOCK:
            count, total = self.count, self.sum
            lo, hi = self.min, self.max
        snap[f"{self.name}.count"] = count
        snap[f"{self.name}.sum"] = total
        if count:
            snap[f"{self.name}.min"] = lo
            snap[f"{self.name}.max"] = hi
            for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                snap[f"{self.name}.{key}"] = self.quantile(q)


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical registry key for a (name, labels) pair.

    Unlabeled metrics keep their bare dotted name; labeled ones append a
    deterministic ``{k=v,...}`` suffix (sorted by label key), which
    :func:`parse_metric_key` inverts and the Prometheus renderer turns
    into real label sets.
    """
    if not labels:
        return name
    suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{suffix}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry key back into ``(name, labels)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, suffix = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in suffix[:-1].split(","):
        if not pair:
            continue
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


class MetricsSnapshot(dict):
    """Frozen-by-convention ``{metric name: value}`` mapping.

    A plain dict subclass so it JSON-serializes directly; ``get`` with a
    default of 0 is the common read pattern for the result-object views.
    """

    def counters(self, prefix: str = "") -> Dict[str, Number]:
        return {k: v for k, v in self.items() if k.startswith(prefix)}


class MetricsRegistry:
    """Create-on-first-use registry of counters/gauges/timers/histograms.

    Instrument accessors take optional ``**labels`` (low-cardinality
    string dimensions); each distinct (name, labels) pair is its own
    instrument, keyed by :func:`metric_key`.  Create-on-first-use dict
    mutation is guarded by ``_METRICS_LOCK`` — two service threads
    racing the first ``counter("serve.hits")`` must not build two
    instruments and drop one's counts.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            with _METRICS_LOCK:
                metric = self._counters.get(key)
                if metric is None:
                    metric = self._counters[key] = Counter(key)
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            with _METRICS_LOCK:
                metric = self._gauges.get(key)
                if metric is None:
                    metric = self._gauges[key] = Gauge(key)
        return metric

    def timer(self, name: str, **labels: str) -> Timer:
        key = metric_key(name, labels)
        metric = self._timers.get(key)
        if metric is None:
            with _METRICS_LOCK:
                metric = self._timers.get(key)
                if metric is None:
                    metric = self._timers[key] = Timer(key)
        return metric

    def histogram(
        self,
        name: str,
        bounds: Optional[Tuple[float, ...]] = None,
        **labels: str,
    ) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            with _METRICS_LOCK:
                metric = self._histograms.get(key)
                if metric is None:
                    metric = self._histograms[key] = Histogram(key, bounds)
        return metric

    # ------------------------------------------------------------------
    def __call__(self, event: "Event") -> None:
        """Bus subscriber: apply the :data:`METRIC_RULES` entry, if any."""
        rule = METRIC_RULES.get(event.kind)
        if rule is not None:
            rule(self, event.data)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze current values into a serializable mapping."""
        snap = MetricsSnapshot()
        for name, counter in list(self._counters.items()):
            snap[name] = counter.value
        for name, gauge in list(self._gauges.items()):
            snap[name] = gauge.value
        for name, timer in list(self._timers.items()):
            snap[f"{name}.seconds"] = timer.seconds
            snap[f"{name}.count"] = timer.count
        for histogram in list(self._histograms.values()):
            histogram.snapshot_into(snap)
        return snap

    def histograms(self) -> List[Histogram]:
        """The live histogram instruments (for renderers/dashboards)."""
        return list(self._histograms.values())


class _NullMetric:
    """Shared do-nothing metric for disabled observability."""

    __slots__ = ()
    value = 0

    def inc(self, amount: Number = 1) -> None:
        pass

    def dec(self, amount: Number = 1) -> None:
        pass

    def add(self, seconds: Number = 1, count: int = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """Zero-cost registry: every metric is one shared no-op object."""

    def counter(self, name: str, **labels: str) -> Counter:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def timer(self, name: str, **labels: str) -> Timer:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name: str, bounds=None, **labels: str) -> Histogram:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


# ----------------------------------------------------------------------
# The rule table: bus events -> metric writes
# ----------------------------------------------------------------------

#: A rule reads one event's data and writes the registry.
Rule = Callable[[MetricsRegistry, Dict[str, object]], None]


def _completed(rule: Rule) -> Rule:
    """``rule``, applied only to spans that finished without an error."""

    def apply(registry: MetricsRegistry, data: Dict[str, object]) -> None:
        if "error" not in data:
            rule(registry, data)

    return apply


def _count(name: str) -> Rule:
    """One more on counter ``name`` per event."""
    return lambda registry, data: registry.counter(name).inc()


def _timed(name: str, **labels: str) -> Rule:
    """The span's seconds into histogram ``name``; ``labels`` maps each
    label to the finish attribute holding its value."""

    def rule(registry: MetricsRegistry, data: Dict[str, object]) -> None:
        values = {label: str(data[attr]) for label, attr in labels.items()}
        registry.histogram(name, **values).observe(data["seconds"])

    return rule


def _sim_step(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    registry.counter("sim.steps").inc()
    registry.counter("sim.op_executions").inc(data["ops"])
    registry.counter("sim.transfers").inc(data["transfers"])
    registry.timer("sim.simulated").add(data["makespan"])
    registry.timer("sim.queue_wait").add(data["queue_wait"])
    registry.gauge("sim.last_makespan").set(data["makespan"])


def _dpos(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    registry.counter("dpos.runs").inc()
    registry.gauge("dpos.last_finish_time").set(data["makespan"])


def _osdpos(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    registry.counter("search.runs").inc()
    for name, value in data["counters"].items():
        if isinstance(value, int):
            registry.counter(name).inc(value)
    registry.gauge("search.finish_time_estimate").set(data["makespan"])


def _calculator(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    registry.counter("calculator.rounds").inc(data["rounds"])
    registry.counter("calculator.activations").inc(data["activations"])
    registry.counter("calculator.rollbacks").inc(data["rollbacks"])
    registry.timer("calculator.algorithm").add(data["algorithm_seconds"])
    registry.timer("calculator.simulated_profiling").add(
        data["simulated_profiling_seconds"]
    )
    registry.gauge("calculator.measured_time").set(data["measured_time"])
    for key, value in (data["calibration"] or {}).items():
        registry.gauge(key).set(value)


def _stability(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    if "stable" not in data:  # a rolled-back round never asks
        return
    registry.counter("costmodel.stability.updates").inc()
    registry.gauge("costmodel.stability.stable").set(float(data["stable"]))
    if data["drift"] is not None:
        registry.gauge("costmodel.stability.max_drift").set(data["drift"])


def _search_started(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    registry.counter("serve.searches").inc()
    registry.gauge("serve.inflight").inc()


_search_seconds = _timed("serve.search", seed="seed", result="result")


def _search_finished(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    registry.gauge("serve.inflight").dec()
    _search_seconds(registry, data)


def _answered(registry: MetricsRegistry, data: Dict[str, object]) -> None:
    # The unlabeled series' _count is the CI cross-check against
    # serve.requests.
    outcome = str(data["outcome"])
    if data["queue_wait"] is not None:
        registry.histogram("serve.queue.wait").observe(data["queue_wait"])
    registry.histogram("serve.request.latency").observe(data["seconds"])
    registry.histogram("serve.request.latency", outcome=outcome).observe(
        data["seconds"]
    )
    if data["outcome"] == "error":
        registry.counter("serve.errors").inc()
        if "error_kind" in data:
            registry.counter("serve.errors", kind=str(data["error_kind"])).inc()


#: The one table from bus events to metric keys.  An enabled
#: :class:`~repro.obs.Observability` and every strategy service
#: subscribe their registry to their bus, so each engine or service
#: site makes one call — a span or an event — and its numbers reach the
#: registry here.
METRIC_RULES: Dict[str, Rule] = {
    "sim.step.finish": _completed(_sim_step),
    "search.dpos.finish": _completed(_dpos),
    "search.osdpos.finish": _completed(_osdpos),
    "calculator.run.finish": _completed(_calculator),
    "round.finish": _stability,
    "serve.submit.start": _count("serve.requests"),
    "serve.submit.finish": _answered,
    "serve.hit": _count("serve.hits"),
    "serve.miss": _count("serve.misses"),
    "serve.coalesce": _count("serve.coalesced"),
    "serve.warm": _count("serve.warm_starts"),
    "serve.warm.fallback": _count("serve.warm_fallbacks"),
    "serve.timeout": _count("serve.timeouts"),
    "serve.evict": _count("serve.evictions"),
    "serve.store.lookup.finish": _completed(
        _timed("serve.store.lookup", result="result")
    ),
    "serve.search.start": _search_started,
    "serve.search.finish": _search_finished,
    "serve.coalesce.wait.finish": _timed("serve.coalesce.wait"),
}
