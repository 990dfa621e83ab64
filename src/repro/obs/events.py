"""Live telemetry event bus: the one instrumentation stream of every run.

Engines instrument each site with one call on the :class:`EventBus` the
``obs=`` hook carries: ``emit`` for a single fact (a commit, a rollback,
placement progress) or ``span`` for a timed block::

    with obs.events.span("search.dpos", graph=graph.name) as span:
        result = ...
        span.set(makespan=result.finish_time)

A span emits ``<name>.start`` with its opening attributes and, on
leaving (exceptions included), ``<name>.finish`` with ``seconds``, the
attributes :meth:`Span.set` recorded and ``error`` if the block raised.
Both carry the ``span`` id and the ``parent`` span id open on the same
thread.  Every enabled :class:`~repro.obs.Observability` carries a live
bus; the Chrome-trace recorder
(:class:`~repro.obs.chrome_trace.ChromeTraceRecorder`), the metrics
registry (:data:`~repro.obs.metrics.METRIC_RULES`), a recorded run's
``events.jsonl`` and manifest ``phases`` (:mod:`repro.obs.runs`) and the
``--progress`` renderer (:mod:`repro.obs.progress`) are subscribers::

    obs = Observability()
    obs.events.subscribe(lambda e: print(e.kind, e.data))
    repro.optimize("lenet", single_server(2), obs=obs)

The default everywhere is :data:`NULL_EVENTS`: ``emit`` is a no-op,
``span`` returns one shared no-op context, and ``enabled=False`` lets
hot loops skip even building a payload, so un-observed runs pay
essentially nothing (pinned by ``tests/obs/test_run_overhead.py``).

The stable vocabulary (a span is listed by name and emits ``.start`` and
``.finish``):

======================  ===================================================
``run.start/finish``    one ``repro.optimize`` run (run id, model, makespan)
``session.input``       input-DAG choice (data-parallel vs model-parallel)
``calculator.run``      span: the whole pre-training stage
``round``               span: one calculator round (``verdict``, ``best``)
``round.activate``      a round activated a new strategy
``round.rollback``      a round rolled back to the previous strategy
``calculator.profile``  span: profiling steps (the ``profile`` phase)
``calculator.search``   span: the strategy search (the ``search`` phase)
``calculator.measure``  span: the final measurement (the ``measure`` phase)
``search.osdpos``       span: one OS-DPOS run (``makespan``, ``splits``)
``search.op``           span: one critical-path op (``verdict``, makespan)
``search.commit``       a committed split (best-so-far makespan)
``search.warm*``        warm-start replay and its cold fallback
``search.dpos``         span: one DPOS placement pass
``dpos.progress``       placement progress (placed/total)
``graph.coarsen``       span: one graph contraction (cluster counts)
``sim.step``            span: one simulated step (``makespan``, ``ops``)
``sim.progress``        simulator event-heap progress
``serve.submit``        span: one service request (``queue_wait``,
                        ``outcome``)
``serve.request``       a request that no identical peer is in flight for
``serve.coalesce``      a request folded onto an in-flight leader
``serve.coalesce.wait`` span: a follower's wait on its leader
``serve.store.lookup``  span: one strategy-store lookup (``result``)
``serve.hit/miss``      the lookup's answer
``serve.warm``          a search seeded from a cached near-miss strategy
``serve.search``        span: one service search (``seed``, ``result``)
``serve.warm.fallback`` a warm-started search that fell back cold
``serve.complete``      a searched answer stored (``source``, makespan)
``serve.timeout``       a follower's deadline expired
``serve.evict``         a store eviction (``tier``)
======================  ===================================================
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Version of the JSONL event-log layout (header line + one event per
#: line).  Bump when the record shape or the vocabulary changes; readers
#: reject unknown versions instead of replaying garbage.  Version 2 made
#: spans the timing primitive: ``phase``, ``search.start/finish`` and
#: ``coarsen.*`` are gone, and ``round.*`` and ``search.op.*`` became
#: span events.
EVENT_SCHEMA_VERSION = 2

#: Event-log versions :func:`read_event_log` accepts.
READABLE_EVENT_SCHEMAS = (1, 2)

#: The calculator spans that time the paper's strategy-time phases
#: (Table 4), by the phase name the run manifest records.
PHASE_SPANS = {
    "calculator.profile": "profile",
    "calculator.search": "search",
    "calculator.measure": "measure",
}

#: The JSONL header's discriminator value.
EVENT_LOG_KIND = "repro.events"


class EventSchemaError(ValueError):
    """A persisted event log has an unknown or malformed schema."""


@dataclass
class Event:
    """One structured progress event.

    ``seq`` is the bus's emission counter (strictly increasing per bus,
    the replay order); ``ts`` is monotonic wall-clock seconds since the
    bus was created.  ``data`` is a flat JSON-serializable payload.
    """

    seq: int
    ts: float
    kind: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind,
                "data": self.data}

    @classmethod
    def from_json(cls, data: object) -> "Event":
        if not isinstance(data, dict):
            raise EventSchemaError(f"event record is not an object: {data!r}")
        try:
            return cls(
                seq=int(data["seq"]),
                ts=float(data["ts"]),
                kind=str(data["kind"]),
                data=dict(data.get("data") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EventSchemaError(f"malformed event record: {exc}") from exc


#: Subscriber signature: called synchronously with each emitted event.
Subscriber = Callable[[Event], None]


class Span:
    """One timed block on a bus: the context manager ``bus.span`` returns.

    Entering emits ``<name>.start`` with the opening attributes; leaving
    (normally or by an exception) emits ``<name>.finish`` with
    ``seconds``, the attributes :meth:`set` recorded and, when the block
    raised, ``error``.  ``span``, ``parent``, ``seconds`` and ``error``
    are reserved attribute names.  After the block, ``seconds`` is also
    readable on the span itself.
    """

    __slots__ = (
        "_bus", "name", "id", "parent", "_attrs", "_done", "_start", "seconds",
    )

    def __init__(self, bus: "EventBus", name: str, attrs: Dict[str, object]) -> None:
        self._bus = bus
        self.name = name
        self._attrs = attrs
        self._done: Dict[str, object] = {}

    def set(self, **attrs: object) -> None:
        """Record attributes for the finish event."""
        self._done.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._bus._open.stack
        self.id = next(self._bus._span_ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self._bus.emit(
            f"{self.name}.start", span=self.id, parent=self.parent, **self._attrs
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start
        self._bus._open.stack.pop()
        if exc_type is not None:
            self._done["error"] = exc_type.__name__
        self._bus.emit(
            f"{self.name}.finish", span=self.id, parent=self.parent,
            seconds=self.seconds, **self._done,
        )
        return False


class _OpenSpans(threading.local):
    """Each thread's stack of open span ids (its parent chain)."""

    def __init__(self) -> None:
        self.stack: List[int] = []


class _NullSpan:
    """The shared no-op context :data:`NULL_EVENTS` hands out."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class EventBus:
    """Synchronous fan-out of :class:`Event` to subscriber callbacks.

    Emission is deliberately minimal — build the event, call each
    subscriber in subscription order, on the emitting thread.
    Subscribers must be cheap and must not raise (an exception
    propagates into the engine that emitted, by design: a broken sink is
    a bug, not a condition to paper over).  Span parent chains are
    per thread, so concurrent searches sharing one bus keep separate
    trees.
    """

    enabled = True

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._seq = 0
        self._epoch = time.perf_counter()
        self._span_ids = itertools.count(1)
        self._open = _OpenSpans()
        # Emission is serialized: ``seq`` must stay strictly increasing
        # and unique even when concurrent service requests share one bus
        # (duplicate seqs would make a persisted log unreadable — see
        # read_event_log's duplicate check).
        self._lock = threading.Lock()

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register a callback; returns it (decorator-friendly)."""
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a callback; unknown subscribers are ignored."""
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def emit(self, kind: str, **data: object) -> None:
        """Deliver one event to every subscriber, in order."""
        with self._lock:
            self._seq += 1
            event = Event(self._seq, time.perf_counter() - self._epoch, kind, data)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(event)

    def span(self, name: str, **attrs: object) -> Span:
        """A timed block: ``with bus.span("sim.step", graph=g) as s: ...``."""
        return Span(self, name, attrs)

    @property
    def num_subscribers(self) -> int:
        return len(self._subscribers)


class NullEventBus(EventBus):
    """Do-nothing bus: the zero-cost default on every ``obs=`` hook.

    ``subscribe`` raises — attaching a consumer to a bus that will never
    emit is always a caller bug (use an enabled hook:
    ``Observability()``).
    """

    enabled = False

    def subscribe(self, subscriber: Subscriber) -> Subscriber:  # type: ignore[override]
        raise RuntimeError(
            "cannot subscribe to the disabled event bus; use an enabled "
            "hook, Observability()"
        )

    def unsubscribe(self, subscriber: Subscriber) -> None:  # type: ignore[override]
        pass

    def emit(self, kind: str, **data: object) -> None:  # type: ignore[override]
        pass

    def span(self, name: str, **attrs: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN


#: Shared disabled bus (the ``obs.events`` default).
NULL_EVENTS = NullEventBus()


class JsonlEventWriter:
    """Subscriber streaming events to a JSONL file as they happen.

    Line 1 is a schema header (``{"schema": 2, "kind": "repro.events",
    ...}``); every following line is one event.  Each line is flushed so
    a crashed run still leaves a replayable log.
    """

    def __init__(self, path: str, **header: object) -> None:
        self.path = path
        self._handle = open(path, "w")
        document = {"schema": EVENT_SCHEMA_VERSION, "kind": EVENT_LOG_KIND}
        document.update(header)
        self._handle.write(json.dumps(document) + "\n")
        self._handle.flush()
        self.count = 0

    def __call__(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_json()) + "\n")
        self._handle.flush()
        self.count += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def read_event_log(path: str) -> List[Event]:
    """Load and validate a JSONL event log; returns events in replay order.

    Replay order is ``seq`` order (the bus's emission order), which the
    reader re-establishes even if the file's lines were concatenated or
    shuffled by post-processing.  Every schema in
    :data:`READABLE_EVENT_SCHEMAS` loads; events keep the vocabulary of
    the build that wrote them.  Raises :class:`EventSchemaError` on a
    missing/unknown header schema, malformed records, or duplicate
    sequence numbers.
    """
    _, events = read_event_log_with_header(path)
    return events


def read_event_log_with_header(
    path: str,
) -> "tuple[Dict[str, object], List[Event]]":
    """Like :func:`read_event_log` but also returns the header document."""
    with open(path) as handle:
        first = handle.readline()
        if not first.strip():
            raise EventSchemaError(f"{path}: empty event log (no header)")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise EventSchemaError(f"{path}: invalid header JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != EVENT_LOG_KIND:
            raise EventSchemaError(
                f"{path}: not an event log (header kind "
                f"{header.get('kind') if isinstance(header, dict) else header!r})"
            )
        schema = header.get("schema")
        if schema not in READABLE_EVENT_SCHEMAS:
            raise EventSchemaError(
                f"{path}: unsupported event-log schema {schema!r} "
                f"(this build reads {READABLE_EVENT_SCHEMAS})"
            )
        events: List[Event] = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventSchemaError(
                    f"{path}:{lineno}: invalid event JSON: {exc}"
                ) from exc
            events.append(Event.from_json(record))
    events.sort(key=lambda e: e.seq)
    for previous, current in zip(events, events[1:]):
        if current.seq == previous.seq:
            raise EventSchemaError(
                f"{path}: duplicate event sequence number {current.seq}"
            )
    return header, events


def get_events(obs: Optional[object]) -> EventBus:
    """Normalize an ``obs``-ish argument to its event bus (None -> null)."""
    if obs is None:
        return NULL_EVENTS
    return getattr(obs, "events", NULL_EVENTS)
