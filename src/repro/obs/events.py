"""Live telemetry event bus: structured progress events for every run.

While a strategy search or a simulated step executes, the engines emit
small structured **events** — search round started/finished with the
best makespan so far, coarsening stages, DPOS placement progress,
simulator event-heap progress — onto an :class:`EventBus` carried by the
``obs=`` hook (``Observability(events=True)``).  Consumers are plain
callbacks::

    from repro.obs import Observability

    obs = Observability(events=True)
    obs.events.subscribe(lambda e: print(e.kind, e.data))
    repro.optimize("lenet", single_server(2), obs=obs)

The two built-in consumers are :class:`JsonlEventWriter` (the
``events.jsonl`` log every recorded run directory carries; see
:mod:`repro.obs.runs`) and the ``--progress`` TTY renderer
(:mod:`repro.obs.progress`).

The default everywhere is :data:`NULL_EVENTS`, whose ``emit`` is a no-op
and whose ``enabled`` flag lets hot loops skip even building the event
payload, so un-observed runs pay essentially nothing (pinned by
``tests/obs/test_run_overhead.py``).

Event kinds are dotted names.  The stable vocabulary:

====================  ====================================================
``run.start/finish``  one ``repro.optimize`` run (run id, model, makespan)
``session.input``     input-DAG choice (data-parallel vs model-parallel)
``round.*``           calculator rounds (start/finish/activate/rollback)
``phase``             wall-clock phase sample (profile/search/measure)
``search.*``          OS-DPOS (start/op/commit/finish, best-so-far)
``coarsen.*``         graph-contraction stages (merge/pack/finish)
``dpos.progress``     placement progress (placed/total)
``sim.*``             simulator (step finish, event-heap progress)
====================  ====================================================
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Version of the JSONL event-log layout (header line + one event per
#: line).  Bump when the record shape changes; readers reject unknown
#: versions instead of replaying garbage.
EVENT_SCHEMA_VERSION = 1

#: The JSONL header's discriminator value.
EVENT_LOG_KIND = "repro.events"


class EventSchemaError(ValueError):
    """A persisted event log has an unknown or malformed schema."""


@dataclass
class Event:
    """One structured progress event.

    ``seq`` is the bus's emission counter (strictly increasing per bus,
    the replay order); ``ts`` is wall-clock seconds since the bus was
    created.  ``data`` is a flat JSON-serializable payload.
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


class EventBus:
    """Synchronous fan-out of :class:`Event` to subscriber callbacks.

    Emission is deliberately minimal — build the event, call each
    subscriber in subscription order.  Subscribers must be cheap and
    must not raise (an exception propagates into the engine that
    emitted, by design: a broken sink is a bug, not a condition to
    paper over).
    """

    enabled = True

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._seq = 0
        self._epoch = time.time()
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
            event = Event(self._seq, time.time() - self._epoch, kind, data)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(event)

    @property
    def num_subscribers(self) -> int:
        return len(self._subscribers)


class NullEventBus(EventBus):
    """Do-nothing bus: the zero-cost default on every ``obs=`` hook.

    ``subscribe`` raises — attaching a consumer to a bus that will never
    emit is always a caller bug (enable events first:
    ``Observability(events=True)``).
    """

    enabled = False

    def subscribe(self, subscriber: Subscriber) -> Subscriber:  # type: ignore[override]
        raise RuntimeError(
            "cannot subscribe to the disabled event bus; construct the "
            "hook with Observability(events=True)"
        )

    def unsubscribe(self, subscriber: Subscriber) -> None:  # type: ignore[override]
        pass

    def emit(self, kind: str, **data: object) -> None:  # type: ignore[override]
        pass


#: Shared disabled bus (the ``obs.events`` default).
NULL_EVENTS = NullEventBus()


class JsonlEventWriter:
    """Subscriber streaming events to a JSONL file as they happen.

    Line 1 is a schema header (``{"schema": 1, "kind": "repro.events",
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
    shuffled by post-processing.  Raises :class:`EventSchemaError` on a
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
        if schema != EVENT_SCHEMA_VERSION:
            raise EventSchemaError(
                f"{path}: unsupported event-log schema {schema!r} "
                f"(this build reads {EVENT_SCHEMA_VERSION})"
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
