"""Tests for the live telemetry event bus (``repro.obs.events``)."""

import json
import os
import random

import pytest

import repro
from repro.cluster import single_server
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    NULL_EVENTS,
    Event,
    EventBus,
    EventSchemaError,
    JsonlEventWriter,
    NullEventBus,
    Observability,
    get_events,
    read_event_log,
)
from repro.obs.events import EVENT_LOG_KIND, read_event_log_with_header


# ----------------------------------------------------------------------
# Bus semantics
# ----------------------------------------------------------------------

def test_emit_delivers_to_subscribers_in_order():
    bus = EventBus()
    calls = []
    bus.subscribe(lambda e: calls.append(("a", e.kind)))
    bus.subscribe(lambda e: calls.append(("b", e.kind)))
    bus.emit("x", value=1)
    assert calls == [("a", "x"), ("b", "x")]


def test_seq_is_strictly_increasing_and_payload_preserved():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.emit("one", value=1)
    bus.emit("two", value=2, label="hi")
    assert [e.seq for e in seen] == [1, 2]
    assert seen[1].data == {"value": 2, "label": "hi"}
    assert seen[0].ts <= seen[1].ts


def test_unsubscribe_stops_delivery_and_ignores_unknown():
    bus = EventBus()
    seen = []
    handler = bus.subscribe(seen.append)
    bus.emit("x")
    bus.unsubscribe(handler)
    bus.unsubscribe(handler)  # unknown now: ignored
    bus.emit("y")
    assert [e.kind for e in seen] == ["x"]
    assert bus.num_subscribers == 0


def test_subscriber_exceptions_propagate():
    bus = EventBus()

    def bad(event):
        raise RuntimeError("sink broke")

    bus.subscribe(bad)
    with pytest.raises(RuntimeError, match="sink broke"):
        bus.emit("x")


def test_null_bus_is_disabled_and_subscribe_raises():
    assert NULL_EVENTS.enabled is False
    assert isinstance(NULL_EVENTS, NullEventBus)
    NULL_EVENTS.emit("anything", payload=1)  # no-op
    NULL_EVENTS.unsubscribe(lambda e: None)  # no-op
    with pytest.raises(RuntimeError, match="disabled event bus"):
        NULL_EVENTS.subscribe(lambda e: None)


def test_get_events_normalizes():
    assert get_events(None) is NULL_EVENTS
    assert get_events(object()) is NULL_EVENTS
    obs = Observability()
    assert get_events(obs) is obs.events


def test_observability_events_flag():
    # An enabled hook always carries a live bus; the flag is gone.
    assert Observability().events.enabled
    assert Observability().events is not Observability().events
    assert Observability(enabled=False).events is NULL_EVENTS
    with pytest.raises(TypeError):
        Observability(events=True)
    with pytest.raises(TypeError):
        Observability(tracer=None)


# ----------------------------------------------------------------------
# JSONL persistence + replay
# ----------------------------------------------------------------------

def test_writer_roundtrip(tmp_path):
    path = str(tmp_path / "events.jsonl")
    bus = EventBus()
    writer = JsonlEventWriter(path, run_id="r1")
    bus.subscribe(writer)
    bus.emit("alpha", value=1)
    bus.emit("beta", nested=0.5)
    writer.close()
    assert writer.count == 2

    header, events = read_event_log_with_header(path)
    assert header["schema"] == EVENT_SCHEMA_VERSION
    assert header["kind"] == EVENT_LOG_KIND
    assert header["run_id"] == "r1"
    assert [e.kind for e in events] == ["alpha", "beta"]
    assert events[0].data == {"value": 1}


def test_replay_order_reestablished_from_shuffled_lines(tmp_path):
    path = str(tmp_path / "events.jsonl")
    writer = JsonlEventWriter(path)
    for i in range(20):
        writer(Event(seq=i + 1, ts=float(i), kind=f"k{i}"))
    writer.close()
    with open(path) as handle:
        header_line, *lines = handle.readlines()
    random.Random(7).shuffle(lines)
    with open(path, "w") as handle:
        handle.writelines([header_line] + lines)

    events = read_event_log(path)
    assert [e.seq for e in events] == list(range(1, 21))
    assert [e.kind for e in events] == [f"k{i}" for i in range(20)]


def test_reader_rejects_unknown_schema(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps(
            {"schema": EVENT_SCHEMA_VERSION + 1, "kind": EVENT_LOG_KIND}
        ) + "\n")
    with pytest.raises(EventSchemaError, match="unsupported"):
        read_event_log(path)


def test_reader_rejects_wrong_kind_and_empty(tmp_path):
    wrong = str(tmp_path / "wrong.jsonl")
    with open(wrong, "w") as handle:
        handle.write(json.dumps({"schema": 1, "kind": "other"}) + "\n")
    with pytest.raises(EventSchemaError, match="not an event log"):
        read_event_log(wrong)

    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    with pytest.raises(EventSchemaError, match="empty"):
        read_event_log(empty)


def test_reader_rejects_duplicate_seq_and_malformed(tmp_path):
    path = str(tmp_path / "dup.jsonl")
    writer = JsonlEventWriter(path)
    writer(Event(seq=1, ts=0.0, kind="a"))
    writer(Event(seq=1, ts=0.1, kind="b"))
    writer.close()
    with pytest.raises(EventSchemaError, match="duplicate"):
        read_event_log(path)

    bad = str(tmp_path / "bad.jsonl")
    writer = JsonlEventWriter(bad)
    writer.close()
    with open(bad, "a") as handle:
        handle.write('{"seq": "nope"}\n')
    with pytest.raises(EventSchemaError, match="malformed"):
        read_event_log(bad)


# ----------------------------------------------------------------------
# End to end: an optimize run emits the documented vocabulary
# ----------------------------------------------------------------------

def test_optimize_emits_stable_vocabulary():
    obs = Observability()
    seen = []
    obs.events.subscribe(seen.append)
    repro.optimize("lenet", single_server(2), obs=obs)

    kinds = {e.kind for e in seen}
    for expected in (
        "run.start", "run.finish", "session.input",
        "round.start", "round.finish",
        "calculator.run.start", "calculator.run.finish",
        "calculator.profile.finish", "calculator.search.finish",
        "calculator.measure.finish",
        "search.osdpos.start", "search.osdpos.finish",
        "search.dpos.finish", "sim.step.finish", "dpos.progress",
    ):
        assert expected in kinds, f"missing {expected} in {sorted(kinds)}"
    for gone in ("phase", "search.start", "search.finish"):
        assert gone not in kinds
    # seq is the replay order and strictly increases across the run
    seqs = [e.seq for e in seen]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    rounds = [e for e in seen if e.kind == "round.finish"]
    assert all(e.data["verdict"] for e in rounds)
    finish = [e for e in seen if e.kind == "run.finish"][-1]
    assert finish.data["makespan"] > 0


# ----------------------------------------------------------------------
# Older logs
# ----------------------------------------------------------------------

V1_LOG = os.path.join(os.path.dirname(__file__), "data", "events_v1.jsonl")


def test_version_1_log_still_loads():
    header, events = read_event_log_with_header(V1_LOG)
    assert header["schema"] == 1 < EVENT_SCHEMA_VERSION
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    phases = {e.data["name"] for e in events if e.kind == "phase"}
    assert phases == {"profile", "search", "measure"}
    assert read_event_log(V1_LOG) == events
