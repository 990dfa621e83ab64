"""Span tracing on the event bus: ``EventBus.span`` and its consumers.

A span is a ``<name>.start``/``<name>.finish`` event pair carrying a span
id and the parent span id of the same thread.  The Chrome-trace recorder
every enabled ``Observability`` subscribes turns spans into ``B``/``E``
pairs and other events into instants; the run manifest's ``phases`` sum
the calculator's phase spans.
"""

import threading

import pytest

import repro
from repro.cluster import single_server
from repro.core import FastTConfig, FastTSession, SearchOptions
from repro.models import get_model
from repro.obs import (
    NULL_EVENTS,
    ChromeTraceRecorder,
    EventBus,
    Observability,
    RunRegistry,
    read_event_log,
    trace_document,
    validate_trace,
)


def recorded_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    recorder = bus.subscribe(ChromeTraceRecorder())
    return bus, seen, recorder


class TestSpans:
    def test_begin_end_pair(self):
        bus, seen, recorder = recorded_bus()
        with bus.span("work", graph="g") as span:
            span.set(makespan=2.0)
        start, finish = seen
        assert (start.kind, finish.kind) == ("work.start", "work.finish")
        assert start.data == {"span": start.data["span"], "parent": None,
                              "graph": "g"}
        assert finish.data["span"] == start.data["span"]
        assert finish.data["makespan"] == 2.0
        assert finish.data["seconds"] >= 0.0
        assert [e["ph"] for e in recorder.events] == ["B", "E"]
        assert recorder.events[0]["name"] == "work"

    def test_span_context_manager(self):
        bus, seen, recorder = recorded_bus()
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        starts = {e.kind: e.data for e in seen if e.kind.endswith(".start")}
        assert starts["outer.start"]["parent"] is None
        assert starts["inner.start"]["parent"] == starts["outer.start"]["span"]
        names = [(e["ph"], e["name"]) for e in recorder.events]
        assert names == [
            ("B", "outer"), ("B", "inner"), ("E", "inner"), ("E", "outer"),
        ]

    def test_finish_emitted_and_balanced_when_block_raises(self):
        bus, seen, recorder = recorded_bus()
        with pytest.raises(KeyError):
            with bus.span("outer"):
                with bus.span("inner"):
                    raise KeyError("boom")
        assert [e.kind for e in seen] == [
            "outer.start", "inner.start", "inner.finish", "outer.finish",
        ]
        assert seen[2].data["error"] == "KeyError"
        assert validate_trace(trace_document(recorder.events))["spans"] == 2
        # The parent chain unwound: a new span is a root again.
        with bus.span("after"):
            pass
        assert seen[-2].data["parent"] is None

    def test_timestamps_monotonic_nondecreasing(self):
        bus, _, recorder = recorded_bus()
        for _ in range(5):
            with bus.span("s"):
                pass
        ts = [e["ts"] for e in recorder.events]
        assert ts == sorted(ts)


class TestInstantAndCounter:
    def test_instant_event(self):
        bus, _, recorder = recorded_bus()
        bus.emit("round.rollback", round=1)
        bus.emit("dpos.progress", placed=3, total=8)  # high rate: skipped
        (event,) = recorder.events
        assert event["ph"] == "i"
        assert event["name"] == "round.rollback"
        assert event["args"] == {"round": 1}


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_EVENTS.enabled is False
        with NULL_EVENTS.span("anything", graph="g") as span:
            span.set(makespan=1.0)
        assert Observability(enabled=False).export_chrome_trace("x") is None

    def test_shared_span_context(self):
        assert NULL_EVENTS.span("a") is NULL_EVENTS.span("b", x=1)


def test_threads_keep_separate_parent_chains():
    obs = Observability()
    spec = get_model("lenet")
    config = FastTConfig(
        max_rounds=2, min_rounds=1, search=SearchOptions(max_candidate_ops=2)
    )
    session = FastTSession(
        spec.builder, single_server(2), spec.global_batch, config=config,
        model_name="lenet", obs=obs,
    )
    starts = {}

    def on_event(event):
        if event.kind.endswith(".start"):
            starts[event.data["span"]] = (threading.get_ident(), event)

    obs.events.subscribe(on_event)
    barrier = threading.Barrier(2)
    errors = []

    def search():
        try:
            barrier.wait()
            session.optimize(context=session.new_context())
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=search) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors

    roots = [e for _, e in starts.values() if e.kind == "calculator.run.start"]
    assert len(roots) == 2
    for thread_id, event in starts.values():
        parent = event.data["parent"]
        if parent is not None:
            assert starts[parent][0] == thread_id, event.kind
    counts = validate_trace(trace_document(obs.trace.events))
    assert counts["spans"] == len(starts)


def test_recorded_run_phases_sum_the_calculator_spans(tmp_path):
    result = repro.optimize("lenet", single_server(2), run_dir=str(tmp_path))
    manifest = RunRegistry(str(tmp_path)).load(result.run_id)
    assert {"profile", "search", "measure"} <= set(manifest.phases)
    events = read_event_log(manifest.artifact_path(result.run_dir, "events"))
    for phase, seconds in manifest.phases.items():
        spans = [
            e.data["seconds"] for e in events
            if e.kind == f"calculator.{phase}.finish"
        ]
        assert spans and seconds == pytest.approx(sum(spans))
