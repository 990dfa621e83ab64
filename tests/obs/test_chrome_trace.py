"""Golden tests for the Chrome-trace exporter.

A hand-built deterministic StepTrace must render to exactly the expected
event stream (the golden), the document must be valid JSON that
round-trips through a file, timestamps must be monotonic per track, and
every ``B`` must have its matching ``E``.
"""

import json

import pytest

from repro.obs import (
    ChromeTraceRecorder,
    EventBus,
    TraceValidationError,
    export_step_trace,
    step_trace_events,
    trace_document,
    validate_trace,
    validate_trace_dir,
    write_trace,
)
from repro.profiling.trace import OpRecord, StepTrace, TransferRecord


def golden_step_trace() -> StepTrace:
    trace = StepTrace()
    trace.op_records = [
        OpRecord("matmul", "MatMul", "gpu0", 0.0, 2.0, ready=0.0),
        OpRecord("relu", "Relu", "gpu1", 3.0, 4.0, ready=2.0),
    ]
    trace.transfer_records = [
        TransferRecord("t0", "gpu0", "gpu1", 1024, 2.0, 3.0, channel="pcie0"),
    ]
    trace.makespan = 4.0
    trace.peak_memory = {"gpu0": 2048, "gpu1": 1024}
    return trace


#: The exact events the exporter must emit for golden_step_trace():
#: compute spans per device row, a ready-queue wait span for relu
#: (ready 2.0 -> start 3.0), the transfer on its channel row, and the
#: final peak-memory counter sample.  Spans are ``X`` complete events
#: (a wait ends exactly when its op starts, which stack-paired B/E
#: pairs would render crossed); timestamps/durations are microseconds.
GOLDEN_EVENTS = [
    {
        "name": "matmul", "cat": "compute:MatMul", "ph": "X", "ts": 0.0,
        "dur": 2_000_000.0, "pid": "sim", "tid": "gpu0",
        "args": {"op_type": "MatMul", "duration_s": 2.0},
    },
    {
        "name": "wait:relu", "cat": "ready-queue", "ph": "X",
        "ts": 2_000_000.0, "dur": 1_000_000.0, "pid": "sim", "tid": "gpu1",
    },
    {
        "name": "t0", "cat": "transfer", "ph": "X", "ts": 2_000_000.0,
        "dur": 1_000_000.0, "pid": "sim", "tid": "channel pcie0",
        "args": {"src": "gpu0", "dst": "gpu1", "bytes": 1024},
    },
    {
        "name": "relu", "cat": "compute:Relu", "ph": "X",
        "ts": 3_000_000.0, "dur": 1_000_000.0, "pid": "sim", "tid": "gpu1",
        "args": {"op_type": "Relu", "duration_s": 1.0},
    },
    {
        "name": "peak memory (bytes)", "ph": "C", "ts": 4_000_000.0,
        "pid": "sim", "tid": 0, "args": {"gpu0": 2048, "gpu1": 1024},
    },
]


class TestGolden:
    def test_step_trace_events_match_golden(self):
        assert step_trace_events(golden_step_trace()) == GOLDEN_EVENTS

    def test_golden_counts(self):
        counts = validate_trace(trace_document(GOLDEN_EVENTS))
        assert counts == {
            "events": 5, "spans": 4, "instants": 0, "counters": 1
        }

    def test_waits_can_be_suppressed(self):
        events = step_trace_events(golden_step_trace(), include_waits=False)
        assert not any(
            str(e.get("name", "")).startswith("wait:") for e in events
        )


class TestFileRoundTrip:
    def test_export_is_valid_json_and_validates(self, tmp_path):
        path = str(tmp_path / "step.trace.json")
        export_step_trace(path, golden_step_trace())
        with open(path) as handle:
            document = json.load(handle)  # must be valid JSON
        assert document["traceEvents"] == GOLDEN_EVENTS
        assert validate_trace(path)["events"] == 5

    def test_validate_trace_dir_walks_files(self, tmp_path):
        export_step_trace(
            str(tmp_path / "a.trace.json"), golden_step_trace()
        )
        results = validate_trace_dir(str(tmp_path))
        assert len(results) == 1

    def test_validate_trace_dir_empty_fails(self, tmp_path):
        with pytest.raises(TraceValidationError, match="no .*trace.json"):
            validate_trace_dir(str(tmp_path))


class TestStructuralChecks:
    def test_monotonic_timestamps_per_track(self):
        events = step_trace_events(golden_step_trace())
        last = {}
        for event in events:
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, 0.0)
            last[track] = event["ts"]

    def test_b_e_pairs_balance_in_tracer_recordings(self):
        bus = EventBus()
        recorder = bus.subscribe(ChromeTraceRecorder())
        with bus.span("round"):
            with bus.span("search"):
                pass
            with bus.span("profile"):
                pass
        events = recorder.events
        assert sum(1 for e in events if e["ph"] == "B") == sum(
            1 for e in events if e["ph"] == "E"
        )
        assert validate_trace(trace_document(events))["spans"] == 3

    def test_step_spans_carry_durations(self):
        for event in step_trace_events(golden_step_trace()):
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_x_without_dur_rejected(self):
        document = trace_document(
            [{"name": "x", "ph": "X", "ts": 0, "pid": "p", "tid": "t"}]
        )
        with pytest.raises(TraceValidationError, match="bad dur"):
            validate_trace(document)

    def test_unclosed_span_rejected(self):
        document = trace_document(
            [{"name": "x", "ph": "B", "ts": 0, "pid": "p", "tid": "t"}]
        )
        with pytest.raises(TraceValidationError, match="unclosed"):
            validate_trace(document)

    def test_backwards_ts_rejected(self):
        document = trace_document([
            {"name": "x", "ph": "B", "ts": 5, "pid": "p", "tid": "t"},
            {"ph": "E", "ts": 1, "pid": "p", "tid": "t"},
        ])
        with pytest.raises(TraceValidationError, match="backwards"):
            validate_trace(document)

    def test_unknown_phase_rejected(self):
        document = trace_document(
            [{"name": "x", "ph": "Z", "ts": 0, "pid": "p", "tid": "t"}]
        )
        with pytest.raises(TraceValidationError, match="unknown phase"):
            validate_trace(document)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text("{not json")
        with pytest.raises(TraceValidationError, match="invalid JSON"):
            validate_trace(str(path))


def overlapping_kernels_trace() -> StepTrace:
    """Failing fixture: two kernels overlap on one device.

    A device executes serially in the simulator; a trace claiming
    otherwise is corrupt and must not validate.
    """
    trace = StepTrace(makespan=3.0)
    trace.op_records = [
        OpRecord("k0", "MatMul", "gpu0", 0.0, 2.0, ready=0.0),
        OpRecord("k1", "Relu", "gpu0", 1.0, 3.0, ready=0.0),
    ]
    return trace


class TestSerialRowOverlap:
    def test_overlapping_kernels_on_one_device_rejected(self):
        document = trace_document(
            step_trace_events(overlapping_kernels_trace())
        )
        with pytest.raises(TraceValidationError, match="overlap"):
            validate_trace(document)

    def test_overlapping_kernels_on_distinct_devices_pass(self):
        trace = overlapping_kernels_trace()
        trace.op_records = [
            OpRecord("k0", "MatMul", "gpu0", 0.0, 2.0, ready=0.0),
            OpRecord("k1", "Relu", "gpu1", 1.0, 3.0, ready=1.0),
        ]
        assert validate_trace(
            trace_document(step_trace_events(trace))
        )["spans"] == 2

    def test_overlapping_transfers_on_one_channel_rejected(self):
        trace = StepTrace(makespan=3.0)
        trace.transfer_records = [
            TransferRecord("t0", "gpu0", "gpu1", 8, 0.0, 2.0, channel="nv0"),
            TransferRecord("t1", "gpu0", "gpu1", 8, 1.0, 3.0, channel="nv0"),
        ]
        with pytest.raises(TraceValidationError, match="overlap"):
            validate_trace(trace_document(step_trace_events(trace)))

    def test_wait_spans_may_overlap_kernels(self):
        # A ready-queue wait legitimately overlaps *other* ops' kernels
        # on the same device row; the golden trace contains exactly that
        # shape on gpu1 and must stay valid.
        document = trace_document(step_trace_events(golden_step_trace()))
        assert validate_trace(document)["spans"] == 4

    def test_back_to_back_kernels_pass(self):
        trace = StepTrace(makespan=2.0)
        trace.op_records = [
            OpRecord("k0", "MatMul", "gpu0", 0.0, 1.0, ready=0.0),
            OpRecord("k1", "Relu", "gpu0", 1.0, 2.0, ready=1.0),
        ]
        assert validate_trace(
            trace_document(step_trace_events(trace))
        )["spans"] == 2


class TestTracerExport:
    def test_wall_clock_tracer_round_trips(self, tmp_path):
        bus = EventBus()
        recorder = bus.subscribe(ChromeTraceRecorder())
        with bus.span("search.outer"):
            bus.emit("mark")
        path = str(tmp_path / "search.trace.json")
        write_trace(path, recorder.events)
        counts = validate_trace(path)
        assert counts["spans"] == 1
        assert counts["instants"] == 1
