"""Chrome-trace-format (``chrome://tracing`` / Perfetto) JSON export.

Two timeline sources share this module:

* a **wall-clock** recording of the strategy-search workflow (rounds,
  profiling, candidate evaluation): :class:`ChromeTraceRecorder`
  subscribes to an :class:`~repro.obs.events.EventBus` and turns its
  spans into ``B``/``E`` pairs and its other events into ``i`` instants;
* a **simulated-time** :class:`~repro.profiling.trace.StepTrace` of one
  training iteration, converted by :func:`step_trace_events` — one row
  per device (kernel spans plus ready-queue wait spans) and one row per
  transfer channel.

Wall-clock recordings are ``B``/``E`` begin-end pairs; simulated rows
are ``X`` complete events (``ts`` + ``dur``), because a wait span ends
at the exact instant its op starts and stack-paired ``B``/``E`` events
cannot express that adjacency without crossing.  Both, plus ``i``
instants and ``C`` counter samples, are the exact subset both viewers
load; :func:`validate_trace` structurally checks a trace file the same
way the golden tests and the CI smoke step do.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Sequence, Tuple, Union

from ..profiling.trace import StepTrace
from .events import Event

_US = 1_000_000.0

JsonEvent = Dict[str, object]


def trace_document(events: Sequence[JsonEvent]) -> Dict[str, object]:
    """Wrap events in the JSON-object trace container both viewers load."""
    return {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_trace(path: str, events: Sequence[JsonEvent]) -> str:
    """Write one trace file; returns ``path`` for chaining."""
    with open(path, "w") as handle:
        json.dump(trace_document(events), handle, indent=1)
    return path


# ---------------------------------------------------------------------------
# Event bus -> chrome events (wall clock)
# ---------------------------------------------------------------------------
class ChromeTraceRecorder:
    """Event-bus subscriber keeping the run's wall-clock timeline.

    A span's ``.start``/``.finish`` events become a ``B``/``E`` pair
    named after the span; any other event becomes an ``i`` instant,
    except the high-rate ``*.progress`` samples.  Each thread gets its
    own row (``tid``), so concurrent searches on one bus nest correctly.
    Timestamps are the bus's, in microseconds.
    """

    def __init__(self) -> None:
        self.events: List[JsonEvent] = []

    def __call__(self, event: Event) -> None:
        kind = event.kind
        if "span" in event.data and kind.endswith((".start", ".finish")):
            name, _, edge = kind.rpartition(".")
            phase = "B" if edge == "start" else "E"
        elif kind.endswith(".progress"):
            return
        else:
            name, phase = kind, "i"
        record: JsonEvent = {
            "name": name, "cat": name.split(".", 1)[0], "ph": phase,
            "ts": event.ts * _US, "pid": "repro",
            "tid": threading.get_ident(), "args": event.data,
        }
        if phase == "i":
            record["s"] = "t"
        self.events.append(record)


# ---------------------------------------------------------------------------
# StepTrace -> chrome events (simulated time)
# ---------------------------------------------------------------------------
def step_trace_events(
    trace: StepTrace, pid: str = "sim", include_waits: bool = True
) -> List[JsonEvent]:
    """Render one simulated iteration as a visual timeline.

    Per-device rows carry the kernel spans; when the trace recorded
    ready-queue times, the gap between an op becoming ready and starting
    is rendered as a ``wait:`` span on the same row, so queueing delay is
    visible exactly where the paper's order-enforcement argument says it
    matters.  Transfers get one row per channel (falling back to the
    ``src->dst`` pair when the simulator did not record the channel).

    All spans are ``X`` complete events: a wait ends at the exact
    instant its op starts, an adjacency stack-paired ``B``/``E`` events
    would render crossed.
    """
    events: List[JsonEvent] = []
    for rec in trace.op_records:
        ready = getattr(rec, "ready", None)
        if include_waits and ready is not None and rec.start - ready > 0.0:
            events.append({
                "name": f"wait:{rec.op_name}", "cat": "ready-queue",
                "ph": "X", "ts": ready * _US,
                "dur": (rec.start - ready) * _US,
                "pid": pid, "tid": rec.device,
            })
        events.append({
            "name": rec.op_name, "cat": f"compute:{rec.op_type}",
            "ph": "X", "ts": rec.start * _US, "dur": rec.duration * _US,
            "pid": pid, "tid": rec.device,
            "args": {"op_type": rec.op_type, "duration_s": rec.duration},
        })
    for rec in trace.transfer_records:
        channel = getattr(rec, "channel", "") or f"{rec.src_device}->{rec.dst_device}"
        events.append({
            "name": rec.tensor_name, "cat": "transfer",
            "ph": "X", "ts": rec.start * _US, "dur": rec.duration * _US,
            "pid": pid, "tid": f"channel {channel}",
            "args": {
                "src": rec.src_device, "dst": rec.dst_device,
                "bytes": rec.num_bytes,
            },
        })
    if trace.peak_memory:
        events.append({
            "name": "peak memory (bytes)", "ph": "C",
            "ts": trace.makespan * _US, "pid": pid, "tid": 0,
            "args": {dev: int(v) for dev, v in sorted(trace.peak_memory.items())},
        })
    events.sort(key=lambda e: (e["ts"], 0 if e["ph"] != "E" else 1))
    return events


def export_step_trace(path: str, trace: StepTrace, pid: str = "sim") -> str:
    """Write one StepTrace as a Perfetto-loadable trace file."""
    return write_trace(path, step_trace_events(trace, pid=pid))


# ---------------------------------------------------------------------------
# Structural validation (golden tests + CI smoke)
# ---------------------------------------------------------------------------
class TraceValidationError(ValueError):
    """A trace file is not a structurally valid Chrome trace."""


_REQUIRED_PHASES = {"B", "E", "i", "C", "X", "M"}


def validate_trace(source: Union[str, Dict[str, object]]) -> Dict[str, int]:
    """Check a trace file/object loads and is viewer-consumable.

    Verifies: valid JSON with a ``traceEvents`` list, every event has a
    known phase and numeric non-negative ``ts``, timestamps on each
    ``(pid, tid)`` track are monotonically non-decreasing, ``X`` events
    carry a numeric non-negative ``dur``, and ``B``/``E`` events pair up
    (properly nested, none left open).  Kernel spans (``X`` events whose
    ``cat`` starts with ``compute``) must not overlap on one device row —
    the simulator's devices execute serially — and likewise transfer
    spans on one channel row; ready-queue wait spans legitimately overlap
    other ops' kernels and are exempt.  Returns summary counts; raises
    :class:`TraceValidationError` on the first violation.
    """
    if isinstance(source, str):
        try:
            with open(source) as handle:
                document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceValidationError(f"{source}: invalid JSON: {exc}") from exc
    else:
        document = source
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise TraceValidationError("trace must be an object with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise TraceValidationError("'traceEvents' must be a non-empty list")

    last_ts: Dict[tuple, float] = {}
    stacks: Dict[tuple, List[str]] = {}
    # (pid, tid, serial-class) -> end of the last such X span, to reject
    # overlapping kernels on a device row / copies on a channel row.
    last_span_end: Dict[tuple, Tuple[float, str]] = {}
    counts = {"events": 0, "spans": 0, "instants": 0, "counters": 0}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceValidationError(f"event {index} is not an object")
        phase = event.get("ph")
        if phase not in _REQUIRED_PHASES:
            raise TraceValidationError(f"event {index}: unknown phase {phase!r}")
        if phase == "M":  # metadata events carry no timestamp
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TraceValidationError(f"event {index}: bad ts {ts!r}")
        if "pid" not in event or "tid" not in event:
            raise TraceValidationError(f"event {index}: missing pid/tid")
        track = (event["pid"], event["tid"])
        if ts < last_ts.get(track, 0.0):
            raise TraceValidationError(
                f"event {index}: ts {ts} goes backwards on track {track}"
            )
        last_ts[track] = float(ts)
        counts["events"] += 1
        if phase == "B":
            name = event.get("name")
            if not isinstance(name, str) or not name:
                raise TraceValidationError(f"event {index}: B without a name")
            stacks.setdefault(track, []).append(name)
        elif phase == "E":
            stack = stacks.get(track)
            if not stack:
                raise TraceValidationError(
                    f"event {index}: E without matching B on track {track}"
                )
            stack.pop()
            counts["spans"] += 1
        elif phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceValidationError(f"event {index}: bad dur {dur!r}")
            cat = event.get("cat")
            serial_class = None
            if isinstance(cat, str):
                if cat.startswith("compute"):
                    serial_class = "compute"
                elif cat == "transfer":
                    serial_class = "transfer"
            if serial_class is not None:
                span_key = (event["pid"], event["tid"], serial_class)
                previous = last_span_end.get(span_key)
                if previous is not None and ts < previous[0] - 1e-9:
                    raise TraceValidationError(
                        f"event {index}: {serial_class} span "
                        f"{event.get('name')!r} starts at {ts} before "
                        f"{previous[1]!r} ends at {previous[0]} on track "
                        f"{(event['pid'], event['tid'])} — serialized "
                        "rows must not overlap"
                    )
                end = float(ts) + float(dur)
                if previous is None or end > previous[0]:
                    last_span_end[span_key] = (end, str(event.get("name")))
            counts["spans"] += 1
        elif phase == "i":
            counts["instants"] += 1
        elif phase == "C":
            counts["counters"] += 1
    for track, stack in stacks.items():
        if stack:
            raise TraceValidationError(
                f"track {track}: {len(stack)} unclosed span(s), e.g. {stack[-1]!r}"
            )
    return counts


def validate_trace_dir(directory: str) -> Dict[str, Dict[str, int]]:
    """Validate every ``*.trace.json`` under ``directory`` (recursively)."""
    import os

    results: Dict[str, Dict[str, int]] = {}
    for root, _dirs, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith(".trace.json"):
                path = os.path.join(root, name)
                results[path] = validate_trace(path)
    if not results:
        raise TraceValidationError(f"no *.trace.json files under {directory}")
    return results
