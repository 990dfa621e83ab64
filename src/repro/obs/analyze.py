"""Trace analysis & attribution: *why* does a step take the time it takes.

The paper's whole argument is white-box: FastT can explain where a
step's time goes (Fig. 5) and why one strategy beats another (Sec. 6).
This module makes that attribution first-class over the artifacts the
rest of ``repro.obs`` already produces:

* :func:`extract_critical_path` — walk a :class:`StepTrace` backwards
  from its makespan along the simulator-recorded blocking-input edges,
  producing the blocking chain with every nanosecond of the step
  attributed to one of {compute, transfer, wait, idle};
* :func:`analyze_step` — the above plus a per-device utilization and
  overlap report (busy/stall/wait/idle partition, comm overlap,
  straggler detection) and per-channel congestion statistics;
* :func:`diff_strategies` / :func:`diff_traces` / :func:`diff_results`
  — explain *why strategy A is faster than B*: placement moves, order
  changes, split-list changes, and the makespan delta attributed to
  specific ops and path composition.

This module explains traces; it gates nothing.  The performance gate
is ``benchmarks/perf`` (end-to-end wall-clock, memory and simulated
speed) plus the exact simulated step-time pins the benchmark suite
asserts (``benchmarks/step_time_pins.json``).

CLI::

    python -m repro.obs show TRACE_DIR_OR_STEP_JSON ...
    python -m repro.obs diff A.step.json B.step.json
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..profiling.trace import OpRecord, StepTrace, TransferRecord

_EPS = 1e-12

#: The four buckets every nanosecond of a step is attributed to.
ATTRIBUTION_KINDS = ("compute", "transfer", "wait", "idle")


# ---------------------------------------------------------------------------
# Critical-path extraction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One contiguous slice of the blocking chain.

    ``kind`` is one of :data:`ATTRIBUTION_KINDS`; ``detail`` refines wait
    segments (``"ready-queue"`` vs ``"channel-queue"``) and idle segments
    (``"unexplained"`` when the walk found no recorded edge to follow).
    """

    kind: str
    start: float
    end: float
    name: str
    resource: str = ""
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The blocking chain of one step, covering ``[0, makespan]`` once.

    The walk follows only edges the simulator recorded; where one is
    missing, unparsable or dangling the chain ends, and the rest of the
    step becomes an ``idle`` segment.
    """

    segments: List[PathSegment] = field(default_factory=list)
    makespan: float = 0.0

    @property
    def exact(self) -> bool:
        """True when every slice of the step followed a recorded edge."""
        return all(seg.kind != "idle" for seg in self.segments)

    def attribution(self) -> Dict[str, float]:
        """Total seconds per kind; keys are always all four kinds."""
        totals = {kind: 0.0 for kind in ATTRIBUTION_KINDS}
        for seg in self.segments:
            totals[seg.kind] += seg.duration
        return totals

    @property
    def attributed_total(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def op_names(self) -> List[str]:
        return [s.name for s in self.segments if s.kind == "compute"]

    def to_json(self) -> Dict[str, object]:
        return {
            "makespan": self.makespan,
            "exact": self.exact,
            "attribution": self.attribution(),
            "segments": [
                {
                    "kind": s.kind,
                    "start": s.start,
                    "end": s.end,
                    "name": s.name,
                    "resource": s.resource,
                    "detail": s.detail,
                }
                for s in self.segments
            ],
        }


def _parse_blocked_by(value: str) -> Optional[Tuple[str, ...]]:
    """``"op:x"`` -> ("op", "x"); ``"transfer:t:0|a|b"`` -> (kind, t, a, b).

    Tensor and device names may themselves contain ``:``, so the
    transfer form separates its three fields with ``|``.
    """
    if value.startswith("op:"):
        return ("op", value[3:])
    if value.startswith("transfer:"):
        parts = value[len("transfer:"):].split("|")
        if len(parts) != 3 or not all(parts):
            return None
        return ("transfer", parts[0], parts[1], parts[2])
    return None


class _PathWalker:
    """Backwards walk over one trace's records along recorded edges."""

    def __init__(self, trace: StepTrace) -> None:
        self.trace = trace
        self.ops: Dict[str, OpRecord] = {r.op_name: r for r in trace.op_records}
        # Routed transfers emit one record per hop, all keyed by the
        # endpoint devices: ``transfers`` resolves blocking edges to the
        # *final* hop (the one whose arrival unblocked the consumer),
        # ``hop_chains`` keeps every hop in end order for the backwards
        # walk across intermediate channels.
        self.transfers: Dict[Tuple[str, str, str], TransferRecord] = {}
        self.hop_chains: Dict[Tuple[str, str, str], List[TransferRecord]] = {}
        for rec in sorted(trace.transfer_records, key=lambda r: (r.end, r.start)):
            key = (rec.tensor_name, rec.src_device, rec.dst_device)
            self.transfers[key] = rec
            self.hop_chains.setdefault(key, []).append(rec)

    def _transfer_predecessor(self, rec: TransferRecord) -> Optional[object]:
        """The earlier hop of the same routed transfer, else its producer."""
        anchor = rec.queued_at if rec.queued_at is not None else rec.start
        # An earlier hop ends exactly when this hop was queued on the
        # next channel.
        chain = self.hop_chains.get(
            (rec.tensor_name, rec.src_device, rec.dst_device), ()
        )
        previous_hop: Optional[TransferRecord] = None
        for cand in chain:  # sorted by end
            if cand is rec:
                continue
            if cand.end <= anchor + _EPS:
                previous_hop = cand
            else:
                break
        if previous_hop is not None:
            return previous_hop
        return self.ops.get(rec.producer)

    def walk(self) -> CriticalPath:
        trace = self.trace
        records: List[object] = list(trace.op_records) + list(
            trace.transfer_records
        )
        makespan = trace.makespan or max(
            (r.end for r in records), default=0.0  # type: ignore[attr-defined]
        )
        path = CriticalPath(makespan=makespan)
        if not records:
            if makespan > _EPS:
                path.segments.append(
                    PathSegment("idle", 0.0, makespan, "no-records")
                )
            return path

        segments: List[PathSegment] = []  # built newest-first
        current: object = max(records, key=lambda r: r.end)  # type: ignore[attr-defined]
        frontier = makespan
        visited: set = set()
        while current is not None and frontier > _EPS:
            key = id(current)
            if key in visited:  # defensive: malformed trace with a cycle
                break
            visited.add(key)
            if isinstance(current, OpRecord):
                current, frontier = self._step_op(current, frontier, segments)
            else:
                current, frontier = self._step_transfer(
                    current, frontier, segments
                )
        if frontier > _EPS:
            segments.append(
                PathSegment("idle", 0.0, frontier, "unattributed",
                            detail="unexplained")
            )
        segments.reverse()
        path.segments = segments
        return path

    def _gap(self, end: float, frontier: float,
             segments: List[PathSegment], name: str) -> float:
        """Close an unexplained gap between a record's end and the frontier."""
        if frontier > end + _EPS:
            segments.append(
                PathSegment("idle", end, frontier, name, detail="unexplained")
            )
        return min(frontier, end)

    def _step_op(
        self, rec: OpRecord, frontier: float, segments: List[PathSegment]
    ) -> Tuple[Optional[object], float]:
        frontier = self._gap(rec.end, frontier, segments, rec.op_name)
        segments.append(
            PathSegment("compute", rec.start, frontier, rec.op_name,
                        resource=rec.device, detail=rec.op_type)
        )
        frontier = rec.start
        ready = rec.ready
        if ready is not None and ready < frontier - _EPS:
            segments.append(
                PathSegment("wait", ready, frontier, rec.op_name,
                            resource=rec.device, detail="ready-queue")
            )
            frontier = ready
        parsed = _parse_blocked_by(rec.blocked_by) if rec.blocked_by else None
        if parsed is None:
            return None, frontier
        if parsed[0] == "op":
            return self.ops.get(parsed[1]), frontier
        return self.transfers.get((parsed[1], parsed[2], parsed[3])), frontier

    def _step_transfer(
        self, rec: TransferRecord, frontier: float,
        segments: List[PathSegment]
    ) -> Tuple[Optional[object], float]:
        frontier = self._gap(rec.end, frontier, segments, rec.tensor_name)
        channel = rec.channel or f"{rec.src_device}->{rec.dst_device}"
        segments.append(
            PathSegment("transfer", rec.start, frontier, rec.tensor_name,
                        resource=channel,
                        detail=f"{rec.src_device}->{rec.dst_device}")
        )
        frontier = rec.start
        queued = rec.queued_at
        if queued is not None and queued < frontier - _EPS:
            segments.append(
                PathSegment("wait", queued, frontier, rec.tensor_name,
                            resource=channel, detail="channel-queue")
            )
            frontier = queued
        return self._transfer_predecessor(rec), frontier


def extract_critical_path(trace: StepTrace) -> CriticalPath:
    """The blocking chain of one step, every nanosecond attributed.

    Walks backwards from the record finishing at the makespan, following
    each op's recorded blocking-input edge (its last-arriving input):
    kernel time becomes ``compute`` segments, in-flight copies become
    ``transfer`` segments, ready-queue and channel-queue delays become
    ``wait`` segments.  A missing, unparsable or dangling edge ends the
    chain, and the time before it becomes ``idle`` (only possible on
    degraded traces).  The segment durations sum to the makespan.
    """
    return _PathWalker(trace).walk()


# ---------------------------------------------------------------------------
# Per-device utilization & overlap
# ---------------------------------------------------------------------------
@dataclass
class DeviceReport:
    """Where device ``device`` spent ``[0, makespan]``.

    The four breakdown fields partition the step exactly:
    ``compute`` (kernel running) + ``transfer`` (idle, stalled on an
    in-flight inbound copy) + ``wait`` (idle mid-step, stalled on remote
    compute) + ``idle`` (tail slack after the device's last kernel)
    equals the step makespan.
    """

    device: str
    makespan: float
    compute: float = 0.0
    transfer: float = 0.0
    wait: float = 0.0
    idle: float = 0.0
    comm_overlap: float = 0.0
    queue_wait: float = 0.0
    num_ops: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def breakdown(self) -> Dict[str, float]:
        return {
            "compute": self.compute,
            "transfer": self.transfer,
            "wait": self.wait,
            "idle": self.idle,
        }

    @property
    def busy_fraction(self) -> float:
        return self.compute / self.makespan if self.makespan else 0.0

    @property
    def overlap_fraction(self) -> float:
        """Fraction of kernel time overlapped with communication."""
        return self.comm_overlap / self.compute if self.compute else 0.0

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {"device": self.device,
                                   "makespan": self.makespan}
        data.update(self.breakdown())
        data.update(
            comm_overlap=self.comm_overlap,
            queue_wait=self.queue_wait,
            num_ops=self.num_ops,
            bytes_in=self.bytes_in,
            bytes_out=self.bytes_out,
            busy_fraction=self.busy_fraction,
        )
        return data


@dataclass
class ChannelReport:
    """Congestion statistics of one shared transfer channel."""

    channel: str
    makespan: float
    busy: float = 0.0
    queue_wait: float = 0.0
    num_transfers: int = 0
    num_bytes: int = 0

    @property
    def utilization(self) -> float:
        return self.busy / self.makespan if self.makespan else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "channel": self.channel,
            "busy": self.busy,
            "queue_wait": self.queue_wait,
            "num_transfers": self.num_transfers,
            "num_bytes": self.num_bytes,
            "utilization": self.utilization,
        }


def _merge_intervals(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for a, b in sorted(spans):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _overlap(a: float, b: float, union: List[Tuple[float, float]]) -> float:
    total = 0.0
    for x, y in union:
        if y <= a:
            continue
        if x >= b:
            break
        total += min(b, y) - max(a, x)
    return total


def _uncovered(
    a: float, b: float, union: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    pieces: List[Tuple[float, float]] = []
    cursor = a
    for x, y in union:
        if y <= a:
            continue
        if x >= b:
            break
        if x > cursor:
            pieces.append((cursor, x))
        cursor = max(cursor, y)
    if cursor < b:
        pieces.append((cursor, b))
    return pieces


def analyze_utilization(
    trace: StepTrace,
) -> Tuple[List[DeviceReport], List[ChannelReport]]:
    """Per-device time partition and per-channel congestion of one step."""
    makespan = trace.makespan
    devices = trace.device_names()
    kernel: Dict[str, List[Tuple[float, float]]] = {d: [] for d in devices}
    for rec in trace.op_records:
        kernel[rec.device].append((rec.start, rec.end))
    inbound: Dict[str, List[Tuple[float, float]]] = {d: [] for d in devices}
    touching: Dict[str, List[Tuple[float, float]]] = {d: [] for d in devices}
    bytes_in: Dict[str, int] = {d: 0 for d in devices}
    bytes_out: Dict[str, int] = {d: 0 for d in devices}
    # Routed transfers record one span per hop with the same endpoint
    # devices and byte count; the hop spans union into the transfer's
    # in-flight window, but the bytes must count once per logical
    # transfer, not once per channel crossed.
    counted: set = set()
    for rec in trace.transfer_records:
        inbound[rec.dst_device].append((rec.start, rec.end))
        touching[rec.dst_device].append((rec.start, rec.end))
        touching[rec.src_device].append((rec.start, rec.end))
        key = (rec.tensor_name, rec.src_device, rec.dst_device)
        if key in counted:
            continue
        counted.add(key)
        bytes_in[rec.dst_device] += rec.num_bytes
        bytes_out[rec.src_device] += rec.num_bytes

    reports: List[DeviceReport] = []
    for dev in devices:
        report = DeviceReport(device=dev, makespan=makespan,
                              bytes_in=bytes_in[dev], bytes_out=bytes_out[dev])
        busy = _merge_intervals(kernel[dev])
        in_union = _merge_intervals(inbound[dev])
        touch_union = _merge_intervals(touching[dev])
        report.compute = sum(b - a for a, b in busy)
        report.num_ops = len(kernel[dev])
        report.queue_wait = sum(
            r.queue_wait for r in trace.op_records if r.device == dev
        )
        report.comm_overlap = sum(
            _overlap(a, b, touch_union) for a, b in busy
        )
        last_end = busy[-1][1] if busy else 0.0
        # Idle gaps: complement of the kernel union in [0, makespan].
        gaps: List[Tuple[float, float]] = []
        cursor = 0.0
        for a, b in busy:
            if a > cursor:
                gaps.append((cursor, a))
            cursor = b
        if makespan > cursor:
            gaps.append((cursor, makespan))
        for a, b in gaps:
            report.transfer += _overlap(a, b, in_union)
            for x, y in _uncovered(a, b, in_union):
                if x < last_end:
                    report.wait += min(y, last_end) - x
                if y > last_end:
                    report.idle += y - max(x, last_end)
        reports.append(report)

    channels: Dict[str, ChannelReport] = {}
    for rec in trace.transfer_records:
        name = rec.channel or f"{rec.src_device}->{rec.dst_device}"
        chan = channels.setdefault(name, ChannelReport(name, makespan))
        chan.busy += rec.duration
        chan.queue_wait += rec.channel_wait
        chan.num_transfers += 1
        chan.num_bytes += rec.num_bytes
    return reports, sorted(channels.values(), key=lambda c: c.channel)


# ---------------------------------------------------------------------------
# Whole-step analysis
# ---------------------------------------------------------------------------
@dataclass
class StepAnalysis:
    """Everything the analyzer knows about one simulated step."""

    makespan: float
    critical_path: CriticalPath
    devices: List[DeviceReport]
    channels: List[ChannelReport]
    label: str = ""

    @property
    def straggler(self) -> Optional[str]:
        """The device whose last kernel ends the step (max compute end)."""
        busiest = max(self.devices, key=lambda d: d.compute, default=None)
        return busiest.device if busiest else None

    @property
    def imbalance(self) -> float:
        """Max over mean per-device compute time (1.0 = perfectly even)."""
        loads = [d.compute for d in self.devices if d.num_ops]
        if not loads:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    def to_json(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "makespan": self.makespan,
            "imbalance": self.imbalance,
            "straggler": self.straggler,
            "critical_path": self.critical_path.to_json(),
            "devices": [d.to_json() for d in self.devices],
            "channels": [c.to_json() for c in self.channels],
        }

    def render(self) -> str:
        from .report import render_analysis

        return render_analysis(self)


def analyze_step(trace: StepTrace, label: str = "") -> StepAnalysis:
    """Critical path + utilization + congestion for one step trace."""
    devices, channels = analyze_utilization(trace)
    return StepAnalysis(
        makespan=trace.makespan,
        critical_path=extract_critical_path(trace),
        devices=devices,
        channels=channels,
        label=label,
    )


# ---------------------------------------------------------------------------
# Strategy & trace diffing ("why is A faster than B")
# ---------------------------------------------------------------------------
@dataclass
class StrategyDiff:
    """Structural differences between two strategies."""

    moved: List[Tuple[str, str, str]] = field(default_factory=list)
    only_a: List[str] = field(default_factory=list)
    only_b: List[str] = field(default_factory=list)
    order_changes: List[Tuple[str, int, int]] = field(default_factory=list)
    splits_added: List[str] = field(default_factory=list)
    splits_removed: List[str] = field(default_factory=list)
    splits_changed: List[str] = field(default_factory=list)
    #: Op name -> provenance-journal citations ("A: ...", "B: ...")
    #: explaining the divergence; filled by :func:`diff_results` when
    #: either side recorded a journal.
    citations: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not (
            self.moved or self.only_a or self.only_b or self.order_changes
            or self.splits_added or self.splits_removed or self.splits_changed
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "moved": [list(m) for m in self.moved],
            "only_a": self.only_a,
            "only_b": self.only_b,
            "order_changes": [list(c) for c in self.order_changes],
            "splits_added": self.splits_added,
            "splits_removed": self.splits_removed,
            "splits_changed": self.splits_changed,
            "citations": {k: list(v) for k, v in sorted(self.citations.items())},
        }


def diff_strategies(a, b) -> StrategyDiff:
    """Placement/order/split differences between two ``Strategy`` objects.

    Duck-typed: anything with ``placement``, ``order`` and ``split_list``
    attributes works, so deserialized strategy dumps diff too.
    """
    diff = StrategyDiff()
    pa, pb = dict(a.placement), dict(b.placement)
    diff.only_a = sorted(set(pa) - set(pb))
    diff.only_b = sorted(set(pb) - set(pa))
    diff.moved = sorted(
        (name, pa[name], pb[name])
        for name in set(pa) & set(pb)
        if pa[name] != pb[name]
    )
    rank_a = {name: i for i, name in enumerate(getattr(a, "order", []) or [])}
    rank_b = {name: i for i, name in enumerate(getattr(b, "order", []) or [])}
    for name in sorted(set(rank_a) & set(rank_b)):
        if rank_a[name] != rank_b[name]:
            diff.order_changes.append((name, rank_a[name], rank_b[name]))
    splits_a = {
        d.op_name: (d.dim, d.num_splits)
        for d in getattr(a, "split_list", []) or []
    }
    splits_b = {
        d.op_name: (d.dim, d.num_splits)
        for d in getattr(b, "split_list", []) or []
    }
    diff.splits_removed = sorted(set(splits_a) - set(splits_b))
    diff.splits_added = sorted(set(splits_b) - set(splits_a))
    diff.splits_changed = sorted(
        name for name in set(splits_a) & set(splits_b)
        if splits_a[name] != splits_b[name]
    )
    return diff


@dataclass
class OpDelta:
    """One op's contribution to the makespan delta between two traces."""

    op_name: str
    device_a: Optional[str]
    device_b: Optional[str]
    duration_a: float
    duration_b: float
    on_path_a: bool = False
    on_path_b: bool = False

    @property
    def moved(self) -> bool:
        return (
            self.device_a is not None
            and self.device_b is not None
            and self.device_a != self.device_b
        )

    @property
    def delta(self) -> float:
        return self.duration_b - self.duration_a

    def to_json(self) -> Dict[str, object]:
        return {
            "op_name": self.op_name,
            "device_a": self.device_a,
            "device_b": self.device_b,
            "duration_a": self.duration_a,
            "duration_b": self.duration_b,
            "moved": self.moved,
            "on_path_a": self.on_path_a,
            "on_path_b": self.on_path_b,
        }


@dataclass
class TraceDiff:
    """Attribution of the makespan delta between two step traces."""

    analysis_a: StepAnalysis
    analysis_b: StepAnalysis
    strategy: Optional[StrategyDiff] = None
    op_deltas: List[OpDelta] = field(default_factory=list)

    @property
    def makespan_delta(self) -> float:
        return self.analysis_b.makespan - self.analysis_a.makespan

    @property
    def speedup(self) -> float:
        """How much faster B's step is than A's (>1 means B wins)."""
        if not self.analysis_b.makespan:
            return float("inf")
        return self.analysis_a.makespan / self.analysis_b.makespan

    def attribution_delta(self) -> Dict[str, float]:
        """Per-kind critical-path delta (B minus A)."""
        attr_a = self.analysis_a.critical_path.attribution()
        attr_b = self.analysis_b.critical_path.attribution()
        return {kind: attr_b[kind] - attr_a[kind] for kind in ATTRIBUTION_KINDS}

    def top_movers(self, limit: int = 10) -> List[OpDelta]:
        """Ops explaining the delta: moved/split ops and path members
        first, then by absolute duration change."""
        return sorted(
            self.op_deltas,
            key=lambda d: (
                not (d.moved or d.on_path_a or d.on_path_b),
                -abs(d.delta),
            ),
        )[:limit]

    def to_json(self) -> Dict[str, object]:
        return {
            "makespan_a": self.analysis_a.makespan,
            "makespan_b": self.analysis_b.makespan,
            "makespan_delta": self.makespan_delta,
            "speedup": self.speedup,
            "attribution_delta": self.attribution_delta(),
            "strategy": self.strategy.to_json() if self.strategy else None,
            "top_movers": [d.to_json() for d in self.top_movers()],
            "a": self.analysis_a.to_json(),
            "b": self.analysis_b.to_json(),
        }

    def render(self) -> str:
        from .report import render_diff

        return render_diff(self)


def diff_traces(
    trace_a: StepTrace,
    trace_b: StepTrace,
    strategy_diff: Optional[StrategyDiff] = None,
    label_a: str = "A",
    label_b: str = "B",
) -> TraceDiff:
    """Re-attribute the makespan delta between two steps to specific ops."""
    analysis_a = analyze_step(trace_a, label=label_a)
    analysis_b = analyze_step(trace_b, label=label_b)
    ops_a = {r.op_name: r for r in trace_a.op_records}
    ops_b = {r.op_name: r for r in trace_b.op_records}
    path_a = set(analysis_a.critical_path.op_names())
    path_b = set(analysis_b.critical_path.op_names())
    deltas: List[OpDelta] = []
    for name in sorted(set(ops_a) | set(ops_b)):
        rec_a, rec_b = ops_a.get(name), ops_b.get(name)
        deltas.append(
            OpDelta(
                op_name=name,
                device_a=rec_a.device if rec_a else None,
                device_b=rec_b.device if rec_b else None,
                duration_a=rec_a.duration if rec_a else 0.0,
                duration_b=rec_b.duration if rec_b else 0.0,
                on_path_a=name in path_a,
                on_path_b=name in path_b,
            )
        )
    return TraceDiff(
        analysis_a=analysis_a,
        analysis_b=analysis_b,
        strategy=strategy_diff,
        op_deltas=deltas,
    )


def _result_journal(result):
    """The provenance journal an OptimizeResult's session recorded."""
    obs = getattr(getattr(result, "session", None), "obs", None)
    return getattr(getattr(obs, "provenance", None), "journal", None)


def cite_divergences(diff: StrategyDiff, journal_a, journal_b) -> None:
    """Fill ``diff.citations`` from the two sides' provenance journals.

    For every moved op and every split divergence, asks each side's
    journal why it decided what it decided, so the strategy diff names
    the journal entries that caused the divergence.
    """
    interesting = [name for name, _, _ in diff.moved]
    interesting += diff.splits_added + diff.splits_removed + diff.splits_changed
    for name in interesting:
        lines: List[str] = []
        for side, journal in (("A", journal_a), ("B", journal_b)):
            if journal is None:
                continue
            cite = journal.cite(name)
            if cite is not None:
                lines.append(f"{side}: {cite}")
        if lines:
            diff.citations[name] = lines


def diff_results(result_a, result_b, steps: int = 1) -> TraceDiff:
    """Diff two ``OptimizeResult``s: re-simulate both strategies and
    attribute the makespan delta (``OptimizeResult.diff`` calls this).

    When either side was run with provenance recording enabled, the
    structural diff also carries journal citations explaining each
    divergence (``diff.strategy.citations``)."""
    trace_a = result_a.session.run(steps)[-1]
    trace_b = result_b.session.run(steps)[-1]
    strategy_diff = diff_strategies(result_a.strategy, result_b.strategy)
    cite_divergences(
        strategy_diff, _result_journal(result_a), _result_journal(result_b)
    )
    return diff_traces(
        trace_a,
        trace_b,
        strategy_diff=strategy_diff,
        label_a=f"{result_a.model_name}/{result_a.strategy.label}",
        label_b=f"{result_b.model_name}/{result_b.strategy.label}",
    )
