"""Step traces: the reproduction's analogue of TensorFlow RunMetadata.

Each simulated training iteration yields a :class:`StepTrace` of per-op
execution records and per-tensor transfer records.  FastT's cost models
are fitted *only* from these traces (Sec. 4, Cost Models), never from
the ground-truth hardware model.

The simulator stores a step as :class:`TraceColumns` — parallel lists
of integer ids and times — and the cost models read those columns in
one pass.  :class:`OpRecord`/:class:`TransferRecord` objects are built
only when a reader asks for ``op_records``/``transfer_records`` (the
analyzer, the Chrome trace, calibration, serialization).

Traces serialize to a versioned JSON document (``StepTrace.save`` /
``StepTrace.load``) so the analysis layer (``repro.obs.analyze``) works
on traces read back from disk, not just on live objects.  The document
persists ``queued_at``/``started_at`` per op, the blocking-input edge
the simulator recorded, and transfer queue times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Version of the ``*.step.json`` serialization.  v1: op records carried
#: only ``started_at``/``finished_at``.  v2: ops persist ``queued_at``
#: (ready-queue entry) and ``blocked_by`` (the input event that made the
#: op ready), transfers persist ``queued_at`` (channel-queue entry) and
#: ``producer`` — everything critical-path extraction needs to be exact.
TRACE_SCHEMA_VERSION = 2


class TraceSchemaError(ValueError):
    """A serialized StepTrace has an unknown or malformed schema."""


@dataclass(frozen=True)
class OpRecord:
    """One kernel execution.

    ``ready`` is the simulated time the op's last input became available
    (it entered the device's ready queue); ``start - ready`` is therefore
    the ready-queue wait the Chrome-trace exporter renders.  ``None`` on
    records produced before waits were tracked.

    ``blocked_by`` names the input event whose arrival made the op ready
    — ``"op:<name>"`` for a same-device producer, or
    ``"transfer:<tensor>|<src>|<dst>"`` for an inter-device copy (``|``
    separators because tensor and device names contain ``:``); ``None``
    for source ops (ready at t=0) or on records produced before blocking
    edges were tracked.  Critical-path extraction follows these edges.
    """

    op_name: str
    op_type: str
    device: str
    start: float
    end: float
    ready: Optional[float] = None
    blocked_by: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def queued_at(self) -> Optional[float]:
        """Alias of ``ready``: when the op entered the ready queue."""
        return self.ready

    @property
    def started_at(self) -> float:
        """Alias of ``start`` (the serialized field name)."""
        return self.start

    @property
    def finished_at(self) -> float:
        """Alias of ``end`` (the serialized field name)."""
        return self.end

    @property
    def queue_wait(self) -> float:
        """Seconds spent ready-but-not-running (0 when untracked)."""
        if self.ready is None:
            return 0.0
        return max(0.0, self.start - self.ready)

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "op_name": self.op_name,
            "op_type": self.op_type,
            "device": self.device,
            "started_at": self.start,
            "finished_at": self.end,
        }
        if self.ready is not None:
            data["queued_at"] = self.ready
        if self.blocked_by is not None:
            data["blocked_by"] = self.blocked_by
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "OpRecord":
        return cls(
            op_name=str(data["op_name"]),
            op_type=str(data.get("op_type", "")),
            device=str(data["device"]),
            start=float(data["started_at"]),  # type: ignore[arg-type]
            end=float(data["finished_at"]),  # type: ignore[arg-type]
            ready=(
                float(data["queued_at"])  # type: ignore[arg-type]
                if data.get("queued_at") is not None
                else None
            ),
            blocked_by=(
                str(data["blocked_by"])
                if data.get("blocked_by") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class TransferRecord:
    """One inter-device tensor copy.

    ``channel`` is the topology's shared transfer channel the copy was
    serialized on (empty on records produced before channels were
    tracked); the Chrome-trace exporter groups transfers by it.

    ``queued_at`` is when the copy was requested (its producer finished);
    ``start - queued_at`` is therefore the time spent queued behind other
    copies on the shared channel — the analyzer's congestion signal.
    ``producer`` names the op whose output the tensor is, so the
    critical-path walk can continue past a transfer without the graph.
    """

    tensor_name: str
    src_device: str
    dst_device: str
    num_bytes: int
    start: float
    end: float
    channel: str = ""
    queued_at: Optional[float] = None
    producer: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def channel_wait(self) -> float:
        """Seconds queued behind other copies on the shared channel."""
        if self.queued_at is None:
            return 0.0
        return max(0.0, self.start - self.queued_at)

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "tensor_name": self.tensor_name,
            "src_device": self.src_device,
            "dst_device": self.dst_device,
            "num_bytes": self.num_bytes,
            "started_at": self.start,
            "finished_at": self.end,
            "channel": self.channel,
        }
        if self.queued_at is not None:
            data["queued_at"] = self.queued_at
        if self.producer:
            data["producer"] = self.producer
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TransferRecord":
        return cls(
            tensor_name=str(data["tensor_name"]),
            src_device=str(data["src_device"]),
            dst_device=str(data["dst_device"]),
            num_bytes=int(data["num_bytes"]),  # type: ignore[arg-type]
            start=float(data["started_at"]),  # type: ignore[arg-type]
            end=float(data["finished_at"]),  # type: ignore[arg-type]
            channel=str(data.get("channel", "")),
            queued_at=(
                float(data["queued_at"])  # type: ignore[arg-type]
                if data.get("queued_at") is not None
                else None
            ),
            producer=str(data.get("producer", "")),
        )


class TraceColumns:
    """One simulated step as parallel lists instead of record objects.

    Per-record columns, in start order: ``op``, ``start`` and ``end`` for
    kernels; ``tensor``, ``src``, ``dst``, ``start``/``end`` as
    ``xfer_start``/``xfer_end``, ``channel`` and ``queued_at`` for
    transfer hops.  Ops, tensors and devices are integer ids into the
    name tables; ``placement``, ``ready`` and ``blocked`` are indexed by
    op id.  ``blocked`` holds ``None``, the producing op's id, or a
    ``(tensor, src, dst)`` id triple naming the transfer that made the op
    ready.
    """

    def __init__(
        self,
        op_names: Sequence[str],
        op_types: Sequence[str],
        tensor_names: Sequence[str],
        tensor_bytes: Sequence[int],
        producers: Sequence[int],
        devices: Sequence[str],
        placement: List[int],
    ) -> None:
        self.op_names = op_names
        self.op_types = op_types
        self.tensor_names = tensor_names
        self.tensor_bytes = tensor_bytes
        self.producers = producers
        self.devices = devices
        self.placement = placement
        n = len(op_names)
        self.ready: List[float] = [0.0] * n
        self.blocked: List[object] = [None] * n
        self.op: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.tensor: List[int] = []
        self.src: List[int] = []
        self.dst: List[int] = []
        self.xfer_start: List[float] = []
        self.xfer_end: List[float] = []
        self.channel: List[str] = []
        self.queued_at: List[float] = []

    def _blocked_by(self, cause: object) -> Optional[str]:
        if cause is None:
            return None
        if isinstance(cause, int):
            return f"op:{self.op_names[cause]}"
        tensor, src, dst = cause  # type: ignore[misc]
        devices = self.devices
        return f"transfer:{self.tensor_names[tensor]}|{devices[src]}|{devices[dst]}"

    def op_records(self) -> List[OpRecord]:
        names, types, devices = self.op_names, self.op_types, self.devices
        placement, ready, blocked = self.placement, self.ready, self.blocked
        return [
            OpRecord(
                names[op], types[op], devices[placement[op]], start, end,
                ready=ready[op], blocked_by=self._blocked_by(blocked[op]),
            )
            for op, start, end in zip(self.op, self.start, self.end)
        ]

    def transfer_records(self) -> List[TransferRecord]:
        names, sizes, devices = self.tensor_names, self.tensor_bytes, self.devices
        producers, op_names = self.producers, self.op_names
        return [
            TransferRecord(
                names[t], devices[src], devices[dst], sizes[t], start, end,
                channel=channel, queued_at=queued_at,
                producer=op_names[producers[t]],
            )
            for t, src, dst, start, end, channel, queued_at in zip(
                self.tensor, self.src, self.dst, self.xfer_start,
                self.xfer_end, self.channel, self.queued_at,
            )
        ]


class StepTrace:
    """All events of one simulated iteration plus summary statistics.

    A trace is built either from record lists (``StepTrace(op_records=...)``,
    :meth:`from_json`) or by the simulator from :class:`TraceColumns`.  A
    columnar trace builds its record lists on first access (the analyzer,
    the Chrome trace, calibration, :meth:`to_json`); the cost models read
    :meth:`op_columns`/:meth:`transfer_columns`, and the step metrics
    :attr:`num_ops`, :attr:`num_transfers` and :attr:`total_queue_wait`,
    from the columns instead.  Record lists, once built or assigned, are
    authoritative.
    """

    def __init__(
        self,
        op_records: Optional[List[OpRecord]] = None,
        transfer_records: Optional[List[TransferRecord]] = None,
        makespan: float = 0.0,
        peak_memory: Optional[Dict[str, int]] = None,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        if columns is None:
            op_records = [] if op_records is None else op_records
            transfer_records = [] if transfer_records is None else transfer_records
        self.columns = columns
        self._op_records = op_records
        self._transfer_records = transfer_records
        self.makespan = makespan
        self.peak_memory: Dict[str, int] = {} if peak_memory is None else peak_memory

    @property
    def op_records(self) -> List[OpRecord]:
        if self._op_records is None:
            self._op_records = self.columns.op_records()  # type: ignore[union-attr]
        return self._op_records

    @op_records.setter
    def op_records(self, records: List[OpRecord]) -> None:
        self._op_records = records

    @property
    def transfer_records(self) -> List[TransferRecord]:
        if self._transfer_records is None:
            self._transfer_records = self.columns.transfer_records()  # type: ignore[union-attr]
        return self._transfer_records

    @transfer_records.setter
    def transfer_records(self, records: List[TransferRecord]) -> None:
        self._transfer_records = records

    def op_columns(self) -> Tuple[List[str], List[str], List[str], List[float], List[float]]:
        """``(op_name, op_type, device, start, end)`` lists, record order."""
        cols = self._live(self._op_records)
        if cols is None:
            recs = self.op_records
            return (
                [r.op_name for r in recs], [r.op_type for r in recs],
                [r.device for r in recs], [r.start for r in recs],
                [r.end for r in recs],
            )
        names, types, devices = cols.op_names, cols.op_types, cols.devices
        placement = cols.placement
        return (
            [names[op] for op in cols.op], [types[op] for op in cols.op],
            [devices[placement[op]] for op in cols.op], cols.start, cols.end,
        )

    def transfer_columns(self) -> Tuple[List[str], List[str], List[int], List[float], List[float]]:
        """``(src_device, dst_device, num_bytes, start, end)`` lists, record order."""
        cols = self._live(self._transfer_records)
        if cols is None:
            recs = self.transfer_records
            return (
                [r.src_device for r in recs], [r.dst_device for r in recs],
                [r.num_bytes for r in recs], [r.start for r in recs],
                [r.end for r in recs],
            )
        devices, sizes = cols.devices, cols.tensor_bytes
        return (
            [devices[d] for d in cols.src], [devices[d] for d in cols.dst],
            [sizes[t] for t in cols.tensor], cols.xfer_start, cols.xfer_end,
        )

    def _live(self, records: Optional[list]) -> Optional[TraceColumns]:
        """The columns, unless ``records`` were already built or assigned."""
        return self.columns if records is None else None

    @property
    def num_ops(self) -> int:
        """Number of kernel executions (records)."""
        cols = self._live(self._op_records)
        return len(self.op_records if cols is None else cols.op)

    @property
    def num_transfers(self) -> int:
        """Number of transfer hops (records)."""
        cols = self._live(self._transfer_records)
        return len(self.transfer_records if cols is None else cols.tensor)

    def compute_time_by_device(self) -> Dict[str, float]:
        """Total busy kernel time per device (Fig. 5's computation time)."""
        busy: Dict[str, float] = {}
        for rec in self.op_records:
            busy[rec.device] = busy.get(rec.device, 0.0) + rec.duration
        return busy

    def memcpy_time_by_pair(self) -> Dict[Tuple[str, str], float]:
        """Total transfer time per (src, dst) device pair."""
        busy: Dict[Tuple[str, str], float] = {}
        for rec in self.transfer_records:
            key = (rec.src_device, rec.dst_device)
            busy[key] = busy.get(key, 0.0) + rec.duration
        return busy

    @property
    def total_compute_time(self) -> float:
        """Sum of kernel durations across devices."""
        return sum(rec.duration for rec in self.op_records)

    @property
    def total_memcpy_time(self) -> float:
        """Sum of transfer durations across links."""
        return sum(rec.duration for rec in self.transfer_records)

    @property
    def total_queue_wait(self) -> float:
        """Sum of ready-queue waits across ops (0 when untracked)."""
        cols = self._live(self._op_records)
        if cols is None:
            return sum(rec.queue_wait for rec in self.op_records)
        ready = cols.ready
        return sum(max(0.0, s - ready[op]) for op, s in zip(cols.op, cols.start))

    @property
    def avg_compute_time(self) -> float:
        """Mean per-device busy time over devices that ran anything."""
        busy = self.compute_time_by_device()
        return sum(busy.values()) / len(busy) if busy else 0.0

    def ops_by_device(self) -> Dict[str, int]:
        """Operation count per device (Fig. 4's placement histogram)."""
        counts: Dict[str, int] = {}
        for rec in self.op_records:
            counts[rec.device] = counts.get(rec.device, 0) + 1
        return counts

    def device_names(self) -> List[str]:
        """Every device the trace mentions (records or peak memory)."""
        names = {rec.device for rec in self.op_records}
        for rec in self.transfer_records:
            names.add(rec.src_device)
            names.add(rec.dst_device)
        names.update(self.peak_memory)
        return sorted(names)

    # ------------------------------------------------------------------
    # Versioned serialization (the analyzer's on-disk input format)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        """A schema-versioned JSON document of the full trace."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "makespan": self.makespan,
            "peak_memory": {k: int(v) for k, v in sorted(self.peak_memory.items())},
            "op_records": [rec.to_json() for rec in self.op_records],
            "transfer_records": [rec.to_json() for rec in self.transfer_records],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "StepTrace":
        """Rebuild a trace from :meth:`to_json` output.

        Reads the current schema only; schema 1 (no recorded edges),
        anything newer or anything unrecognizable raises
        :class:`TraceSchemaError` instead of deserializing garbage.
        """
        if not isinstance(data, dict) or "op_records" not in data:
            raise TraceSchemaError(
                "serialized StepTrace must be an object with 'op_records'"
            )
        schema = data.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            raise TraceSchemaError(
                f"unsupported StepTrace schema {schema!r} "
                f"(this build reads {TRACE_SCHEMA_VERSION})"
            )
        try:
            trace = cls(
                op_records=[
                    OpRecord.from_json(rec)  # type: ignore[arg-type]
                    for rec in data["op_records"]  # type: ignore[union-attr]
                ],
                transfer_records=[
                    TransferRecord.from_json(rec)  # type: ignore[arg-type]
                    for rec in data.get("transfer_records", [])  # type: ignore[union-attr]
                ],
                makespan=float(data.get("makespan", 0.0)),  # type: ignore[arg-type]
                peak_memory={
                    str(k): int(v)  # type: ignore[arg-type]
                    for k, v in dict(data.get("peak_memory", {})).items()  # type: ignore[arg-type]
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceSchemaError(f"malformed StepTrace record: {exc}") from exc
        if not trace.makespan:
            ends = [rec.end for rec in trace.op_records]
            ends.extend(rec.end for rec in trace.transfer_records)
            trace.makespan = max(ends, default=0.0)
        return trace

    def save(self, path: str) -> str:
        """Write the versioned JSON document; returns ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=1)
        return path

    @classmethod
    def load(cls, path: str) -> "StepTrace":
        """Read a trace written by :meth:`save`."""
        try:
            with open(path) as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_json(data)
