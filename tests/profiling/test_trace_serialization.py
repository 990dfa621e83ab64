"""Versioned StepTrace serialization: round-trips and rejects."""

import json

import pytest

from repro.profiling.trace import (
    TRACE_SCHEMA_VERSION,
    OpRecord,
    StepTrace,
    TraceSchemaError,
    TransferRecord,
)


def full_trace() -> StepTrace:
    trace = StepTrace(makespan=4.0, peak_memory={"gpu0": 2048, "gpu1": 512})
    trace.op_records = [
        OpRecord("a", "MatMul", "gpu0", 0.0, 2.0, ready=0.0),
        OpRecord("b", "Relu", "gpu1", 3.0, 4.0, ready=3.0,
                 blocked_by="transfer:a:0|gpu0|gpu1"),
    ]
    trace.transfer_records = [
        TransferRecord("a:0", "gpu0", "gpu1", 1024, 2.0, 3.0,
                       channel="pcie0", queued_at=2.0, producer="a"),
    ]
    return trace


class TestRoundTrip:
    def test_records_round_trip_exactly(self, tmp_path):
        trace = full_trace()
        loaded = StepTrace.load(trace.save(str(tmp_path / "t.step.json")))
        assert loaded.op_records == trace.op_records
        assert loaded.transfer_records == trace.transfer_records
        assert loaded.makespan == trace.makespan
        assert loaded.peak_memory == trace.peak_memory

    def test_document_carries_current_schema(self):
        document = full_trace().to_json()
        assert document["schema"] == TRACE_SCHEMA_VERSION
        assert json.loads(json.dumps(document)) == document

    def test_v2_fields_serialized(self):
        document = full_trace().to_json()
        op_b = document["op_records"][1]
        assert op_b["queued_at"] == 3.0
        assert op_b["blocked_by"] == "transfer:a:0|gpu0|gpu1"
        xfer = document["transfer_records"][0]
        assert xfer["queued_at"] == 2.0
        assert xfer["producer"] == "a"

    def test_makespan_recomputed_when_absent(self):
        document = full_trace().to_json()
        del document["makespan"]
        assert StepTrace.from_json(document).makespan == pytest.approx(4.0)


class TestRejects:
    def test_v1_document_rejected(self):
        # Schema 1 recorded no blocking edges; this build reads only the
        # current schema.
        document = {
            "schema": 1,
            "op_records": [
                {"op_name": "a", "op_type": "MatMul", "device": "gpu0",
                 "started_at": 0.0, "finished_at": 2.0},
            ],
            "transfer_records": [
                {"tensor_name": "a:0", "src_device": "gpu0",
                 "dst_device": "gpu1", "num_bytes": 8,
                 "started_at": 2.0, "finished_at": 3.0},
            ],
        }
        with pytest.raises(TraceSchemaError, match="unsupported StepTrace schema 1"):
            StepTrace.from_json(document)

    def test_unknown_schema(self):
        with pytest.raises(TraceSchemaError, match="unsupported"):
            StepTrace.from_json({"schema": 99, "op_records": []})

    def test_not_a_trace_document(self):
        with pytest.raises(TraceSchemaError, match="op_records"):
            StepTrace.from_json({"events": []})

    def test_malformed_record(self):
        document = {
            "schema": 2,
            "op_records": [{"op_name": "a", "device": "gpu0"}],  # no times
        }
        with pytest.raises(TraceSchemaError, match="malformed"):
            StepTrace.from_json(document)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.step.json"
        path.write_text("{not json")
        with pytest.raises(TraceSchemaError, match="invalid JSON"):
            StepTrace.load(str(path))


class TestAliases:
    def test_op_record_aliases(self):
        rec = OpRecord("a", "MatMul", "gpu0", 1.0, 3.0, ready=0.5)
        assert rec.started_at == rec.start
        assert rec.finished_at == rec.end
        assert rec.queued_at == rec.ready
        assert rec.queue_wait == pytest.approx(0.5)

    def test_transfer_channel_wait(self):
        rec = TransferRecord("t", "a", "b", 8, 2.0, 3.0, queued_at=1.25)
        assert rec.channel_wait == pytest.approx(0.75)
