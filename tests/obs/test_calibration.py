"""Tests for cost-model calibration (``repro.obs.calibration``)."""

import json

import pytest

import repro
from repro.cluster import single_server
from repro.core import DPOS, FastTConfig, SearchOptions
from repro.costmodel import (
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import Graph
from repro.hardware import PerfModel
from repro.obs import Observability
from repro.obs.calibration import (
    CALIBRATION_SCHEMA_VERSION,
    CalibrationReport,
    CalibrationSchemaError,
    ResidualEntry,
    calibrate,
    capture_predictions,
)
from repro.sim import ExecutionSimulator


def heavy_matmul_graph(m=512, k=512, n=512):
    g = Graph("heavy")
    a = g.create_op("Placeholder", "a", attrs={"shape": (m, k)}).outputs[0]
    b = g.create_op("Variable", "b", attrs={"shape": (k, n)}).outputs[0]
    mm = g.create_op("MatMul", "mm", [a, b]).outputs[0]
    g.create_op("Relu", "relu", [mm])
    return g


@pytest.fixture
def oracle_run(topo2):
    """Placement + predictions + realized trace sharing one cost model."""
    perf = PerfModel(topo2)  # noise_sigma=0: simulator == oracle
    comp = OracleComputationModel(perf)
    comm = OracleCommunicationModel(perf)
    graph = heavy_matmul_graph()
    result = DPOS(topo2, comp, comm).run(graph)
    predictions = capture_predictions(
        graph, result.placement, comp, comm, pair_class=topo2.pair_class
    )
    trace = ExecutionSimulator(graph, topo2, perf).run_step(result.placement)
    return predictions, trace


class TestExactResiduals:
    def test_oracle_predictions_join_exactly(self, oracle_run):
        predictions, trace = oracle_run
        report = calibrate(predictions, trace)
        assert report.entries
        assert report.unmatched_predictions == 0
        assert report.unmatched_realized == 0
        # Oracle models share the simulator's cost model, so realized
        # times reproduce the predictions to float precision.
        assert report.max_abs_relative == pytest.approx(0.0, abs=1e-9)
        for entry in report.entries:
            assert entry.realized == pytest.approx(entry.predicted)

    def test_covers_compute_and_transfer(self, oracle_run, topo2):
        predictions, trace = oracle_run
        report = calibrate(predictions, trace)
        kinds = {e.kind for e in report.entries}
        assert kinds == {"compute", "transfer"}
        transfer = next(e for e in report.entries if e.kind == "transfer")
        # Transfer families come from the topology's route pair classes.
        src, dst = transfer.device.split("->")
        assert transfer.family == topo2.pair_class(src, dst)

    def test_unmatched_bookkeeping(self, oracle_run):
        predictions, trace = oracle_run
        dropped = trace.__class__(
            op_records=trace.op_records[1:],
            transfer_records=[],
            makespan=trace.makespan,
        )
        report = calibrate(predictions, dropped)
        assert report.unmatched_predictions == 1 + len(predictions.transfers)
        assert report.unmatched_realized == 0


class TestProfiledResiduals:
    @pytest.fixture(scope="class")
    def optimized(self):
        config = FastTConfig(
            profiling_steps=1,
            max_rounds=2,
            min_rounds=1,
            measure_steps=1,
            search=SearchOptions(max_candidate_ops=3),
        )
        return repro.optimize(
            "lenet",
            single_server(2),
            config=config,
            obs=Observability(provenance=True),
        )

    def test_calibration_attached_to_result(self, optimized):
        report = optimized.calibration
        assert report is not None
        assert report.entries
        # Profiled-sample models approximate, not reproduce, the
        # simulator: residuals exist but stay well under 100%.
        assert 0.0 < report.max_abs_relative < 1.0
        assert report.drift_tolerance is not None

    def test_metrics_published(self, optimized):
        snapshot = optimized.metrics
        assert snapshot.get("calibration.entries", 0) > 0
        assert "calibration.compute.p90_abs_relative" in snapshot

    def test_summary_dict(self, optimized):
        summary = optimized.calibration.summary()
        assert summary["entries"] == len(optimized.calibration.entries)
        assert "compute_p50_abs_relative" in summary

    def test_render_smoke(self, optimized):
        text = optimized.calibration.render()
        assert "cost-model calibration" in text
        assert "residuals per prediction family" in text

    def test_disabled_runs_skip_calibration(self):
        config = FastTConfig(
            profiling_steps=1, max_rounds=1, min_rounds=1, measure_steps=1,
            search=SearchOptions(max_candidate_ops=0),
        )
        result = repro.optimize("lenet", single_server(2), config=config)
        assert result.calibration is None


class TestReportObject:
    @pytest.fixture
    def report(self):
        return CalibrationReport(
            entries=[
                ResidualEntry("compute", "a", "MatMul", "d0", 1.0, 1.1),
                ResidualEntry("compute", "b", "Relu", "d1", 2.0, 2.0),
                ResidualEntry("transfer", "t|d0|d1", "nvlink", "d0->d1", 0.5, 1.0),
            ],
            drift=0.01,
            drift_tolerance=0.05,
        )

    def test_family_rollups(self, report):
        families = {(f.kind, f.family): f for f in report.families}
        assert families[("compute", "(all)")].count == 2
        assert families[("compute", "MatMul")].max_abs_relative == pytest.approx(
            0.1 / 1.1
        )
        assert families[("transfer", "(all)")].p50_abs_relative == pytest.approx(0.5)

    def test_worst_and_stability(self, report):
        assert report.worst(1)[0].kind == "transfer"
        assert report.max_abs_relative == pytest.approx(0.5)
        assert report.stable is True
        assert CalibrationReport().stable is None

    def test_metrics_names(self, report):
        metrics = report.metrics()
        assert metrics["calibration.entries"] == 3.0
        assert metrics["calibration.costmodel_drift"] == pytest.approx(0.01)
        assert "calibration.transfer.max_abs_relative" in metrics

    def test_save_load_round_trip(self, report, tmp_path):
        path = str(tmp_path / "r.calibration.json")
        report.save(path)
        loaded = CalibrationReport.load(path)
        assert len(loaded.entries) == 3
        assert loaded.max_abs_relative == pytest.approx(report.max_abs_relative)
        assert loaded.drift == pytest.approx(0.01)

    def test_schema_enforced(self, tmp_path):
        path = tmp_path / "bad.calibration.json"
        path.write_text(json.dumps({"schema": CALIBRATION_SCHEMA_VERSION + 1}))
        with pytest.raises(CalibrationSchemaError):
            CalibrationReport.load(str(path))
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(CalibrationSchemaError):
            CalibrationReport.load(str(path))


def test_stability_monitor_publishes_metrics():
    """Satellite: StabilityMonitor signals land in metrics snapshots."""
    from repro.costmodel import StabilityMonitor

    obs = Observability()
    monitor = StabilityMonitor(tolerance=0.1)
    for snapshot in ({("a", "d0"): 1.0}, {("a", "d0"): 1.01}):
        # The calculator's round span carries each verdict.
        with obs.events.span("round") as span:
            span.set(stable=monitor.update(snapshot), drift=monitor.last_drift)
    snapshot = obs.snapshot()
    assert snapshot.get("costmodel.stability.updates") == 2
    assert snapshot.get("costmodel.stability.stable") == 1.0
    assert snapshot.get("costmodel.stability.max_drift") == pytest.approx(
        0.01, rel=0.1
    )
