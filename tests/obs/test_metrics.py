"""Unit suite for the repro.obs metrics registry."""

import pytest

from repro.obs import MetricsRegistry, MetricsSnapshot, NullMetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("search.runs")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc()
        assert reg.counter("a").value == 2


class TestGauge:
    def test_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("sim.last_makespan")
        g.set(2.5)
        assert g.value == 2.5
        g.inc(0.5)
        assert g.value == 3.0


class TestTimer:
    def test_add_accumulates_seconds_and_count(self):
        reg = MetricsRegistry()
        t = reg.timer("sim.simulated")
        t.add(1.5)
        t.add(0.5, count=2)
        assert t.seconds == 2.0
        assert t.count == 3


class TestSnapshot:
    def test_flattens_all_instrument_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.timer("t").add(0.25)
        snap = reg.snapshot()
        assert isinstance(snap, MetricsSnapshot)
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["t.seconds"] == 0.25
        assert snap["t.count"] == 1

    def test_snapshot_is_frozen_copy(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc()
        assert snap["c"] == 1

    def test_counters_prefix_filter(self):
        snap = MetricsSnapshot(
            {"search.a": 1, "search.b": 2, "sim.steps": 3}
        )
        assert snap.counters("search.") == {"search.a": 1, "search.b": 2}


class TestNullRegistry:
    def test_all_instruments_are_inert(self):
        reg = NullMetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(3)
        reg.timer("t").add(1.0)
        assert reg.snapshot() == {}

    def test_shared_instance(self):
        reg = NullMetricsRegistry()
        assert reg.counter("a") is reg.counter("b")


class TestResultViews:
    def test_osdpos_result_counters_are_metric_views(self, topo4):
        pytest.importorskip("repro.core")
        from repro.core import DPOS, OSDPOS
        from repro.costmodel import (
            OracleCommunicationModel,
            OracleComputationModel,
        )
        from repro.graph import Graph
        from repro.hardware import PerfModel

        g = Graph("heavy")
        a = g.create_op(
            "Placeholder", "a", attrs={"shape": (512, 512)}
        ).outputs[0]
        b = g.create_op("Variable", "b", attrs={"shape": (512, 512)}).outputs[0]
        mm = g.create_op("MatMul", "mm", [a, b]).outputs[0]
        g.create_op("Relu", "relu", [mm])

        perf = PerfModel(topo4)
        result = OSDPOS(
            DPOS(
                topo4,
                OracleComputationModel(perf),
                OracleCommunicationModel(perf),
            )
        ).run(g)
        assert result.candidates_evaluated == result.metrics.get(
            "search.candidates_evaluated", 0
        )
        assert "search.cache.misses" in result.metrics


class TestHistogram:
    def test_known_distribution_lands_in_expected_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", bounds=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.005, 0.05, 0.5, 5.0):
            h.observe(value)
        # One sample per bucket, the last one in the +Inf overflow.
        assert h.bucket_counts == [1, 1, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(5.5555)
        assert h.min == pytest.approx(0.0005)
        assert h.max == pytest.approx(5.0)

    def test_boundary_value_goes_to_its_own_bucket(self):
        # le-semantics: a sample exactly on a bound counts in that
        # bound's bucket (Prometheus _bucket{le=...} convention).
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1.0, 2.0))
        h.observe(1.0)
        h.observe(2.0)
        assert h.bucket_counts == [1, 1, 0]

    def test_quantile_error_bounded_by_bucket_width(self):
        from repro.obs import DEFAULT_BUCKET_BOUNDS

        reg = MetricsRegistry()
        h = reg.histogram("q")
        samples = [0.0001 * (i + 1) for i in range(1000)]  # 0.1ms..100ms
        for value in samples:
            h.observe(value)
        samples.sort()
        for q in (0.5, 0.9, 0.95, 0.99):
            true_value = samples[min(len(samples) - 1, int(q * len(samples)))]
            estimate = h.quantile(q)
            # The true value's bucket bounds the estimation error.
            upper = next(
                b for b in DEFAULT_BUCKET_BOUNDS if b >= true_value
            )
            index = DEFAULT_BUCKET_BOUNDS.index(upper)
            lower = DEFAULT_BUCKET_BOUNDS[index - 1] if index else 0.0
            assert abs(estimate - true_value) <= (upper - lower)

    def test_quantile_edge_cases(self):
        reg = MetricsRegistry()
        h = reg.histogram("edge", bounds=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0  # empty
        h.observe(100.0)  # overflow bucket only
        assert h.quantile(0.5) == 2.0  # reports last finite bound
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_cumulative_buckets_are_monotonic_and_end_at_count(self):
        import math

        reg = MetricsRegistry()
        h = reg.histogram("c", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 5.0):
            h.observe(value)
        buckets = h.cumulative_buckets()
        assert buckets[-1][0] == math.inf
        assert buckets[-1][1] == h.count
        cumulative = [count for _, count in buckets]
        assert cumulative == sorted(cumulative)

    def test_same_key_same_instrument_and_labels_distinct(self):
        reg = MetricsRegistry()
        a = reg.histogram("lat", outcome="hit")
        b = reg.histogram("lat", outcome="miss")
        assert a is not b
        assert reg.histogram("lat", outcome="hit") is a

    def test_rejects_unsorted_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", bounds=(2.0, 1.0))

    def test_snapshot_carries_count_sum_and_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for value in (0.001, 0.002, 0.004):
            h.observe(value)
        snap = reg.snapshot()
        assert snap["lat.count"] == 3
        assert snap["lat.sum"] == pytest.approx(0.007)
        assert snap["lat.min"] == pytest.approx(0.001)
        assert snap["lat.max"] == pytest.approx(0.004)
        assert snap["lat.p50"] > 0.0
        assert snap["lat.p99"] >= snap["lat.p50"]

    def test_null_registry_histogram_is_inert(self):
        reg = NullMetricsRegistry()
        h = reg.histogram("x")
        h.observe(1.0)
        assert h.quantile(0.5) == 0.0
        assert reg.snapshot() == {}


class TestMetricKey:
    def test_roundtrip(self):
        from repro.obs import metric_key, parse_metric_key

        key = metric_key("serve.latency", {"outcome": "hit", "a": "b"})
        assert key == "serve.latency{a=b,outcome=hit}"
        name, labels = parse_metric_key(key)
        assert name == "serve.latency"
        assert labels == {"outcome": "hit", "a": "b"}
        assert parse_metric_key("bare.name") == ("bare.name", {})
