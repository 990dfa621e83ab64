"""Tests for the experiment harness, caching, and reporting."""

import math

import pytest

from repro.experiments import (
    TrialResult,
    cached_trial,
    run_data_parallel_trial,
    run_fastt_trial,
)
from repro.experiments.paper_reference import (
    TABLE1_STRONG_SCALING,
    TABLE2_WEAK_SCALING,
    TABLE4_STRATEGY_TIME,
    TABLE6_SPLIT_ABLATION,
)
from repro.experiments.reporting import (
    format_table,
    markdown_table,
    speedup_percent,
)
from repro.models import MODEL_ORDER, get_model


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], ["xx", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "OOM" in lines[3]

    def test_title_included(self):
        text = format_table(["h"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_nan_rendered_as_dash(self):
        text = format_table(["x"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_markdown_table(self):
        text = markdown_table(["a", "b"], [[1, None]])
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | OOM |" in text

    def test_speedup_percent(self):
        assert speedup_percent(150.0, 100.0) == pytest.approx(50.0)
        assert math.isnan(speedup_percent(150.0, 0.0))


class TestPaperReference:
    def test_tables_cover_all_models(self):
        for table in (
            TABLE1_STRONG_SCALING,
            TABLE2_WEAK_SCALING,
            TABLE4_STRATEGY_TIME,
            TABLE6_SPLIT_ABLATION,
        ):
            assert set(table) == set(MODEL_ORDER)

    def test_table1_row_lengths(self):
        for _, speeds, _ in TABLE1_STRONG_SCALING.values():
            assert len(speeds) == 9

    def test_vgg_is_the_headline_speedup(self):
        speedups = {m: s for m, (_, _, s) in TABLE1_STRONG_SCALING.items()}
        assert max(speedups, key=speedups.get) == "vgg19"
        assert speedups["vgg19"] == 59.4


class TestTrialCache:
    def test_cached_trial_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def make():
            calls.append(1)
            return TrialResult(
                model="m", method="dp", num_gpus=2, num_servers=1,
                global_batch=8, iteration_time=0.5, speed=16.0,
                ops_per_device={"d0": 3},
            )

        key = {"unit": "test"}
        first = cached_trial(key, make)
        second = cached_trial(key, make)
        assert len(calls) == 1, "second call must come from the cache"
        assert second.speed == first.speed
        assert second.ops_per_device == {"d0": 3}

    def test_distinct_keys_not_shared(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = cached_trial({"k": 1}, lambda: TrialResult(
            model="a", method="dp", num_gpus=1, num_servers=1, global_batch=1,
        ))
        b = cached_trial({"k": 2}, lambda: TrialResult(
            model="b", method="dp", num_gpus=1, num_servers=1, global_batch=1,
        ))
        assert a.model == "a" and b.model == "b"

    @staticmethod
    def _cache_path(tmp_path, key):
        import hashlib
        import json

        from repro.experiments.harness import CACHE_SCHEMA_VERSION

        digest = hashlib.sha256(
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "key": key},
                       sort_keys=True).encode()
        ).hexdigest()[:24]
        return tmp_path / f"{digest}.json"

    def test_envelope_records_schema_version(self, tmp_path, monkeypatch):
        import json

        from repro.experiments.harness import CACHE_SCHEMA_VERSION

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = {"unit": "schema"}
        cached_trial(key, lambda: TrialResult(
            model="m", method="dp", num_gpus=1, num_servers=1, global_batch=1,
        ))
        stored = json.loads(self._cache_path(tmp_path, key).read_text())
        assert stored["schema"] == CACHE_SCHEMA_VERSION
        assert stored["key"] == key

    def test_schema_mismatch_invalidates(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = {"unit": "stale"}
        path = self._cache_path(tmp_path, key)
        path.write_text(json.dumps({
            "schema": -1, "key": key,
            "result": {"model": "stale-format"},
        }))
        result = cached_trial(key, lambda: TrialResult(
            model="fresh", method="dp", num_gpus=1, num_servers=1,
            global_batch=1,
        ))
        assert result.model == "fresh", "stale-schema entry must be recomputed"
        stored = json.loads(path.read_text())
        assert stored["result"]["model"] == "fresh"

    def test_corrupt_file_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = {"unit": "corrupt"}
        self._cache_path(tmp_path, key).write_text("{truncated")
        result = cached_trial(key, lambda: TrialResult(
            model="fresh", method="dp", num_gpus=1, num_servers=1,
            global_batch=1,
        ))
        assert result.model == "fresh"

    def test_cached_trial_summary_carries_no_wall_clock(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro.experiments import harness

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(harness, "_TRACE_DIR", str(tmp_path))

        def fake_fastt(model, num_gpus, num_servers, batch, **kwargs):
            return TrialResult(
                model=model.name, method="fastt", num_gpus=num_gpus,
                num_servers=num_servers, global_batch=batch,
                iteration_time=0.5, search_seconds=3.0,
                algorithm_seconds=1.0,
            )

        monkeypatch.setitem(harness._RUNNERS, "fastt", fake_fastt)
        summary = tmp_path / "lenet_fastt_2x1.summary.json"
        first = harness.trial("lenet", "fastt", 2)
        fresh = json.loads(summary.read_text())
        assert not first.extra.get("cached")
        assert fresh["cached"] is False
        assert fresh["search_seconds"] == 3.0
        assert fresh["algorithm_seconds"] == 1.0

        second = harness.trial("lenet", "fastt", 2)
        cached = json.loads(summary.read_text())
        assert second.extra["cached"] is True
        assert cached["cached"] is True
        assert cached["search_seconds"] is None
        assert cached["algorithm_seconds"] is None
        # Simulated quality is deterministic, so the cache may report it.
        assert cached["iteration_time"] == 0.5

    def test_source_fingerprint_keys_the_cache(self, tmp_path, monkeypatch):
        from repro.experiments import harness

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = []

        def fake_dp(model, num_gpus, num_servers, batch, **kwargs):
            runs.append(1)
            return TrialResult(
                model=model.name, method="dp", num_gpus=num_gpus,
                num_servers=num_servers, global_batch=batch,
            )

        monkeypatch.setitem(harness._RUNNERS, "dp", fake_dp)
        monkeypatch.setattr(harness, "source_fingerprint", lambda: "old")
        harness.trial("lenet", "dp", 2)
        assert harness.trial("lenet", "dp", 2).extra["cached"] is True
        assert len(runs) == 1, "same sources must hit the cache"

        monkeypatch.setattr(harness, "source_fingerprint", lambda: "new")
        assert not harness.trial("lenet", "dp", 2).extra.get("cached")
        assert len(runs) == 2, "changed sources must miss the cache"

    def test_source_fingerprint_is_stable_per_process(self):
        from repro.experiments.harness import source_fingerprint

        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 16


class TestTrialRunners:
    def test_dp_trial_on_lenet(self):
        result = run_data_parallel_trial(get_model("lenet"), 2, 1, 64)
        assert not result.oom
        assert result.speed > 0
        assert result.method == "dp"
        assert sum(result.ops_per_device.values()) > 0

    def test_fastt_trial_on_lenet(self):
        result = run_fastt_trial(get_model("lenet"), 2, 1, 64)
        assert not result.oom
        assert result.speed > 0
        assert result.search_seconds > 0
        assert result.extra.get("strategy_label")

    def test_fastt_close_to_or_better_than_dp(self):
        dp = run_data_parallel_trial(get_model("lenet"), 2, 1, 64)
        fastt = run_fastt_trial(get_model("lenet"), 2, 1, 64)
        assert fastt.speed >= dp.speed * 0.9
