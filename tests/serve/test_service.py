"""StrategyService: hit / coalesce / warm-start semantics, counter-verified."""

import errno
import os
import threading

import pytest

from repro.cluster import topology_from
from repro.core import FastTConfig, FastTSession
from repro.models import get_model
from repro.obs.prometheus import parse_prometheus, sample_value
from repro.obs.runs import config_fingerprints, options_fingerprint
from repro.serve import (
    RequestError,
    StrategyService,
    StrategyStore,
    normalize_request,
)
from repro.serve import service as service_module
from repro.serve import store as store_module
from repro.serve import worker as worker_module

FAST_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 2},
}


#: Search options a request is refused for before any lookup or search:
#: names that are not tenant options, and malformed values of those that
#: are.
BAD_SEARCH_OPTIONS = [
    {"workers": 2}, {"naive": True}, {"prune": False},
    {"split_counts": "2"}, {"split_counts": [2.5]}, {"split_counts": [True]},
    {"split_counts": [0]}, {"split_counts": [1]}, {"split_counts": [-2]},
    {"max_candidate_ops": -1},
    {"coarsen_threshold": 2.5}, {"coarsen_threshold": True},
    {"coarsen_threshold": 1e9}, {"coarsen_target": 2.5},
    {"coarsen_target": True}, {"coarsen_target": 1e9},
]

#: Top-level config overrides a request is refused for: a value whose
#: type does not match the field's default, or a non-positive
#: stability tolerance.
BAD_CONFIG_OPTIONS = [
    {"profiling_steps": "abc"}, {"profiling_steps": 1.0},
    {"profiling_steps": True}, {"max_rounds": None},
    {"stability_tolerance": -1.0}, {"stability_tolerance": 0},
    {"stability_tolerance": float("nan")}, {"stability_tolerance": "0.1"},
    {"memory_fraction": False}, {"enable_rollback": "no"},
    {"enable_order_enforcement": 0},
]


def _refusal(option):
    """The start of the RequestError message ``option`` must produce."""
    if set(option) <= {
        "split_counts", "max_candidate_ops", "coarsen_threshold",
        "coarsen_target",
    }:
        return "invalid search option"
    return "unknown search option"


def _service(tmp_path, **kwargs):
    store = StrategyStore(root=str(tmp_path / "strategies"), capacity=16)
    return StrategyService(store=store, **kwargs)


def _request(**overrides):
    request = {"model": "lenet", "topology": "pcie:2", "config": FAST_CONFIG}
    request.update(overrides)
    return request


class TestNormalize:
    def test_requires_model_and_topology(self):
        with pytest.raises(RequestError):
            normalize_request({"topology": "pcie:2"})
        with pytest.raises(RequestError):
            normalize_request({"model": "lenet"})

    def test_rejects_unknown_config_keys(self):
        with pytest.raises(RequestError):
            normalize_request(_request(config={"not_a_knob": 1}))
        with pytest.raises(RequestError):
            normalize_request(_request(config={"search": {"bogus": 1}}))

    @pytest.mark.parametrize("option", BAD_SEARCH_OPTIONS)
    def test_rejects_non_tenant_search_options(self, option):
        config = dict(FAST_CONFIG, search={"max_candidate_ops": 2, **option})
        with pytest.raises(RequestError, match=_refusal(option)):
            normalize_request(_request(config=config))

    @pytest.mark.parametrize("option", BAD_CONFIG_OPTIONS)
    def test_rejects_ill_typed_config_options(self, option):
        config = dict(FAST_CONFIG, **option)
        with pytest.raises(RequestError, match=f"config option '{next(iter(option))}'"):
            normalize_request(_request(config=config))

    def test_accepts_well_typed_config_options(self):
        config = dict(
            FAST_CONFIG, stability_tolerance=1, memory_fraction=0.5,
            enable_rollback=False, enable_order_enforcement=True,
        )
        assert normalize_request(_request(config=config))["config"] == config

    def test_canonical_form_is_order_insensitive(self):
        a = normalize_request(_request())
        b = normalize_request({
            "config": FAST_CONFIG, "topology": "pcie:2", "model": "lenet",
        })
        assert a == b


class TestCachePath:
    def test_repeat_answered_from_store_without_search(self, tmp_path):
        service = _service(tmp_path)
        first = service.submit(_request())
        assert first["source"] == "search"
        searches_after_first = service.stats.searches

        second = service.submit(_request())
        assert second["source"] == "cache"
        # Counter-verified: the repeat ran no search at all.
        assert service.stats.searches == searches_after_first == 1
        assert service.stats.hits == 1
        assert second["strategy"] == first["strategy"]
        assert second["makespan"] == first["makespan"]

    def test_cache_shared_across_service_restart(self, tmp_path):
        first = _service(tmp_path).submit(_request())
        service = _service(tmp_path)
        second = service.submit(_request())
        assert second["source"] == "cache"
        assert service.stats.searches == 0
        assert second["strategy"] == first["strategy"]

    def test_different_batch_is_a_different_problem(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request(global_batch=64))
        other = service.submit(_request(global_batch=128))
        assert other["source"] != "cache"
        assert service.stats.searches == 2


class TestCoalescing:
    def test_identical_inflight_requests_share_one_search(self, tmp_path):
        service = _service(tmp_path)
        original_answer = service._answer
        leader_started = threading.Event()
        release = threading.Event()

        def gated_answer(*args):
            leader_started.set()
            assert release.wait(30)
            return original_answer(*args)

        service._answer = gated_answer
        results = []
        errors = []

        def submit():
            try:
                results.append(service.submit(_request()))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        leader = threading.Thread(target=submit)
        leader.start()
        assert leader_started.wait(30)
        follower = threading.Thread(target=submit)
        follower.start()
        # Wait until the follower is registered as coalesced, then let
        # the leader's search run.
        for _ in range(3000):
            if service.stats.coalesced:
                break
            threading.Event().wait(0.01)
        release.set()
        leader.join(60)
        follower.join(60)

        assert not errors
        assert service.stats.coalesced == 1
        assert service.stats.searches == 1  # one search served both
        assert service.stats.requests == 2  # ...for two submissions
        flags = sorted(bool(r.get("coalesced")) for r in results)
        assert flags == [False, True]
        strategies = {str(sorted(r["strategy"]["placement"].items()))
                      for r in results}
        assert len(strategies) == 1

    def test_sequential_requests_do_not_coalesce(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request())
        service.submit(_request())
        assert service.stats.coalesced == 0


class TestWarmStart:
    def test_edited_batch_warm_starts_within_envelope(self, tmp_path):
        service = _service(tmp_path)
        cold = service.submit(_request(global_batch=64))
        assert cold["source"] == "search"

        warm = service.submit(_request(global_batch=128))
        assert service.stats.warm_starts == 1
        assert warm["source"] in ("warm", "search")  # valve may fall back
        if warm["source"] == "warm":
            assert service.stats.warm_fallbacks == 0
        else:
            assert service.stats.warm_fallbacks == 1
        # Either way the answer is a valid, finite strategy.
        assert warm["makespan"] < float("inf")
        assert warm["strategy"]["placement"]
        # Warm result stays within the engine's safety envelope of the
        # (work-scaled) cold reference.
        assert warm["makespan"] <= 1.5 * cold["makespan"] * (128 / 64)

    def test_no_warm_start_across_different_search_options(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request(global_batch=64))
        other_cfg = dict(FAST_CONFIG)
        other_cfg["search"] = {"max_candidate_ops": 1}
        service.submit(_request(global_batch=128, config=other_cfg))
        assert service.stats.warm_starts == 0


class TestErrors:
    def test_unknown_model_counts_an_error(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(RequestError, match="unknown model 'not_a_model'"):
            service.submit(_request(model="not_a_model"))
        assert service.stats.errors == 1

    @pytest.mark.parametrize("request_fields, message", [
        ({"model": "nope"}, "unknown model 'nope'"),
        ({"topology": "nosuch:4"}, "unknown topology preset 'nosuch:4'"),
        ({"topology": {"devices": []}}, "non-empty 'devices' list"),
    ])
    def test_unservable_request_is_a_counted_request_error(
        self, tmp_path, request_fields, message
    ):
        service = _service(tmp_path)
        with pytest.raises(RequestError, match=message):
            service.submit(_request(**request_fields))
        assert (service.stats.requests, service.stats.errors) == (1, 1)
        assert service.stats.searches == 0
        assert service.submit(_request())["source"] == "search"

    def test_malformed_request(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(RequestError):
            service.submit({"model": "lenet"})

    @pytest.mark.parametrize("batch", ["abc", [1], -4, 0, True, 2.5])
    def test_bad_global_batch_is_a_request_error(self, tmp_path, batch):
        service = _service(tmp_path)
        with pytest.raises(RequestError, match="'global_batch'"):
            service.submit(_request(global_batch=batch))
        assert service.stats.requests == 0
        assert service.stats.searches == 0

    @pytest.mark.parametrize("option", BAD_CONFIG_OPTIONS)
    def test_ill_typed_config_option_rejected_next_request_answered(
        self, tmp_path, option
    ):
        service = _service(tmp_path)
        with pytest.raises(RequestError, match="config option"):
            service.submit(_request(config=dict(FAST_CONFIG, **option)))
        assert service.stats.misses == 0
        assert service.stats.searches == 0
        assert service.submit(_request())["source"] == "search"

    @pytest.mark.parametrize("option", BAD_SEARCH_OPTIONS)
    def test_non_tenant_search_option_rejected_next_request_answered(
        self, tmp_path, option
    ):
        service = _service(tmp_path)
        config = dict(FAST_CONFIG, search={"max_candidate_ops": 2, **option})
        with pytest.raises(RequestError, match=_refusal(option)):
            service.submit(_request(config=config))
        assert service.stats.misses == 0
        assert service.stats.searches == 0
        answer = service.submit(_request())
        assert answer["source"] == "search"
        assert answer["strategy"]["placement"]
        assert service.stats.searches == 1


@pytest.fixture
def session_builds(monkeypatch):
    """Counts session builds (a list of model names) at the prepare
    stage, which runs in the calling thread or in a worker child."""
    built = []
    original = StrategyService._prepare

    def counting_prepare(self, stages, keys):
        built.append(keys.spec.name)
        return original(self, stages, keys)

    monkeypatch.setattr(StrategyService, "_prepare", counting_prepare)
    return built


def _without_request_id(response):
    return {k: v for k, v in response.items() if k != "request_id"}


class TestSessionMemo:
    def test_repeat_hit_builds_no_session(self, tmp_path, session_builds):
        first = _service(tmp_path).submit(_request())
        assert first["source"] == "search"

        service = _service(tmp_path)  # fresh memo over the filled store
        del session_builds[:]
        hit = service.submit(_request())
        assert hit["source"] == "cache"
        assert session_builds == []  # the persisted memo answered

        repeat = service.submit(_request())
        assert repeat["source"] == "cache"
        assert session_builds == []
        assert repeat["request_id"] != hit["request_id"]
        assert _without_request_id(repeat) == _without_request_id(hit)
        assert service.stats.searches == 0

    @pytest.mark.parametrize("model", ["lenet", "alexnet"])
    @pytest.mark.parametrize("topology", ["pcie:2", "pcie:4"])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_memoized_key_matches_fresh_session(
        self, tmp_path, session_builds, model, topology, batch
    ):
        service = _service(tmp_path)
        request = _request(model=model, topology=topology, global_batch=batch)
        first = service.submit(request)
        builds = len(session_builds)
        memoized = service.submit(request)
        assert memoized["source"] == "cache"
        assert len(session_builds) == builds

        spec = get_model(model)
        cluster = topology_from(topology)
        session = FastTSession(
            spec.builder, cluster, global_batch=batch or spec.global_batch,
            model_name=spec.name,
        )
        if batch == 3 and topology == "pcie:4":
            assert session.initial_strategy.label == "model-parallel"
        config = worker_module.build_config(service.config, FAST_CONFIG)
        fresh = config_fingerprints(session.input_graph, cluster, config)
        assert memoized["key"] == first["key"] == fresh["combined"]

    def test_base_config_is_part_of_the_key(self, tmp_path):
        store = StrategyStore(root=str(tmp_path / "strategies"), capacity=16)
        a = StrategyService(store=store)
        b = StrategyService(
            store=store, config=FastTConfig(restart_overhead_seconds=1.0)
        )
        key_a = a.submit(_request())["key"]
        assert b.submit(_request())["source"] == "search"  # no cross-hit
        assert a.submit(_request())["key"] == key_a
        assert b.submit(_request())["key"] != key_a
        assert (a.stats.hits, b.stats.hits) == (1, 1)

        # The memo holds graph fingerprints only: a changed config keys
        # the next request afresh (here onto b's stored entry).
        a.config = b.config
        moved = a.submit(_request())
        assert moved["source"] == "cache" and moved["key"] != key_a

    def test_shared_store_counts_evictions_on_the_causing_service(self):
        store = StrategyStore(capacity=1, persist=False)
        first = StrategyService(store=store)
        second = StrategyService(store=store)
        for batch in (16, 32, 64):
            assert first.submit(_request(global_batch=batch))["source"] != (
                "cache"
            )
        assert (first.stats.evictions, second.stats.evictions) == (2, 0)

    def test_memo_hit_then_store_miss_searches_and_stores(
        self, session_builds
    ):
        store = StrategyStore(capacity=1, persist=False)
        service = StrategyService(store=store)
        first = service.submit(_request(global_batch=64))
        service.submit(_request(global_batch=128))  # evicts the first
        assert store.get(first["key"]) is None

        del session_builds[:]
        again = service.submit(_request(global_batch=64))
        assert again["source"] != "cache"
        assert again["key"] == first["key"]
        assert session_builds == ["lenet"]  # built for the search only
        assert service.stats.searches == 3
        assert store.get(first["key"]) is not None

    def test_memo_is_bounded_lru(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "GRAPH_MEMO_CAPACITY", 2)
        service = _service(tmp_path)
        for batch in (16, 32, 16, 64):
            service.submit(_request(global_batch=batch))
            assert len(service._graph_fps) <= 2
        assert [key[1] for key in service._graph_fps] == [16, 64]


class TestOptionsMemo:
    @pytest.mark.parametrize("overrides", [
        {},
        FAST_CONFIG,
        {"max_rounds": 3},
        {"search": {"max_candidate_ops": 1}},
        {"profiling_steps": 2, "search": {"split_counts": [2, 4]}},
    ])
    def test_memoized_fingerprint_equals_uncached(self, tmp_path, overrides):
        service = _service(tmp_path)
        request = _request(config=overrides)
        for _ in range(2):  # the second read comes from the memo
            assert service.derive(request).options == options_fingerprint(
                worker_module.build_config(service.config, overrides)
            )
        assert service._options.cache_info().hits == 1

    def test_replaced_base_config_is_not_served_from_the_memo(self, tmp_path):
        service = _service(tmp_path)
        before = service.derive(_request()).options
        service.config = FastTConfig(restart_overhead_seconds=1.0)
        after = service.derive(_request()).options
        assert after != before
        assert after == options_fingerprint(
            worker_module.build_config(service.config, FAST_CONFIG)
        )


class TestInflightGauge:
    """``serve.inflight`` counts searches, not leaders."""

    def _gauge_at_answer(self, service):
        seen = []
        answer = service._answer

        def recording(keys, request_id):
            seen.append(service.metrics.gauge("serve.inflight").value)
            return answer(keys, request_id)

        service._answer = recording
        return seen

    def test_search_raises_it_disk_hit_and_bad_request_do_not(
        self, tmp_path, monkeypatch
    ):
        service = _service(tmp_path)
        during = []
        search = worker_module.search

        def recording_search(*args):
            during.append(service.metrics.gauge("serve.inflight").value)
            return search(*args)

        monkeypatch.setattr(worker_module, "search", recording_search)
        assert service.submit(_request())["source"] == "search"
        assert during == [1]

        fresh = _service(tmp_path)  # its answer is on disk only
        seen = self._gauge_at_answer(fresh)
        assert fresh.submit(_request())["source"] == "cache"
        with pytest.raises(RequestError):
            fresh.submit(_request(model="not_a_model"))
        assert seen == [0, 0]
        assert fresh.metrics.gauge("serve.inflight").value == 0
        assert service.metrics.gauge("serve.inflight").value == 0


class TestPersistedMemo:
    """The graph-fingerprint memo persisted under the store root."""

    def _memo_files(self, tmp_path):
        root = tmp_path / "strategies" / store_module.GRAPH_MEMO_DIRNAME
        return sorted(root.iterdir()) if root.is_dir() else []

    def test_changed_source_misses_the_memo(
        self, tmp_path, session_builds, monkeypatch
    ):
        first = _service(tmp_path).submit(_request())
        assert len(self._memo_files(tmp_path)) == 1

        monkeypatch.setattr(
            store_module.obs_runs, "source_fingerprint", lambda: "other"
        )
        service = _service(tmp_path)
        del session_builds[:]
        hit = service.submit(_request())
        assert hit["source"] == "cache" and hit["key"] == first["key"]
        assert session_builds == ["lenet"]  # the old memo was not reused
        assert len(self._memo_files(tmp_path)) == 2  # one per source tree

    @pytest.mark.parametrize("content", [
        b"", b'{"schema": 1, "kind": "repro.gr', b"\xff\xfe garbage",
        b'{"schema": 1, "kind": "repro.graph-memo", "key": [], "graph": "x"}',
        b"[1, 2, 3]",
    ])
    def test_corrupt_memo_is_deleted_counted_and_rebuilt(
        self, tmp_path, session_builds, content
    ):
        first = _service(tmp_path).submit(_request())
        (path,) = self._memo_files(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(content)

        service = _service(tmp_path)
        del session_builds[:]
        hit = service.submit(_request())
        assert hit["source"] == "cache" and hit["key"] == first["key"]
        assert session_builds == ["lenet"]
        assert service.metrics.counter("serve.store.memo_errors").value == 1
        assert service.stats.errors == 0
        assert path.read_bytes() == intact  # rewritten by the rebuild

    def test_failed_memo_write_is_counted_apart(
        self, tmp_path, session_builds, monkeypatch
    ):
        replace = os.replace

        def no_space_for_memos(src, dst):
            if os.sep + store_module.GRAPH_MEMO_DIRNAME + os.sep in str(dst):
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(store_module.os, "replace", no_space_for_memos)
        service = _service(tmp_path)
        assert service.submit(_request())["source"] == "search"
        assert service.metrics.counter("serve.store.memo_errors").value == 1
        assert service.metrics.counter("serve.store.write_errors").value == 0
        memo_dir = tmp_path / "strategies" / store_module.GRAPH_MEMO_DIRNAME
        assert os.listdir(memo_dir) == []  # no .tmp. file left behind
        samples = parse_prometheus(service.metrics_document())
        assert sample_value(samples, "repro_serve_store_memo_errors_total") == 1

        monkeypatch.setattr(store_module.os, "replace", replace)
        del session_builds[:]
        fresh = _service(tmp_path)  # nothing persisted: builds again
        assert fresh.submit(_request())["source"] == "cache"
        assert session_builds == ["lenet"]
        assert len(self._memo_files(tmp_path)) == 1

    def test_memory_only_store_persists_no_memo(self, tmp_path, session_builds):
        store = StrategyStore(root=str(tmp_path / "strategies"), persist=False)
        service = StrategyService(store=store)
        service.submit(_request())
        assert service.submit(_request())["source"] == "cache"
        assert session_builds == ["lenet"]
        assert not (tmp_path / "strategies").exists()


class TestWriteFailures:
    def test_failed_store_write_still_answers(self, tmp_path, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store_module.os, "replace", no_space)
        service = _service(tmp_path)
        first = service.submit(_request())
        assert first["source"] == "search"
        assert service.metrics.counter("serve.store.write_errors").value == 1
        assert service.stats.errors == 0
        root = tmp_path / "strategies"
        assert not [p for p in os.listdir(root) if ".tmp." in p]

        # The finished search is kept in memory: the repeat is a hit.
        assert service.submit(_request())["source"] == "cache"
        assert service.stats.searches == 1

    def test_failed_access_log_write_is_counted(self, tmp_path):
        class FullDisk:
            name = "full.jsonl"

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

        service = _service(tmp_path, access_log=FullDisk())
        answer = service.submit(_request())
        assert answer["source"] == "search"
        assert service.metrics.counter("serve.access_log.errors").value == 1
        samples = parse_prometheus(service.metrics_document())
        assert sample_value(
            samples, "repro_serve_access_log_errors_total"
        ) == 1
