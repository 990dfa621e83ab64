"""StrategyStore: fingerprint cache semantics, LRU, schema hygiene."""

import errno
import hashlib
import json
import os

import pytest

from repro.core import Strategy
from repro.graph.rewrite import SplitDecision
from repro.obs import EventBus
from repro.serve import store as store_module
from repro.serve.store import (
    STORE_SCHEMA_VERSION,
    StoredStrategy,
    StoreSchemaError,
    StrategyStore,
    request_fingerprint,
)


def _entry(key, *, cluster="c1", options="o1", signature=None, batch=64):
    strategy = Strategy(
        placement={"a": "/gpu:0", "b": "/gpu:1"},
        order=["a", "b"],
        split_list=[SplitDecision("a", 0, 2)],
        estimated_time=0.25,
        label="os-dpos",
    )
    return StoredStrategy(
        key=key,
        fingerprints={"graph": f"g-{key}", "cluster": cluster,
                      "options": options, "combined": key},
        model="mlp",
        global_batch=batch,
        devices=2,
        strategy=strategy,
        makespan=0.5,
        training_speed=128.0,
        signature=signature or {"a": "1111", "b": "2222"},
    )


class TestRequestFingerprint:
    def test_byte_compatible_with_harness_digest(self):
        """The helper must reproduce the harness trial cache's original
        inline digest exactly, or migrating the harness onto it would
        orphan every existing cache entry."""
        key = {"experiment": "fig7", "model": "vgg19", "version": 6}
        legacy = hashlib.sha256(
            json.dumps({"schema": 2, "key": key}, sort_keys=True).encode()
        ).hexdigest()[:24]
        assert request_fingerprint(key, 2) == legacy

    def test_sensitive_to_schema_and_key(self):
        assert request_fingerprint({"a": 1}, 1) != request_fingerprint({"a": 1}, 2)
        assert request_fingerprint({"a": 1}, 1) != request_fingerprint({"a": 2}, 1)

    def test_key_order_irrelevant(self):
        assert request_fingerprint({"a": 1, "b": 2}, 1) == request_fingerprint(
            {"b": 2, "a": 1}, 1
        )


class TestRoundtrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=4)
        store.put(_entry("k1"))
        got = store.get("k1")
        assert got is not None
        assert got.strategy.placement == {"a": "/gpu:0", "b": "/gpu:1"}
        assert got.strategy.split_list == [SplitDecision("a", 0, 2)]
        assert got.makespan == 0.5
        assert got.created_at > 0

    def test_disk_survives_memory_flush(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=4)
        store.put(_entry("k1"))
        store.clear_memory()
        assert store.get("k1") is not None
        # And a second store over the same root sees it too.
        other = StrategyStore(root=str(tmp_path), capacity=4)
        assert other.get("k1") is not None

    def test_memory_only_store(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=4, persist=False)
        store.put(_entry("k1"))
        assert store.get("k1") is not None
        assert not os.path.exists(os.path.join(str(tmp_path), "k1.json"))
        store.clear_memory()
        assert store.get("k1") is None

    def test_missing_key(self, tmp_path):
        store = StrategyStore(root=str(tmp_path))
        assert store.get("nope") is None

    @pytest.mark.parametrize("target", [
        (store_module.os, "replace"),  # full write, failed rename
        (store_module.json, "dump"),   # tmp file opened, write failed
        (store_module, "open"),        # tmp file never created
    ])
    def test_failed_write_keeps_memory_tier(self, tmp_path, monkeypatch, target):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        owner, name = target
        monkeypatch.setattr(owner, name, no_space, raising=False)
        store = StrategyStore(root=str(tmp_path), capacity=4)
        assert store.put(_entry("k1")) is False
        monkeypatch.undo()
        assert os.listdir(str(tmp_path)) == []  # no *.json.tmp.<pid> left
        assert store.get("k1") is not None
        assert store.put(_entry("k2")) is True


class TestSchemaHygiene:
    def test_unknown_schema_invalidated_on_read(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=4)
        store.put(_entry("k1"))
        path = os.path.join(str(tmp_path), "k1.json")
        with open(path) as handle:
            document = json.load(handle)
        document["schema"] = STORE_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        store.clear_memory()
        assert store.get("k1") is None
        assert not os.path.exists(path)  # deleted, not kept around

    def test_corrupt_json_invalidated(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=4)
        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        assert store.get("bad") is None
        assert not os.path.exists(path)

    def test_from_json_rejects_wrong_kind(self):
        document = _entry("k1").to_json()
        document["kind"] = "something.else"
        with pytest.raises(StoreSchemaError):
            StoredStrategy.from_json(document)


class TestLRU:
    def test_capacity_evicts_lru_with_event(self, tmp_path):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e) if e.kind == "serve.evict" else None)
        store = StrategyStore(
            root=str(tmp_path), capacity=2, events=events
        )
        store.put(_entry("k1"))
        store.put(_entry("k2"))
        store.get("k1")  # k1 is now most-recently-used
        store.put(_entry("k3"))  # evicts k2
        assert [e.data["key"] for e in seen] == ["k2"]
        # Disk tier still answers for the evicted key.
        assert store.get("k2") is not None

    def test_capacity_validation(self, tmp_path):
        with pytest.raises(ValueError):
            StrategyStore(root=str(tmp_path), capacity=0)


class TestFindSimilar:
    def test_finds_matching_cluster_and_options(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=8)
        store.put(_entry("k1", signature={"a": "1", "b": "2"}))
        match = store.find_similar(
            {"a": "1", "b": "CHANGED"}, cluster="c1", options="o1"
        )
        assert match is not None
        entry, delta = match
        assert entry.key == "k1"
        assert delta.changed == ["b"]

    def test_rejects_other_cluster(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=8)
        store.put(_entry("k1", cluster="c1"))
        assert store.find_similar(
            {"a": "1", "b": "2"}, cluster="OTHER", options="o1"
        ) is None

    def test_rejects_structurally_distant(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=8)
        store.put(_entry("k1", signature={"a": "1", "b": "2"}))
        assert store.find_similar(
            {"x": "9", "y": "8", "z": "7"}, cluster="c1", options="o1"
        ) is None

    def test_prefers_fewest_edits(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=8)
        store.put(_entry("far", signature={"a": "1", "b": "OLD"}))
        store.put(_entry("near", signature={"a": "1", "b": "2"}))
        match = store.find_similar(
            {"a": "1", "b": "2"}, cluster="c1", options="o1"
        )
        assert match is not None
        assert match[0].key == "near"
