"""StrategyStore: fingerprint cache semantics, LRU, schema hygiene."""

import errno
import hashlib
import json
import os
import random

import pytest

from repro.core import Strategy
from repro.graph.delta import diff_signatures
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


def full_scan_find_similar(store, signature, *, cluster=None, options=None,
                           max_ratio=None):
    """The lookup before the store kept an index: load every entry in
    key order, then filter, diff and keep the fewest edits."""
    best = None
    best_edits = -1
    for key in store.keys():
        entry = store._lru.get(key) or store._load(key)
        if entry is None:
            continue
        if cluster and entry.fingerprints.get("cluster") != cluster:
            continue
        if options and entry.fingerprints.get("options") != options:
            continue
        if not entry.signature:
            continue
        delta = diff_signatures(entry.signature, signature)
        kwargs = {} if max_ratio is None else {"max_ratio": max_ratio}
        if not delta.is_warm_startable(**kwargs):
            continue
        edits = delta.structural_edits + len(delta.changed)
        if best is None or edits < best_edits:
            best = (entry, delta)
            best_edits = edits
    return best


RATIOS = [None, 0.0, 0.05, 0.25, 0.5, 1.0]


def _signature(rng, family, size, batch):
    """``size`` ops of one op-name family, a few swapped for later
    names; digests depend on the batch, one op in ten perturbed."""
    names = [f"{family}/op{i}" for i in range(size + 8)]
    chosen = names[:size]
    for _ in range(rng.randint(0, 2)):
        if chosen:
            chosen[rng.randrange(len(chosen))] = names[rng.randrange(size, size + 8)]
    return {
        name: f"{name}@{batch}" + ("~" if rng.random() < 0.1 else "")
        for name in chosen
    }


def _sizes_near_bounds(size):
    """Op counts on both sides of every ratio bound around ``size``."""
    out = set()
    for ratio in RATIOS:
        ratio = 0.25 if ratio is None else ratio
        low = size * (1 - ratio)
        out.update({int(low) - 1, int(low), int(low) + 1})
        if ratio < 1:
            high = size / (1 - ratio)
            out.update({int(high) - 1, int(high), int(high) + 1})
    return sorted(n for n in out if 0 < n <= 2 * size)


def _generated_store(root, seed):
    """A store of mixed clusters, options, batch variants and op
    counts, with duplicated signatures (equal-edit ties) and an entry
    with no signature; returns it and the query signatures."""
    rng = random.Random(seed)
    store = StrategyStore(root=root, capacity=8)
    size = rng.randint(8, 40)
    sizes = _sizes_near_bounds(size) + [rng.randint(1, 2 * size) for _ in range(6)]
    signatures = []
    for index, ops in enumerate(sizes):
        signature = _signature(rng, rng.choice("fg"), ops, rng.choice([32, 64]))
        signatures.append(signature)
        for copy in range(rng.choice([1, 1, 2])):  # a copy ties
            store.put(_entry(
                f"k{rng.randrange(10 ** 6):06d}-{index}-{copy}",
                cluster=rng.choice(["c1", "c2"]),
                options=rng.choice(["o1", "o2"]),
                signature=signature,
            ))
    empty = _entry("k-empty", cluster="c1", options="o1")
    empty.signature = {}
    store.put(empty)
    queries = [_signature(rng, "f", size, batch) for batch in (32, 64)]
    queries += [rng.choice(signatures), {}]
    return store, queries


def _assert_same_lookups(store, queries):
    for signature in queries:
        for cluster, options in [("c1", "o1"), ("c2", "o2"), ("c1", None),
                                 (None, None)]:
            for ratio in RATIOS:
                kwargs = {"cluster": cluster, "options": options,
                          "max_ratio": ratio}
                expected = full_scan_find_similar(store, signature, **kwargs)
                got = store.find_similar(signature, **kwargs)
                if expected is None:
                    assert got is None, kwargs
                else:
                    assert got is not None, kwargs
                    assert got[0].key == expected[0].key, kwargs
                    assert got[1] == expected[1], kwargs


class TestIndexedFindSimilar:
    """The indexed lookup against the full scan it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_scan(self, tmp_path, seed):
        store, queries = _generated_store(str(tmp_path), seed)
        _assert_same_lookups(store, queries)  # index filled by put
        cold = StrategyStore(root=str(tmp_path), capacity=8)
        _assert_same_lookups(cold, queries)  # index filled lazily
        _assert_same_lookups(cold, queries)  # and now warm

    def test_memory_only_store_matches_full_scan(self, tmp_path):
        store, queries = _generated_store(str(tmp_path / "disk"), 99)
        memory = StrategyStore(capacity=1000, persist=False)
        for key in store.keys():
            memory.put(store._load(key))
        _assert_same_lookups(memory, queries)

    def test_tie_goes_to_first_key(self, tmp_path):
        store = StrategyStore(root=str(tmp_path), capacity=8)
        for key in ("k3", "k1", "k2"):
            store.put(_entry(key, signature={"a": "1", "b": "2"}))
        match = store.find_similar({"a": "1", "b": "9"}, cluster="c1",
                                   options="o1")
        assert match is not None and match[0].key == "k1"

    def test_warm_index_opens_no_ruled_out_entry(self, tmp_path, monkeypatch):
        sizes = [5 + i % 20 for i in range(1000)]
        writer = StrategyStore(root=str(tmp_path), capacity=1)
        for i, ops in enumerate(sizes):
            writer.put(_entry(
                f"k{i:04d}", cluster=f"c{i % 10}", options=f"o{i % 5}",
                signature={f"op{j}": f"{i}" for j in range(ops)},
            ))
        store = StrategyStore(root=str(tmp_path), capacity=1)
        query = {f"op{j}": "x" for j in range(10)}
        store.find_similar(query, cluster="c1", options="o1")  # warms the index

        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(store_module, "open", counting_open, raising=False)
        far = {f"op{j}": "x" for j in range(100)}  # >= 4x every entry
        assert store.find_similar(query, cluster="nope", options="o1") is None
        assert store.find_similar(query, cluster="c1", options="nope") is None
        assert store.find_similar(far, cluster="c1", options="o1") is None
        assert store.find_similar(far) is None
        assert opened == []

        # k0001 matches exactly; no later entry can beat zero edits.
        exact = {f"op{j}": "1" for j in range(6)}
        match = store.find_similar(exact, cluster="c1", options="o1")
        assert match is not None and match[0].key == "k0001"
        assert match[1].identical
        assert opened == [str(tmp_path / "k0001.json")]


class TestCorruptEntryUnderWarmIndex:
    @pytest.mark.parametrize("content", [b"", b'{"schema": 1, "ke', b"\xff\xfe"])
    def test_truncated_entry_is_skipped_and_dropped(self, tmp_path, content):
        events = EventBus()
        seen = []
        events.subscribe(lambda e: seen.append(e) if e.kind == "serve.evict" else None)
        store = StrategyStore(root=str(tmp_path), capacity=8, events=events)
        store.put(_entry("near", signature={"a": "1", "b": "2"}))
        store.put(_entry("far", signature={"a": "1", "b": "3"}))
        store.clear_memory()
        query = {"a": "1", "b": "2"}
        assert store.find_similar(query)[0].key == "near"  # index warm

        path = tmp_path / "near.json"
        path.write_bytes(content)
        match = store.find_similar(query)
        assert match is not None and match[0].key == "far"
        assert not path.exists()
        assert "near" not in store._index
        assert [e.data["key"] for e in seen] == ["near.json"]
        assert store.find_similar(query)[0].key == "far"
