"""Cross-request race hardening: metrics, event bus, comm-model caches,
strategy store.

The strategy service runs N searches in one process concurrently; the
pieces they may share — a MetricsRegistry, an EventBus, a profiled
CommunicationCostModel — must tolerate that without losing updates or
corrupting their lazy caches.
"""

import os
import sys
import threading

from repro.costmodel import CommunicationCostModel
from repro.obs import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.serve import StrategyStore


def _hammer(n_threads, fn):
    errors = []

    def worker(i):
        try:
            fn(i)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestMetricsUnderContention:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress.counter")
        per_thread = 5000

        _hammer(8, lambda i: [counter.inc() for _ in range(per_thread)])
        assert counter.value == 8 * per_thread

    def test_timer_accumulation_is_not_lost(self):
        registry = MetricsRegistry()
        timer = registry.timer("stress.timer")
        per_thread = 2000

        _hammer(8, lambda i: [timer.add(0.001) for _ in range(per_thread)])
        assert timer.count == 8 * per_thread
        assert abs(timer.seconds - 8 * per_thread * 0.001) < 1e-6


class TestEventBusUnderContention:
    def test_sequence_numbers_unique_and_complete(self):
        bus = EventBus()
        seen = []
        lock = threading.Lock()

        @bus.subscribe
        def collect(event):
            with lock:
                seen.append(event.seq)

        per_thread = 1000
        _hammer(8, lambda i: [bus.emit("stress", i=i)
                              for _ in range(per_thread)])
        assert len(seen) == 8 * per_thread
        assert len(set(seen)) == len(seen)  # no duplicate seq
        assert sorted(seen) == list(range(1, 8 * per_thread + 1))


class TestCommunicationModelUnderContention:
    def test_concurrent_observe_and_query(self):
        model = CommunicationCostModel(
            pair_class=lambda a, b: "cls", max_samples_per_pair=64
        )
        pairs = [("/gpu:0", "/gpu:1"), ("/gpu:1", "/gpu:0"),
                 ("/gpu:0", "/gpu:2"), ("/gpu:2", "/gpu:1")]

        def mixed(i):
            src, dst = pairs[i % len(pairs)]
            for step in range(500):
                model.observe(src, dst, 1024 * (step + 1), 1e-6 * (step + 1))
                value = model.time(src, dst, 4096)
                assert value >= 0.0
                # Unknown pair exercises class + global fallbacks (the
                # lazily-refit caches the lock protects).
                assert model.time("/gpu:7", "/gpu:8", 4096) >= 0.0

        _hammer(8, mixed)
        assert model.num_pairs == len(pairs)


class TestStrategyStoreUnderContention:
    """Worker threads share one store: its LRU, its find_similar index
    and its on-disk files."""

    def _switch_often(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        return previous

    def test_index_survives_concurrent_put_and_lookup(self, tmp_path):
        from tests.serve.test_store import _entry, full_scan_find_similar

        store = StrategyStore(root=str(tmp_path), capacity=4)
        signatures = {
            i: {f"op{j}": f"{i}" for j in range(4 + i % 3)} for i in range(8)
        }

        def work(i):
            for n in range(12):
                store.put(_entry(f"k{i}-{n:02d}", signature=signatures[i]))
                store.find_similar(signatures[(i + 1) % 8], cluster="c1",
                                   options="o1")

        previous = self._switch_often()
        try:
            _hammer(8, work)
        finally:
            sys.setswitchinterval(previous)
        assert sorted(store._index) == store.keys()
        assert len(store.keys()) == 8 * 12
        for signature in signatures.values():
            got = store.find_similar(signature, cluster="c1", options="o1")
            expected = full_scan_find_similar(store, signature, cluster="c1",
                                              options="o1")
            assert got[0].key == expected[0].key and got[1] == expected[1]

    def test_concurrent_writes_of_one_memo_all_land(self, tmp_path):
        store = StrategyStore(root=str(tmp_path))
        results = []

        def work(i):
            for _ in range(20):
                results.append(
                    store.remember_graph_fingerprint("lenet", 64, "c", "fp")
                )

        previous = self._switch_often()
        try:
            _hammer(8, work)
        finally:
            sys.setswitchinterval(previous)
        assert results == [True] * 8 * 20
        (name,) = os.listdir(tmp_path / "graphs")  # no .tmp. file left
        assert store.graph_fingerprint("lenet", 64, "c") == "fp"
