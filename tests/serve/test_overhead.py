"""Telemetry overhead pin for the strategy service.

Mirrors ``tests/obs/test_run_overhead.py`` for the serving layer: full
telemetry (latency histograms + JSONL access log) must not change the
strategies the service returns, and must stay within a generous
wall-clock budget of a telemetry-off service.  The budget is loose on
purpose (CI hosts are noisy); the strategy-identity check is the sharp
edge — any behavioural leak from instrumentation shows up there.
"""

import gc
import time

from repro.obs import NullMetricsRegistry
from repro.serve import StrategyService, StrategyStore

FAST_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 2},
}

#: Telemetry-on wall-clock may be at most this multiple of telemetry-off.
OVERHEAD_BUDGET = 1.5

#: Batches exercised per side: one search each, then one cache hit each.
BATCHES = (64, 96)


def _run_requests(service):
    # Start each side with no collection pending.  Inside the whole suite
    # the heap holds ~120k tracked objects left by earlier tests, and a
    # full collection over them (~70 ms) otherwise lands on one timed
    # side at random.
    gc.collect()
    start = time.perf_counter()
    responses = []
    for batch in BATCHES + BATCHES:
        responses.append(service.submit({
            "model": "lenet", "topology": "pcie:2",
            "global_batch": batch, "config": FAST_CONFIG,
        }))
    return responses, time.perf_counter() - start


def _strategy_tuples(responses):
    return [
        (
            sorted(r["strategy"]["placement"].items()),
            list(r["strategy"]["order"]),
            [tuple(d) for d in r["strategy"]["split_list"]],
            r["strategy"]["label"],
        )
        for r in responses
    ]


def test_full_telemetry_changes_nothing_and_stays_cheap(tmp_path):
    # Warm shared caches (model registry, cost-model memos) so the two
    # timed sides see the same world.
    warm = StrategyService(store=StrategyStore(persist=False))
    warm.submit({
        "model": "lenet", "topology": "pcie:2", "config": FAST_CONFIG,
    })

    plain = StrategyService(
        store=StrategyStore(persist=False),
        metrics=NullMetricsRegistry(),
    )
    plain_responses, plain_seconds = _run_requests(plain)

    observed = StrategyService(
        store=StrategyStore(persist=False),
        access_log=str(tmp_path / "access.jsonl"),
    )
    observed_responses, observed_seconds = _run_requests(observed)

    # 1. Byte-identical strategies, hit/miss pattern included.
    assert _strategy_tuples(observed_responses) == (
        _strategy_tuples(plain_responses)
    )
    assert [r["source"] for r in observed_responses] == (
        [r["source"] for r in plain_responses]
    )

    # 2. Telemetry actually recorded on the observed side...
    snap = observed.metrics.snapshot()
    assert snap["serve.request.latency.count"] == len(BATCHES) * 2
    assert (tmp_path / "access.jsonl").read_text().count("\n") == (
        len(BATCHES) * 2
    )
    # ...and nothing on the plain side.
    assert plain.metrics.snapshot() == {}

    # 3. Bounded overhead (guarded against a ~0s denominator).
    floor = 0.05
    assert observed_seconds <= max(plain_seconds, floor) * OVERHEAD_BUDGET + floor
