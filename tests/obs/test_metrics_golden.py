"""Frozen metrics: any change to what a run or the service counts fails.

``golden/metrics_snapshots.json`` holds three kinds of record:

* ``engine``: per case, the sha256 of ``json.dumps(snapshot,
  sort_keys=True)`` for an observed ``repro.optimize`` run, with the one
  wall-clock key (``calculator.algorithm.seconds``) dropped.  The cases
  are lenet and vgg19 on ``pcie:4`` and a 5,008-op MLP through the
  coarse search.
* ``serve``: the service registry after a scripted request mix on a
  one-entry in-memory store (hits, misses, warm starts, a warm
  fallback, evictions, a coalesced follower and a follower timeout):
  every key, the exact value of every counter and gauge, and the
  ``.count`` of every histogram.
* ``exposition``: the ``# HELP``/``# TYPE`` lines and the series
  (family name and labels, ``le`` aside) of the service's Prometheus
  document after the same mix.

Regenerate (only when a change to the metrics is intended) with::

    PYTHONPATH=src python tests/obs/test_metrics_golden.py --write
"""

import hashlib
import json
import os
import sys
from concurrent.futures import Future

import pytest

import repro
from repro.core import FastTConfig, SearchOptions
from repro.models.layers import LayerHelper
from repro.obs import Observability
from repro.obs.prometheus import parse_prometheus
from repro.serve import (
    ServeTimeout,
    StrategyService,
    StrategyStore,
    normalize_request,
    request_fingerprint,
)
from repro.serve.store import STORE_SCHEMA_VERSION

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden",
    "metrics_snapshots.json",
)

#: The one engine metric that measures wall-clock, not the run.
WALL_CLOCK_KEYS = ("calculator.algorithm.seconds",)

#: 455 dense layers: a 5,008-op training graph.
MLP5K_LAYERS = 455

FAST_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 2},
}


def _mlp5k(graph, prefix, batch):
    net = LayerHelper(graph, prefix)
    x = net.placeholder("x", (batch, 64))
    for i in range(MLP5K_LAYERS):
        x = net.dense(x, f"fc{i}", 64, relu=True)
    return net.softmax_loss(x)


def _optimize(model, topology, **kwargs):
    obs = Observability()
    repro.optimize(model, topology, obs=obs, run_dir=False, **kwargs)
    snapshot = {
        k: v for k, v in obs.snapshot().items() if k not in WALL_CLOCK_KEYS
    }
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


ENGINE_CASES = {
    "optimize-lenet-pcie4": lambda: _optimize("lenet", "pcie:4"),
    "optimize-vgg19-pcie4": lambda: _optimize("vgg19", "pcie:4"),
    "optimize-mlp5k-coarse": lambda: _optimize(
        _mlp5k, "pcie:2", global_batch=2, model_name="mlp5k",
        config=FastTConfig(search=SearchOptions(coarsen=True)),
    ),
}


def _request(batch, **extra):
    request = {
        "model": "lenet", "topology": "pcie:2", "global_batch": batch,
        "config": FAST_CONFIG,
    }
    request.update(extra)
    return request


def _request_key(request):
    return request_fingerprint(normalize_request(request), STORE_SCHEMA_VERSION)


def _serve_mix():
    """A scripted mix on a one-entry store; returns the service."""
    import time

    service = StrategyService(store=StrategyStore(persist=False, capacity=1))
    responses = [
        service.submit(_request(batch), queued_at=time.monotonic())
        for batch in (64, 64, 96, 64)
    ]
    assert [r["source"] for r in responses] == [
        "search", "cache", "warm", "search",
    ]
    # A follower of a leader that has already answered.
    leader = Future()
    leader.set_result(responses[-1])
    service._inflight[_request_key(_request(128))] = leader
    assert service.submit(_request(128))["coalesced"] is True
    # A follower of a wedged leader gives up at its deadline.
    service._inflight[_request_key(_request(32))] = Future()
    with pytest.raises(ServeTimeout):
        service.submit(_request(32, timeout=0.05))
    return service


def _serve_record(service):
    histograms = {h.name for h in service.metrics.histograms()}
    record = {}
    for key, value in service.metrics.snapshot().items():
        name, _, field = key.rpartition(".")
        if name in histograms:
            if field == "count":
                record[key] = value
            else:
                record[key] = None  # wall-clock: only its presence counts
        else:
            record[key] = value
    return record


def _exposition_record(service):
    document = service.metrics_document()
    headers = [line for line in document.splitlines() if line.startswith("# ")]
    series = sorted(
        {
            name + json.dumps([p for p in labels if p[0] != "le"])
            for name, labels in parse_prometheus(document)
        }
    )
    return {"headers": headers, "series": series}


def _serve_records():
    service = _serve_mix()
    return _serve_record(service), _exposition_record(service)


def _load():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_snapshot_matches_golden(case):
    assert ENGINE_CASES[case]() == _load()["engine"][case]


def test_engine_golden_covers_every_case():
    assert set(_load()["engine"]) == set(ENGINE_CASES)


@pytest.fixture(scope="module")
def serve_records():
    return _serve_records()


def test_serve_registry_matches_golden(serve_records):
    assert serve_records[0] == _load()["serve"]


def test_serve_stats_read_the_registry(serve_records):
    counters = serve_records[0]
    expected = {
        "requests": 6, "hits": 1, "misses": 3, "coalesced": 2,
        "searches": 3, "warm_starts": 2, "warm_fallbacks": 1,
        "evictions": 2, "errors": 0, "timeouts": 1,
    }
    assert {f: counters[f"serve.{f}"] for f in expected} == expected


def test_exposition_families_match_golden(serve_records):
    assert serve_records[1] == _load()["exposition"]


def _write() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    serve, exposition = _serve_records()
    document = {
        "schema": 1,
        "engine": {name: ENGINE_CASES[name]() for name in sorted(ENGINE_CASES)},
        "serve": serve,
        "exposition": exposition,
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_metrics_golden.py --write")
    _write()
