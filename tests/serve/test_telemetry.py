"""Service-grade telemetry: histograms, exposition, correlation, deadlines.

Everything ISSUE 10's observability tentpole promises, counter- and
document-verified:

* every request shows up in the latency histogram, and the Prometheus
  exposition's ``repro_serve_requests_total`` /
  ``repro_serve_request_latency_seconds_count`` agree exactly with the
  ``stats`` endpoint (the CI smoke gate cross-check, in miniature);
* a client-supplied ``request_id`` flows through the response, the
  JSONL access log, the run manifest, and ``runs show`` output — and
  the reverse lookup (access log line -> ``run_id``) holds;
* coalesced followers respect per-request deadlines
  (:class:`ServeTimeout` + ``stats.timeouts``) instead of hanging;
* the slow-request watchdog degrades ``/healthz`` while readiness
  tracks store/shutdown state;
* the plain-HTTP observability listener serves scrapeable documents.
"""

import asyncio
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.prometheus import parse_prometheus, sample_value
from repro.serve import (
    Client,
    ServeTimeout,
    ServiceError,
    ServiceTimeout,
    StrategyService,
    StrategyStore,
    normalize_request,
    request_fingerprint,
    serve_forever,
)
from repro.serve.store import STORE_SCHEMA_VERSION

FAST_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 2},
}


def _service(tmp_path, **kwargs):
    store = StrategyStore(root=str(tmp_path / "strategies"), capacity=16)
    return StrategyService(store=store, **kwargs)


def _request(**overrides):
    request = {"model": "lenet", "topology": "pcie:2", "config": FAST_CONFIG}
    request.update(overrides)
    return request


class TestHistogramsAndExposition:
    def test_every_request_lands_in_the_latency_histogram(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request())           # search
        service.submit(_request())           # cache hit
        snap = service.metrics.snapshot()
        assert snap["serve.request.latency.count"] == 2
        assert snap["serve.request.latency{outcome=search}.count"] == 1
        assert snap["serve.request.latency{outcome=cache}.count"] == 1
        # Store lookups and the search itself were timed too.
        assert snap["serve.store.lookup{result=miss}.count"] == 1
        assert snap["serve.store.lookup{result=hit}.count"] == 1
        assert snap["serve.search{result=ok,seed=cold}.count"] == 1

    def test_exposition_agrees_with_stats(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request())
        service.submit(_request())
        samples = parse_prometheus(service.metrics_document())
        stats = service.stats.to_json()
        assert sample_value(samples, "repro_serve_requests_total") == (
            stats["requests"]
        )
        assert sample_value(
            samples, "repro_serve_request_latency_seconds_count"
        ) == stats["requests"]
        assert sample_value(samples, "repro_serve_hits_total") == (
            stats["hits"]
        )
        assert sample_value(samples, "repro_serve_searches_total") == (
            stats["searches"]
        )

    def test_fresh_service_exposes_zero_families(self, tmp_path):
        from repro.serve.service import ServiceStats

        samples = parse_prometheus(_service(tmp_path).metrics_document())
        for field in ServiceStats.__dataclass_fields__:
            assert sample_value(samples, f"repro_serve_{field}_total") == 0
        for name in ("store_write_errors", "store_memo_errors",
                     "access_log_errors"):
            assert sample_value(samples, f"repro_serve_{name}_total") == 0
        assert sample_value(samples, "repro_serve_inflight") == 0
        assert sample_value(
            samples, "repro_serve_request_latency_seconds_count"
        ) == 0

    def test_stats_counters_mirror_into_registry(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request())
        snap = service.metrics.snapshot()
        for field, value in service.stats.to_json().items():
            assert snap.get(f"serve.{field}", 0) == value

    def test_null_registry_disables_recording(self, tmp_path):
        from repro.obs import NullMetricsRegistry

        service = _service(tmp_path, metrics=NullMetricsRegistry())
        service.submit(_request())
        assert service.metrics.snapshot() == {}
        # The stats endpoint reads the registry, so it reads zeros too.
        assert service.stats.requests == 0


class TestRequestCorrelation:
    def test_request_id_flows_to_response_log_manifest_and_show(
        self, tmp_path, capsys
    ):
        from repro.obs.__main__ import main as obs_cli
        from repro.obs.runs import RunRegistry

        access = tmp_path / "access.jsonl"
        runs_root = str(tmp_path / "runs")
        service = _service(
            tmp_path, access_log=str(access),
            record_runs=True, runs_root=runs_root,
        )
        response = service.submit(_request(request_id="req-abc123"))
        assert response["request_id"] == "req-abc123"
        run_id = response["run_id"]
        assert run_id

        # Access log: request id -> outcome + run id (reverse lookup).
        lines = [json.loads(line) for line in access.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["request_id"] == "req-abc123"
        assert lines[0]["run_id"] == run_id
        assert lines[0]["outcome"] == "search"
        assert lines[0]["total_s"] >= lines[0]["search_s"] > 0

        # Manifest: run id -> request id (forward lookup).
        manifest = RunRegistry(runs_root).load(run_id)
        assert manifest.request_id == "req-abc123"
        assert manifest.status == "completed"

        # `show` prints the originating request.
        assert obs_cli(["--runs-dir", runs_root, "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "request    req-abc123" in out

    def test_server_mints_request_id_when_absent(self, tmp_path):
        service = _service(tmp_path)
        response = service.submit(_request())
        assert len(response["request_id"]) == 16

    def test_request_id_and_timeout_do_not_affect_coalescing_identity(self):
        plain = normalize_request(_request())
        tagged = normalize_request(
            _request(request_id="x", timeout=5.0)
        )
        assert plain == tagged
        assert request_fingerprint(plain, STORE_SCHEMA_VERSION) == (
            request_fingerprint(tagged, STORE_SCHEMA_VERSION)
        )

    def test_cached_answer_reports_producing_run(self, tmp_path):
        service = _service(
            tmp_path, record_runs=True, runs_root=str(tmp_path / "runs"),
        )
        first = service.submit(_request())
        second = service.submit(_request())
        assert second["source"] == "cache"
        assert second["run_id"] == first["run_id"] != ""

    def test_log_records_carry_the_request_id(self, tmp_path):
        import io

        from repro.obs import log as obs_log

        stream = io.StringIO()
        handler = obs_log.configure("info", stream=stream)
        try:
            service = _service(tmp_path, record_runs=False)
            service.submit(_request(request_id="logme9876"))
        finally:
            import logging

            logging.getLogger(obs_log.ROOT_LOGGER).removeHandler(handler)
        logged = stream.getvalue()
        assert "logme9876" in logged


class TestDeadlines:
    def test_follower_times_out_with_typed_error(self, tmp_path):
        service = _service(tmp_path)
        document = normalize_request(_request())
        key = request_fingerprint(document, STORE_SCHEMA_VERSION)
        # Wedge a leader by hand: a future that never resolves.
        from concurrent.futures import Future

        stuck = Future()
        service._inflight[key] = stuck
        service._inflight_started[key] = time.monotonic()
        start = time.monotonic()
        with pytest.raises(ServeTimeout) as excinfo:
            service.submit(_request(request_id="late1", timeout=0.2))
        assert time.monotonic() - start < 5.0
        assert excinfo.value.request_id == "late1"
        assert service.stats.timeouts == 1
        assert service.stats.coalesced == 1
        snap = service.metrics.snapshot()
        assert snap["serve.request.latency{outcome=timeout}.count"] == 1
        assert snap["serve.coalesce.wait.count"] == 1

    def test_service_wide_default_timeout_applies(self, tmp_path):
        service = _service(tmp_path, request_timeout=0.2)
        document = normalize_request(_request())
        key = request_fingerprint(document, STORE_SCHEMA_VERSION)
        from concurrent.futures import Future

        service._inflight[key] = Future()
        with pytest.raises(ServeTimeout):
            service.submit(_request())

    def test_timeout_outcome_reaches_the_access_log(self, tmp_path):
        access = tmp_path / "access.jsonl"
        service = _service(tmp_path, access_log=str(access))
        document = normalize_request(_request())
        key = request_fingerprint(document, STORE_SCHEMA_VERSION)
        from concurrent.futures import Future

        service._inflight[key] = Future()
        with pytest.raises(ServeTimeout):
            service.submit(_request(timeout=0.1))
        record = json.loads(access.read_text().splitlines()[-1])
        assert record["outcome"] == "timeout"


class TestHealthAndReadiness:
    def test_fresh_service_is_healthy_and_ready(self, tmp_path):
        service = _service(tmp_path)
        assert service.health()["healthy"] is True
        assert service.readiness()["ready"] is True

    def test_watchdog_degrades_health_on_stuck_request(self, tmp_path):
        service = _service(tmp_path, watchdog_deadline=0.05)
        with service._inflight_lock:
            service._inflight_started["deadbeef" * 5] = (
                time.monotonic() - 10.0
            )
        health = service.health()
        assert health["status"] == "degraded"
        assert health["healthy"] is False
        assert health["stuck"]
        # Readiness is orthogonal: the service can still answer.
        assert service.readiness()["ready"] is True

    def test_shutdown_flips_readiness(self, tmp_path):
        service = _service(tmp_path)
        service._shutting_down = True
        readiness = service.readiness()
        assert readiness["ready"] is False
        assert any("shutting" in r for r in readiness["reasons"])


class _Server:
    """serve_forever on a background thread, with the HTTP listener."""

    def __init__(self, service):
        self.service = service
        self.addr = {}
        self._ready = threading.Event()
        self._metrics_ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(serve_forever(
            self.service, "127.0.0.1", 0,
            ready=self._on_ready,
            metrics_port=0, metrics_ready=self._on_metrics_ready,
        ))

    def _on_ready(self, host, port):
        self.addr["tcp"] = (host, port)
        self._ready.set()

    def _on_metrics_ready(self, host, port):
        self.addr["http"] = (host, port)
        self._metrics_ready.set()

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(30) and self._metrics_ready.wait(30)
        return self

    def __exit__(self, *exc):
        try:
            with Client(*self.addr["tcp"]) as client:
                client.shutdown()
        except OSError:
            pass
        self.thread.join(30)


@pytest.fixture
def server(tmp_path):
    with _Server(_service(tmp_path)) as srv:
        yield srv


class TestHttpListener:
    def _get(self, server, path):
        host, port = server.addr["http"]
        return urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30
        )

    def test_metrics_scrape_parses_and_matches_stats(self, server):
        host, port = server.addr["tcp"]
        with Client(host, port) as client:
            client.optimize(
                "lenet", "pcie:2", config=FAST_CONFIG, request_id="http-1"
            )
            stats = client.stats()["stats"]
        with self._get(server, "/metrics") as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            body = response.read().decode()
        samples = parse_prometheus(body)
        assert sample_value(samples, "repro_serve_requests_total") == (
            stats["requests"]
        )
        assert sample_value(
            samples, "repro_serve_request_latency_seconds_count"
        ) == stats["requests"]

    def test_healthz_and_readyz(self, server):
        with self._get(server, "/healthz") as response:
            assert response.status == 200
            assert json.loads(response.read())["healthy"] is True
        with self._get(server, "/readyz") as response:
            assert response.status == 200
            assert json.loads(response.read())["ready"] is True

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_protocol_verbs_cover_the_same_documents(self, server):
        host, port = server.addr["tcp"]
        with Client(host, port) as client:
            assert "repro_serve_requests_total" in client.metrics()
            assert client.health()["healthy"] is True
            assert client.readiness()["ready"] is True

    def test_client_timeout_surfaces_as_service_timeout(self, server):
        service = server.service
        document = normalize_request(_request())
        key = request_fingerprint(document, STORE_SCHEMA_VERSION)
        from concurrent.futures import Future

        service._inflight[key] = Future()
        host, port = server.addr["tcp"]
        try:
            with Client(host, port) as client:
                with pytest.raises(ServiceTimeout):
                    client.optimize(
                        "lenet", "pcie:2", config=FAST_CONFIG, timeout=0.2
                    )
        finally:
            service._inflight.pop(key, None)


class TestProtocolInput:
    def test_lines_that_are_not_json_objects_get_typed_errors(
        self, server, caplog
    ):
        lines = [b"not json", b"[1, 2]", b'"str"', b'{"op": "ping"}']
        with caplog.at_level(logging.ERROR, logger="repro"):
            with socket.create_connection(server.addr["tcp"], timeout=30) as sock:
                sock.sendall(b"".join(line + b"\n" for line in lines))
                with sock.makefile("rb") as answers:
                    responses = [json.loads(answers.readline()) for _ in lines]
        *errors, pong = responses
        assert [r["status"] for r in errors] == ["error"] * 3
        assert "not JSON" in errors[0]["error"]
        assert errors[1]["error"].endswith("got list")
        assert errors[2]["error"].endswith("got str")
        assert pong == {"status": "ok", "pong": True}
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


    def test_bad_global_batch_gets_a_typed_error(self, server, caplog):
        with caplog.at_level(logging.ERROR, logger="repro"):
            with Client(*server.addr["tcp"]) as client:
                with pytest.raises(ServiceError, match="'global_batch'"):
                    client.optimize("lenet", "pcie:2", global_batch="abc")
                assert client.ping()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


    @pytest.mark.parametrize("request_fields, message", [
        ({"model": "nope"}, "unknown model 'nope'"),
        ({"topology": "nosuch:4"}, "unknown topology preset 'nosuch:4'"),
        ({"topology": {"devices": []}}, "non-empty 'devices' list"),
    ])
    def test_unservable_request_gets_a_typed_error(
        self, server, caplog, request_fields, message
    ):
        request = dict(_request(), **request_fields)
        with caplog.at_level(logging.ERROR, logger="repro"):
            with Client(*server.addr["tcp"]) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.optimize(**request)
                assert message in str(excinfo.value)
                assert "Error:" not in str(excinfo.value)  # not a crash
                answer = client.optimize(**_request())
        assert answer["source"] == "search"
        assert server.service.stats.errors == 1
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


@pytest.fixture
def store_reads(monkeypatch):
    """(method, thread name) of every store and memo file read."""
    reads = []
    for name in ("_load", "graph_fingerprint"):
        original = getattr(StrategyStore, name)

        def recording(self, *args, _name=name, _original=original, **kwargs):
            reads.append((_name, threading.current_thread().name))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(StrategyStore, name, recording)
    return reads


def _on_workers(reads):
    return bool(reads) and all(
        thread.startswith("repro-serve") for _, thread in reads
    )


class TestEventLoopAnswers:
    """In-memory hits are answered on the event loop; the rest is pooled."""

    def test_hit_without_access_log_builds_no_record(
        self, tmp_path, monkeypatch
    ):
        service = _service(tmp_path)
        assert service.access_log is None
        service.submit(_request())  # the answer is now in memory
        keys = service.derive(_request())
        assert service.in_memory(keys)

        def built(record):
            raise AssertionError(f"access-log record built: {record}")

        monkeypatch.setattr(service, "_access", built)
        assert service.submit(_request(), keys=keys)["source"] == "cache"

    def test_hit_is_answered_while_every_worker_is_held(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request())  # the answer is now in memory
        gate = threading.Event()
        held = threading.Semaphore(0)
        answer = service._answer

        def gated(keys, request_id):
            if "global_batch" in keys.document:  # the searches, not the hit
                held.release()
                assert gate.wait(60)
            return answer(keys, request_id)

        service._answer = gated
        with _Server(service) as srv:
            clients = [Client(*srv.addr["tcp"]) for _ in range(service.workers)]
            pending = [
                threading.Thread(
                    target=client.optimize, args=("lenet", "pcie:2"),
                    kwargs={"global_batch": 8 + index, "config": FAST_CONFIG},
                )
                for index, client in enumerate(clients)
            ]
            try:
                for thread in pending:
                    thread.start()
                for _ in pending:
                    assert held.acquire(timeout=60)
                with Client(*srv.addr["tcp"], timeout=30) as client:
                    hit = client.optimize(**_request())
                assert not gate.is_set()
                assert hit["source"] == "cache"
            finally:
                gate.set()
                for thread in pending:
                    thread.join(60)
                for client in clients:
                    client.close()
        assert not any(thread.is_alive() for thread in pending)
        assert service.stats.searches == 1 + service.workers

    def test_loop_hit_is_the_same_hit_counted_once(self, tmp_path, store_reads):
        access = tmp_path / "access.jsonl"
        service = _service(tmp_path, access_log=str(access))
        service.submit(_request())
        in_process = service.submit(_request())
        assert in_process["source"] == "cache"
        with _Server(service) as srv:
            del store_reads[:]
            with Client(*srv.addr["tcp"]) as client:
                hit = client.optimize(**_request(request_id="loop-hit"))
                exposition = client.metrics()
        assert store_reads == []  # no store or memo file was read
        assert hit["request_id"] == "loop-hit"
        assert {k: v for k, v in hit.items() if k != "request_id"} == {
            k: v for k, v in in_process.items() if k != "request_id"
        }
        stats = service.stats
        assert (stats.requests, stats.hits, stats.searches) == (3, 2, 1)
        samples = parse_prometheus(exposition)
        assert sample_value(samples, "repro_serve_requests_total") == 3
        assert sample_value(
            samples, "repro_serve_request_latency_seconds_count"
        ) == 3
        assert sample_value(
            samples, "repro_serve_request_latency_seconds_count",
            outcome="cache",
        ) == 2
        records = [json.loads(line) for line in access.read_text().splitlines()]
        assert [r["outcome"] for r in records] == ["search", "cache", "cache"]
        assert records[-1]["request_id"] == "loop-hit"
        assert records[-1]["key"] == hit["key"]

    def test_concurrent_mix_counts_every_request_once(self, tmp_path):
        access = tmp_path / "access.jsonl"
        service = _service(tmp_path, workers=3, access_log=str(access))
        service.submit(_request())  # one answer in memory from the start
        batches = [None, 24, None, 40, None, 24, None, 40]
        replies, failures = [], []

        def client_loop(index):
            try:
                with Client(*srv.addr["tcp"]) as client:
                    for batch in batches[index % 2:] + batches[: index % 2]:
                        replies.append(client.optimize(
                            "lenet", "pcie:2", global_batch=batch,
                            config=FAST_CONFIG,
                        ))
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _Server(service) as srv:
                threads = [
                    threading.Thread(target=client_loop, args=(index,))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
                with Client(*srv.addr["tcp"]) as client:
                    exposition = client.metrics()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        sent = 1 + 6 * len(batches)
        assert len(replies) == sent - 1
        stats = service.stats
        assert stats.requests == sent and stats.errors == 0
        assert stats.hits + stats.misses + stats.coalesced == sent
        samples = parse_prometheus(exposition)
        assert sample_value(samples, "repro_serve_requests_total") == sent
        assert sample_value(
            samples, "repro_serve_request_latency_seconds_count"
        ) == sent
        assert len(access.read_text().splitlines()) == sent
        # One key per batch, each answered with one strategy.
        strategies = {}
        for reply in replies:
            strategies.setdefault(reply["key"], set()).add(
                str(sorted(reply["strategy"]["placement"].items()))
            )
        assert len(strategies) == 3
        assert all(len(seen) == 1 for seen in strategies.values())

    def test_fresh_service_reads_the_disk_on_a_worker(
        self, tmp_path, store_reads
    ):
        first = _service(tmp_path).submit(_request())
        with _Server(_service(tmp_path)) as srv:
            del store_reads[:]
            with Client(*srv.addr["tcp"]) as client:
                hit = client.optimize(**_request())
        assert hit["source"] == "cache" and hit["key"] == first["key"]
        assert {name for name, _ in store_reads} == {
            "graph_fingerprint", "_load",
        }
        assert _on_workers(store_reads)

    def test_lru_miss_reads_the_disk_on_a_worker(self, tmp_path, store_reads):
        service = _service(tmp_path)
        service.submit(_request())
        service.store.clear_memory()  # the memo stays in memory
        with _Server(service) as srv:
            del store_reads[:]
            with Client(*srv.addr["tcp"]) as client:
                hit = client.optimize(**_request())
        assert hit["source"] == "cache"
        assert [name for name, _ in store_reads] == ["_load"]
        assert _on_workers(store_reads)

    def test_inflight_duplicate_coalesces_on_a_worker(
        self, tmp_path, store_reads
    ):
        service = _service(tmp_path)
        service.submit(_request())  # the answer is now in memory
        started = threading.Event()
        gate = threading.Event()
        answer, follow = service._answer, service._follow
        followed_on = []

        def gated_answer(*args):
            started.set()
            assert gate.wait(60)
            return answer(*args)

        def recording_follow(*args):
            followed_on.append(threading.current_thread().name)
            return follow(*args)

        service._answer = gated_answer
        service._follow = recording_follow
        leader = threading.Thread(target=service.submit, args=(_request(),))
        with _Server(service) as srv:
            leader.start()
            try:
                assert started.wait(60)
                del store_reads[:]
                with Client(*srv.addr["tcp"]) as client:
                    replies = []
                    follower = threading.Thread(
                        target=lambda: replies.append(
                            client.optimize(**_request())
                        )
                    )
                    follower.start()
                    for _ in range(3000):
                        if service.stats.coalesced:
                            break
                        time.sleep(0.01)
                    gate.set()
                    follower.join(60)
            finally:
                gate.set()
                leader.join(60)
        assert not leader.is_alive() and not follower.is_alive()
        assert replies[0]["coalesced"] is True
        assert replies[0]["source"] == "cache"
        assert store_reads == []
        assert len(followed_on) == 1
        assert followed_on[0].startswith("repro-serve")


class TestTopDashboard:
    def test_renders_frames_from_live_endpoints(self, server, tmp_path):
        import io

        from repro.serve.top import run_top

        host, port = server.addr["tcp"]
        with Client(host, port) as client:
            client.optimize("lenet", "pcie:2", config=FAST_CONFIG)
            client.optimize("lenet", "pcie:2", config=FAST_CONFIG)
        buffer = io.StringIO()
        assert run_top(
            host, port, interval=0.05, max_frames=2, stream=buffer
        ) == 0
        frame = buffer.getvalue()
        assert "repro.serve top" in frame
        assert "requests" in frame
        assert "p50" in frame and "p95" in frame and "p99" in frame
        assert "hit " in frame

    def test_quantiles_from_scraped_histogram(self):
        from repro.serve.top import quantile_from_samples

        text = "\n".join([
            'repro_serve_request_latency_seconds_bucket{le="0.1"} 5',
            'repro_serve_request_latency_seconds_bucket{le="1.0"} 9',
            'repro_serve_request_latency_seconds_bucket{le="+Inf"} 10',
        ])
        samples = parse_prometheus(text)
        p50 = quantile_from_samples(samples, 0.5)
        assert p50 == pytest.approx(0.1)
        # q inside the second bucket interpolates between its bounds.
        p80 = quantile_from_samples(samples, 0.8)
        assert 0.1 < p80 <= 1.0
        # Overflow quantile reports the last finite bound.
        assert quantile_from_samples(samples, 1.0) == pytest.approx(1.0)
        assert quantile_from_samples(samples, 0.5, family="absent") is None
