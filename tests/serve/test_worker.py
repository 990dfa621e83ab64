"""Worker children: the TCP front-end's session builds and searches.

* a churn mix (misses, coalesced pairs, warm starts, disk hits) gets the
  same answers through the front-end's children as through
  ``StrategyService.answer`` run in process on one loop;
* a child killed mid-search fails its request with a typed error,
  counted in ``serve.errors`` and labeled ``kind="worker_crashed"``,
  and is replaced; an idle child killed keeps ``/readyz`` unready until
  a fresh child replaces it, and the next request succeeds;
* no child outlives ``serve_forever``;
* a ``python -m repro.serve serve`` process runs one thread through a
  miss, a coalesced pair and a killed child.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.obs.prometheus import parse_prometheus, sample_value
from repro.serve import (
    Client,
    ServiceError,
    StrategyService,
    StrategyStore,
    normalize_request,
    request_fingerprint,
)
from repro.serve import worker as worker_module
from repro.serve.store import STORE_SCHEMA_VERSION
from tests.serve.test_telemetry import FAST_CONFIG, _Server

#: A scripted churn mix over a 2-entry LRU: each round's requests are
#: sent at once, and a round of two identical requests coalesces.
CHURN_ROUNDS = [
    [("lenet", "pcie:2", 16)],                          # cold miss
    [("alexnet", "pcie:2", 32)] * 2,                    # coalesced miss
    [("lenet", "pcie:2", 32)],                          # warm start
    [("lenet", "pcie:2", 16)],                          # disk hit
    [("lenet", "pcie:4", 16)] * 2,                      # coalesced miss
    [("alexnet", "pcie:2", 64)],                        # warm start
    [("alexnet", "pcie:2", 32)],                        # disk hit
    [("lenet", "pcie:2", 16), ("alexnet", "pcie:2", 64)],
]

#: The response fields both paths must agree on.
ANSWER_FIELDS = ("source", "key", "makespan")
STRATEGY_FIELDS = ("placement", "order", "split_list")


def _service(root, **kwargs):
    store = StrategyStore(root=str(root / "strategies"), capacity=2)
    return StrategyService(store=store, **kwargs)


def _request(model, topology, batch):
    return {
        "model": model, "topology": topology, "global_batch": batch,
        "config": FAST_CONFIG,
    }


def _hold_pair_leaders(service):
    """Hold the leader of each two-request round until its follower has
    coalesced onto it, so the pair coalesces on every path."""
    expected = {}
    for round_ in CHURN_ROUNDS:
        if len(round_) == 2 and round_[0] == round_[1]:
            document = normalize_request(_request(*round_[0]))
            key = request_fingerprint(document, STORE_SCHEMA_VERSION)
            expected[key] = len(expected) + 1
    answer = service._answer

    async def held(keys, request_id, stages):
        if keys.request in expected:
            deadline = time.monotonic() + 60
            while service.stats.coalesced < expected[keys.request]:
                assert time.monotonic() < deadline, "follower never coalesced"
                await asyncio.sleep(0.005)
        return await answer(keys, request_id, stages)

    service._answer = held


def _play_on_loop(service):
    """Every round's responses, its requests answered together on one
    event loop in this process."""

    async def play():
        return [
            list(await asyncio.gather(*(
                service.answer(_request(*request)) for request in round_
            )))
            for round_ in CHURN_ROUNDS
        ]

    return asyncio.run(play())


def _play(send):
    """Every round's responses, its requests sent from one thread each."""
    responses = []
    for round_ in CHURN_ROUNDS:
        replies = [None] * len(round_)

        def one(index, request):
            replies[index] = send(index, _request(*request))

        threads = [
            threading.Thread(target=one, args=(index, request))
            for index, request in enumerate(round_)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
        responses.append(replies)
    return responses


def _compared(response):
    strategy = response["strategy"]
    return (
        tuple(response[name] for name in ANSWER_FIELDS),
        tuple(str(strategy[name]) for name in STRATEGY_FIELDS),
    )


class TestSameAnswers:
    def test_churn_mix_matches_the_in_process_path(self, tmp_path):
        local = _service(tmp_path / "local")
        _hold_pair_leaders(local)
        expected = _play_on_loop(local)

        served = _service(tmp_path / "served")
        _hold_pair_leaders(served)
        with _Server(served) as srv:
            clients = [Client(*srv.addr["tcp"]) for _ in range(2)]
            try:
                got = _play(
                    lambda index, request: clients[index].optimize(**request)
                )
                children = served.status()["children"]
            finally:
                for client in clients:
                    client.close()

        assert [[_compared(r) for r in round_] for round_ in got] == [
            [_compared(r) for r in round_] for round_ in expected
        ]
        sources = [r["source"] for round_ in expected for r in round_]
        assert {"search", "warm", "cache"} <= set(sources)
        for service in (local, served):
            stats = service.stats
            assert stats.coalesced == 2 and stats.errors == 0
            assert stats.hits == 4 and stats.warm_starts == 2
        # Evictions depend on which of round 8's two hits loads first.
        counts = [service.stats.to_json() for service in (local, served)]
        for count in counts:
            del count["evictions"]
        assert counts[0] == counts[1]
        assert len(children) == served.workers
        assert all(child["alive"] for child in children)
        assert all(child["peak_rss_mb"] > 0 for child in children)


def _readiness(srv):
    host, port = srv.addr["http"]
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/readyz", timeout=30
        ) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestChildCrash:
    def test_killed_child_fails_its_request_and_is_replaced(
        self, tmp_path, monkeypatch
    ):
        searching = tmp_path / "searching"
        search = worker_module.search

        def first_search_hangs(*args):
            # Runs in a child: the first search parks until it is killed.
            if not searching.exists():
                searching.write_text(str(os.getpid()))
                time.sleep(120)
            return search(*args)

        monkeypatch.setattr(worker_module, "search", first_search_hangs)
        service = _service(tmp_path)
        request = _request("lenet", "pcie:2", 16)
        with _Server(service) as srv:
            pids = {child["pid"] for child in service.status()["children"]}
            assert _readiness(srv) == 200
            failures = []

            def doomed():
                with Client(*srv.addr["tcp"]) as client:
                    try:
                        client.optimize(**request)
                    except ServiceError as exc:
                        failures.append(str(exc))

            thread = threading.Thread(target=doomed)
            thread.start()
            try:
                for _ in range(6000):
                    if searching.exists() and searching.read_text():
                        break
                    time.sleep(0.01)
                victim = int(searching.read_text())
                assert victim in pids
                os.kill(victim, signal.SIGKILL)
            finally:
                thread.join(60)
            assert not thread.is_alive()
            assert failures and f"worker child {victim} died" in failures[0]
            assert service.stats.errors == 1
            crashed = service.metrics.counter("serve.errors", kind="worker_crashed")
            assert crashed.value == 1
            samples = parse_prometheus(service.metrics_document())
            assert sample_value(
                samples, "repro_serve_errors_total", kind="worker_crashed"
            ) == 1
            # The crashed request gave its child back, which forked the
            # replacement at once.
            assert _readiness(srv) == 200
            children = service.status()["children"]
            assert victim not in {child["pid"] for child in children}
            assert all(child["alive"] for child in children)

            # An idle child killed between requests: the next request
            # takes it (the last one given back is lent first) and
            # replaces it.
            (idle,) = {child["pid"] for child in children} - pids
            os.kill(idle, signal.SIGKILL)
            assert _wait_readiness(srv, 503)
            reasons = service.readiness()["reasons"]
            assert reasons == [f"worker child {idle} is not running"]
            with Client(*srv.addr["tcp"]) as client:
                answer = client.optimize(**request)
            assert _readiness(srv) == 200
            children = service.status()["children"]
            assert idle not in {child["pid"] for child in children}
            assert all(child["alive"] for child in children)
        assert answer["source"] == "search"
        assert service.stats.errors == 1
        assert service.stats.searches == 2


def _wait_readiness(srv, status):
    deadline = time.monotonic() + 60
    while _readiness(srv) != status:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestShutdown:
    def test_no_child_outlives_serve_forever(self, tmp_path):
        service = _service(tmp_path)
        with _Server(service) as srv:
            with Client(*srv.addr["tcp"]) as client:
                client.optimize(**_request("lenet", "pcie:2", 16))
            pids = [child["pid"] for child in service.status()["children"]]
        assert not srv.thread.is_alive()
        assert len(pids) == service.workers
        assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
        assert service.children is None
        assert service.status()["children"] == []


@pytest.fixture(autouse=True)
def _no_stray_children():
    """Each test reaps every child it forked."""
    yield
    assert not [
        child for child in multiprocessing.active_children()
        if child.name == "repro-serve-child"
    ]


def _threads(pid):
    """The ``Threads:`` count of process ``pid``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise AssertionError(f"no Threads line for {pid}")


def _http_status(port, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestOneThread:
    """The server process runs one thread: every replacement child is
    forked from a single-threaded process."""

    def test_server_process_runs_one_thread(self, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "serve",
                "--host", "127.0.0.1", "--port", "0", "--metrics-port", "0",
                "--workers", "1", "--store", str(tmp_path / "strategies"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        try:
            ports = {}
            while len(ports) < 2:
                line = proc.stdout.readline()
                assert line, "server exited before listening"
                what, _, address = line.strip().rpartition(" ")
                ports[what] = int(address.rpartition(":")[2])
            port, http = ports["listening on"], ports["metrics on"]
            assert _threads(proc.pid) == 1

            with Client("127.0.0.1", port) as client:
                miss = client.optimize(**_request("lenet", "pcie:2", 16))
            assert miss["source"] == "search"
            assert _threads(proc.pid) == 1

            # Both lines are sent before either is answered: the second
            # arrives while the first waits on the child's pipe.
            line = json.dumps({
                "op": "optimize",
                "request": _request("alexnet", "pcie:2", 32),
            }).encode() + b"\n"
            socks = [
                socket.create_connection(("127.0.0.1", port), timeout=120)
                for _ in range(2)
            ]
            try:
                for sock in socks:
                    sock.sendall(line)
                pair = [json.loads(sock.makefile("rb").readline()) for sock in socks]
            finally:
                for sock in socks:
                    sock.close()
            assert sorted(bool(r.get("coalesced")) for r in pair) == [False, True]
            assert _threads(proc.pid) == 1

            with Client("127.0.0.1", port) as client:
                (child,) = client.status()["children"]
                os.kill(child["pid"], signal.SIGKILL)
                deadline = time.monotonic() + 60
                while _http_status(http, "/readyz") != 503:
                    assert time.monotonic() < deadline, "still ready"
                    time.sleep(0.01)
                assert _threads(proc.pid) == 1
                answer = client.optimize(**_request("lenet", "pcie:2", 64))
                assert answer["source"] in ("search", "warm")
                assert _http_status(http, "/readyz") == 200
                (replacement,) = client.status()["children"]
                assert replacement["pid"] != child["pid"]
                assert replacement["alive"]
                assert _threads(proc.pid) == 1
                stats = client.stats()["stats"]
                assert (stats["searches"], stats["coalesced"]) == (3, 1)
                assert stats["errors"] == 0
                client.shutdown()
            assert proc.wait(timeout=60) == 0
            assert not os.path.exists(f"/proc/{replacement['pid']}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
            proc.stdout.close()
