"""A response line is the same bytes whichever way it is built.

Each stored entry encodes its strategy once
(:meth:`~repro.serve.store.StoredStrategy.answer`), and the TCP
front-end splices that text into every response line for the entry
(:func:`~repro.serve.service.response_line`).  These tests check:

* through the front-end, a cold search, a warm start, a memory-tier
  hit, a disk-tier hit on a fresh server over a filled store and a
  coalesced follower each write exactly
  ``json.dumps(doc).encode() + b"\\n"``, where ``doc`` is built by
  :func:`_unshared_response`, a copy of the builder that made a fresh
  strategy document for every response;
* in-process ``submit`` returns plain dicts equal to that builder's;
* a hit on ``inception_v3`` (a 105 KB strategy) passes only its head
  through ``json`` and reuses the entry's text object;
* an entry is encoded on its first answer, once even when threads ask
  at the same time, and one that only seeds a warm start is never
  encoded.
"""

import json
import socket
import sys
import threading
import time
from types import SimpleNamespace

from repro.serve import normalize_request, request_fingerprint
from repro.serve import service as service_module
from repro.serve.store import (
    STORE_SCHEMA_VERSION,
    StrategyAnswer,
    StrategyStore,
)
from tests.serve.test_telemetry import FAST_CONFIG, _Server, _service


def _request(batch=None, request_id=None, model="lenet", topology="pcie:2"):
    request = {"model": model, "topology": topology, "config": FAST_CONFIG}
    if batch is not None:
        request["global_batch"] = batch
    if request_id is not None:
        request["request_id"] = request_id
    return request


def _unshared_response(
    entry, *, source, request_key, request_id="", search_seconds=0.0,
    prepared=None, searched=None,
):
    """The response document as the service built it before answers
    were encoded once per entry: a copy of the strategy per response."""
    return {
        "status": "ok",
        "source": source,
        "request": request_key,
        "request_id": request_id,
        "run_id": entry.run_id or "",
        "search_seconds": round(search_seconds, 6),
        "build_seconds": round(prepared.wall_s if prepared else 0.0, 6),
        "build_cpu_seconds": round(prepared.cpu_s if prepared else 0.0, 6),
        "search_cpu_seconds": round(searched.cpu_s if searched else 0.0, 6),
        "key": entry.key,
        "model": entry.model,
        "global_batch": entry.global_batch,
        "devices": entry.devices,
        "makespan": entry.makespan,
        "training_speed": entry.training_speed,
        "strategy": {
            "label": entry.strategy.label,
            "splits": len(entry.strategy.split_list),
            "placement": dict(entry.strategy.placement),
            "order": list(entry.strategy.order),
            "split_list": [
                [d.op_name, d.dim, d.num_splits]
                for d in entry.strategy.split_list
            ],
        },
    }


def _oracle(service, response):
    """The unshared builder's document for a served ``response``, made
    from the stored entry and the response's own head values."""
    entry = service.store.cached(response["key"])
    doc = _unshared_response(
        entry,
        source=response["source"],
        request_key=response["request"],
        request_id=response["request_id"],
        search_seconds=response["search_seconds"],
        prepared=SimpleNamespace(
            wall_s=response["build_seconds"],
            cpu_s=response["build_cpu_seconds"],
        ),
        searched=SimpleNamespace(cpu_s=response["search_cpu_seconds"]),
    )
    if response.get("coalesced"):  # what a follower added to its copy
        doc["coalesced"] = True
    return doc


def _message(request):
    return json.dumps({"op": "optimize", "request": request}).encode() + b"\n"


def _send(addr, message):
    """One raw response line for one encoded request message."""
    with socket.create_connection(addr, timeout=120) as sock:
        sock.sendall(message)
        with sock.makefile("rb") as stream:
            return stream.readline()


def _hold_until_coalesced(service, request):
    """Hold ``request``'s leader until one follower coalesced onto it."""
    held = request_fingerprint(normalize_request(request), STORE_SCHEMA_VERSION)
    answer = service._answer

    def holding(keys, request_id):
        if keys.request == held:
            deadline = time.monotonic() + 60
            while service.stats.coalesced < 1:
                assert time.monotonic() < deadline, "follower never coalesced"
                time.sleep(0.005)
        return answer(keys, request_id)

    service._answer = holding


def _assert_unshared_line(service, line):
    response = json.loads(line)
    assert response["status"] == "ok", response
    assert line == json.dumps(_oracle(service, response)).encode() + b"\n"
    return response


class TestWireIdentity:
    def test_every_source_writes_the_unshared_line(self, tmp_path):
        pair = _request(batch=8)
        service = _service(tmp_path)
        _hold_until_coalesced(service, pair)
        with _Server(service) as srv:
            addr = srv.addr["tcp"]
            cold = _send(addr, _message(_request(16, "cold")))
            warm = _send(addr, _message(_request(32, "warm")))
            memory = _send(addr, _message(_request(16, "memory-hit")))
            lines = [None, None]

            def one(index):
                request = dict(pair, request_id=f"pair-{index}")
                lines[index] = _send(addr, _message(request))

            threads = [threading.Thread(target=one, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()

        assert _assert_unshared_line(service, cold)["source"] == "search"
        assert _assert_unshared_line(service, warm)["source"] == "warm"
        assert _assert_unshared_line(service, memory)["source"] == "cache"
        pair_responses = [_assert_unshared_line(service, line) for line in lines]
        assert sorted("coalesced" in r for r in pair_responses) == [False, True]
        follower = next(r for r in pair_responses if r.get("coalesced"))
        # The follower's flag comes after its strategy.
        assert list(follower)[-2:] == ["strategy", "coalesced"]
        assert service.stats.coalesced == 1

        fresh = _service(tmp_path)  # a new server over the filled store
        with _Server(fresh) as srv:
            disk = _send(srv.addr["tcp"], _message(_request(16, "disk-hit")))
        response = _assert_unshared_line(fresh, disk)
        assert response["source"] == "cache"
        assert fresh.stats.hits == 1 and fresh.stats.searches == 0

    def test_in_process_submit_returns_plain_equal_dicts(self, tmp_path):
        service = _service(tmp_path)
        searched = service.submit(_request(16, "search"))
        hit = service.submit(_request(16, "hit"))
        for response in (searched, hit):
            assert type(response) is dict
            assert response == _oracle(service, response)
            assert json.loads(json.dumps(response)) == response
        assert hit["strategy"] is searched["strategy"]


class TestHitEncodesOnlyItsHead:
    def test_second_memory_hit_reuses_the_entry_text(self, tmp_path, monkeypatch):
        request = _request(model="inception_v3", topology="pcie:4")
        service = _service(tmp_path)
        assert service.submit(request)["source"] == "search"
        answers = []
        line_of = service_module.response_line

        def recording(response):
            answers.append(response.get("strategy"))
            return line_of(response)

        monkeypatch.setattr(service_module, "response_line", recording)
        message = _message(request)
        encoded = []
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            text = dumps(obj, *args, **kwargs)
            encoded.append(len(text))
            return text

        with _Server(service) as srv:
            first = _send(srv.addr["tcp"], message)
            monkeypatch.setattr(json, "dumps", counting)
            second = _send(srv.addr["tcp"], message)
            monkeypatch.setattr(json, "dumps", dumps)
        assert [json.loads(line)["source"] for line in (first, second)] == [
            "cache", "cache",
        ]
        assert len(second) > 100_000
        # The head, the request fingerprint and the options-memo key.
        assert sum(encoded) <= 1024, encoded
        assert isinstance(answers[0], StrategyAnswer)
        assert answers[1] is answers[0]
        assert answers[1].text is answers[0].text
        assert answers[0].text in second


class TestWhenTheTextIsMade:
    def _filled_root(self, tmp_path):
        service = _service(tmp_path)
        response = service.submit(_request(16))
        entry = service.store.cached(response["key"])
        assert entry._answer is not None  # the search's own answer
        return str(tmp_path / "strategies"), response

    def test_disk_entry_encodes_on_its_first_answer(self, tmp_path):
        root, response = self._filled_root(tmp_path)
        entry = StrategyStore(root=root).get(response["key"])
        assert entry._answer is None
        answer = entry.answer()
        assert entry.answer() is answer
        assert answer == response["strategy"]
        assert answer.text == json.dumps(response["strategy"]).encode()

    def test_warm_seed_alone_never_encodes(self, tmp_path):
        root, response = self._filled_root(tmp_path)
        store = StrategyStore(root=root)
        signature = StrategyStore(root=root).get(response["key"]).signature
        entry, _ = store.find_similar(signature)
        assert entry.key == response["key"]
        assert entry._answer is None

    def test_racing_first_answers_build_one(self, tmp_path):
        root, response = self._filled_root(tmp_path)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                entry = StrategyStore(root=root).get(response["key"])
                start = threading.Barrier(8)
                answers = []

                def first():
                    start.wait(30)
                    answers.append(entry.answer())

                threads = [threading.Thread(target=first) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
                assert len(answers) == 8
                assert all(answer is answers[0] for answer in answers)
        finally:
            sys.setswitchinterval(switch)
