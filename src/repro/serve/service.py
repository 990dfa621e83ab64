"""The multi-tenant strategy service.

:class:`StrategyService` answers *optimization requests* — "find a
deployment strategy for model M on cluster C at batch B" — from one
process, concurrently, with three progressively cheaper paths:

1. **Cache hit** — the request's combined config fingerprint matches a
   :class:`~repro.serve.store.StoredStrategy`; answer without searching.
   A hit does not even build the session: the input graph's fingerprint
   is memoized per (model, batch, cluster fingerprint), in memory and
   persisted by the store under the source fingerprint, so a restarted
   server answers stored problems without one.
2. **Warm start** — a stored entry for the same cluster/options is a
   small graph edit away (:mod:`repro.graph.delta`), found by the
   store's indexed :meth:`~repro.serve.store.StrategyStore.find_similar`;
   seed OS-DPOS from its split list (:class:`~repro.core.WarmStartSeed`)
   and let the engine's safety valve fall back to cold search if the
   seed misleads.
3. **Cold search** — the full reentrant pipeline on a fresh
   :class:`~repro.core.SearchContext`.

Identical requests *in flight* are **coalesced**: the second request
awaits the first's future instead of spawning a duplicate search.

One request has one implementation, the coroutine
:meth:`StrategyService.answer`: derive its keys once
(:meth:`StrategyService.derive`), look the answer up in memory and on
disk, coalesce onto an identical leader or find the warm seed, await
the session build and the search, and store the answer.  The TCP
front-end (:func:`serve_forever` / ``python -m repro.serve``) forks
``workers`` children before it binds its sockets; a miss awaits its two
stages (:mod:`repro.serve.worker`) in one of them, on the child's pipe,
and everything else runs on the front-end's one event loop, the only
thread of the server process.  The synchronous
:meth:`StrategyService.submit` runs ``answer`` on a fresh event loop,
with the stages in the calling thread.  A service belongs to one
thread: its front-end's loop or one direct caller.

Every decision is recorded once, on the service's private event bus:
``serve.*`` facts (request/hit/miss/coalesce/warm/complete/timeout/
evict, each stamped with the client ``request_id``) and spans
(``serve.submit`` carrying the request's queue wait and outcome,
``serve.store.lookup``, ``serve.search`` and ``serve.coalesce.wait``).
The service's :class:`~repro.obs.MetricsRegistry` subscribes to that
bus, and its rule table (:data:`repro.obs.metrics.METRIC_RULES`) turns
the events into the ``serve.<counter>`` counters and the latency
**histograms**.  :attr:`StrategyService.stats` (the CI smoke gate's
source of truth) reads its counts from the registry, as does the
Prometheus text exposition served by the ``metrics`` protocol verb and
the plain-HTTP ``GET /metrics`` / ``/healthz`` / ``/readyz`` listener
(``serve_forever(..., metrics_port=)``).

Each request carries a **request id** (client-minted, server-minted as
a fallback) threaded through events, log records
(:func:`repro.obs.log.request_id_context`), the JSONL **access log**
(one line per request: id, fingerprints, outcome, queue and total
durations, the wall and CPU seconds of the build and search stages),
and — when ``record_runs`` is on — the run manifest, so ``runs show``
answers "which request produced this run" and the access log answers
the reverse.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import socket
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, IO, List, Optional, Tuple, Union

from ..cluster import Topology
from ..core.calculator import (
    CONFIG_FIELD_TYPES,
    FastTConfig,
    check_config_value,
)
from ..core.context import WarmStartSeed
from ..core.os_dpos import SearchOptions
from ..models import ModelSpec
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..obs import log as obs_log
from ..obs import runs as obs_runs
from .store import (
    STORE_SCHEMA_VERSION,
    StoredStrategy,
    StoreSchemaError,
    StrategyAnswer,
    StrategyStore,
    request_fingerprint,
)
from .worker import (
    Children,
    Lease,
    LocalStages,
    Prepared,
    RequestError,
    Searched,
    WorkerCrashed,
    build_config,
    resolve_model,
    resolve_topology,
)

_logger = obs_log.get_logger(__name__)

#: HELP text for the service's exposition families (everything else
#: gets a generated line).
METRIC_HELP = {
    "serve.requests": "Optimization requests received",
    "serve.hits": "Requests answered from the strategy store",
    "serve.misses": "Requests that required a search",
    "serve.coalesced": "Requests folded onto an identical in-flight leader",
    "serve.searches": "Strategy searches executed",
    "serve.warm_starts": "Searches seeded from a cached near-miss strategy",
    "serve.warm_fallbacks": "Warm-started searches that fell back cold",
    "serve.evictions": "Strategy-store evictions",
    "serve.errors": "Requests that failed",
    "serve.timeouts": "Requests that exceeded their deadline",
    "serve.inflight": "Searches currently in flight",
    "serve.store.write_errors": "Strategy-store disk writes that failed",
    "serve.store.memo_errors": "Graph-fingerprint memo reads or writes that failed",
    "serve.access_log.errors": "Access-log writes that failed",
    "serve.request.latency": "End-to-end request latency",
    "serve.search": "Strategy-search wall-clock per request",
    "serve.store.lookup": "Strategy-store lookup time per request",
    "serve.coalesce.wait": "Time followers spent waiting on their leader",
    "serve.queue.wait": (
        "Time requests waited for a worker child "
        "(requests that need no session never queue)"
    ),
}


#: Entries in each service's (model, batch, cluster) -> graph
#: fingerprint memo (~300 bytes each), least recently used evicted.
GRAPH_MEMO_CAPACITY = 1024

#: Request ``config`` override documents whose options fingerprint each
#: service keeps, least recently used evicted.
OPTIONS_MEMO_CAPACITY = 64


#: Access-log fields read from a leader's response: the wall and CPU
#: seconds of its session build and search.
_ACCESS_TIMINGS = (
    ("build_s", "build_seconds"),
    ("build_cpu_s", "build_cpu_seconds"),
    ("search_s", "search_seconds"),
    ("search_cpu_s", "search_cpu_seconds"),
)


def new_request_id() -> str:
    """Mint a request id (16 hex chars; client-side minting preferred)."""
    return uuid.uuid4().hex[:16]


#: Fields ``config.search`` may set (the top-level ``config`` fields
#: are :data:`~repro.core.calculator.CONFIG_FIELD_TYPES`).
_SEARCH_FIELDS = frozenset(SearchOptions.__dataclass_fields__)


class ServeTimeout(TimeoutError):
    """A request exceeded its deadline while waiting for an answer.

    Raised to *followers* of a coalesced request whose leader has not
    finished within the deadline, so a wedged search hangs one request,
    not every caller piled onto it.  The leader itself cannot be
    interrupted mid-search; the slow-request watchdog
    (:meth:`StrategyService.health`) degrades ``/healthz`` instead.
    """

    def __init__(self, message: str, request_id: str = "") -> None:
        super().__init__(message)
        self.request_id = request_id


class AccessLog:
    """JSONL access log: one line per completed request.

    Each line carries the request id, the request and answer
    fingerprints, the outcome (``hit``/``warm``/``search``/
    ``coalesced``/``timeout``/``error``), and the queue/search/total
    durations — the reverse half of the request<->run correlation
    (``runs show`` prints the forward half from the manifest).

    Writes are line-buffered under a lock, so services on several
    threads sharing one log interleave whole lines, never fragments.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            parent = os.path.dirname(target)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self.path: Optional[str] = target
            self._handle: IO[str] = open(target, "a")
            self._owns_handle = True
        else:
            self.path = getattr(target, "name", None)
            self._handle = target
            self._owns_handle = False
        self._lock = threading.Lock()

    def write(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True, default=repr)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._owns_handle:
                self._handle.close()


def normalize_request(request: Dict[str, object]) -> Dict[str, object]:
    """Canonical JSON document of one request (the coalescing identity).

    Two requests coalesce iff their normalized documents are equal:
    model name, topology (preset string or cluster-spec dict), batch,
    and config overrides, with defaults made explicit where cheap.
    """
    if not isinstance(request, dict):
        raise RequestError(f"request must be an object, got {type(request).__name__}")
    model = request.get("model")
    if not isinstance(model, str) or not model:
        raise RequestError("request needs a model-zoo name under 'model'")
    topology = request.get("topology")
    if isinstance(topology, Topology):
        topology = topology.spec.to_dict()
    if not isinstance(topology, (str, dict)) or not topology:
        raise RequestError(
            "request needs a topology preset string or cluster-spec "
            "dict under 'topology'"
        )
    document: Dict[str, object] = {"model": model, "topology": topology}
    batch = request.get("global_batch")
    if batch is not None:
        if isinstance(batch, bool) or not isinstance(batch, int) or batch < 1:
            raise RequestError(
                f"'global_batch' must be a positive integer, got {batch!r}"
            )
        document["global_batch"] = batch
    config = request.get("config") or {}
    if not isinstance(config, dict):
        raise RequestError("'config' must be an object of FastTConfig overrides")
    overrides: Dict[str, object] = {}
    for key, value in sorted(config.items()):
        if key == "search":
            if not isinstance(value, dict):
                raise RequestError("'config.search' must be an object")
            unknown = set(value) - _SEARCH_FIELDS
            if unknown:
                raise RequestError(
                    f"unknown search option(s): {sorted(unknown)}"
                )
            try:
                SearchOptions(**value)
            except (TypeError, ValueError) as exc:
                raise RequestError(f"invalid search option: {exc}") from None
            overrides["search"] = {k: value[k] for k in sorted(value)}
        elif key in CONFIG_FIELD_TYPES:
            try:
                check_config_value(key, value)
            except (TypeError, ValueError) as exc:
                raise RequestError(str(exc)) from None
            overrides[key] = value
        else:
            raise RequestError(f"unknown config option: {key!r}")
    if overrides:
        document["config"] = overrides
    return document


@dataclass
class RequestKeys:
    """What one request is looked up by: :meth:`StrategyService.derive`.

    Derived once per request and carried with it.  ``fingerprints`` is
    empty until the graph fingerprint is known (from the in-memory memo,
    or filled in from the persisted memo or a session build).
    ``failure`` is the :class:`RequestError` the request gets instead of
    an answer; ``request`` is None when the request is not even well
    formed.
    """

    failure: Optional[RequestError] = None
    document: Dict[str, object] = field(default_factory=dict)
    #: The request fingerprint: the coalescing identity.
    request: Optional[str] = None
    topology: Optional[Topology] = None
    spec: Optional[ModelSpec] = None
    batch: int = 0
    cluster: str = ""
    options: str = ""
    fingerprints: Dict[str, str] = field(default_factory=dict)

    @property
    def memo_key(self) -> Tuple[str, int, str]:
        """The graph-fingerprint memo's key: (model, batch, cluster)."""
        return (self.spec.name, self.batch, self.cluster)

    @property
    def key(self) -> Optional[str]:
        """The combined fingerprint, the store's key, once known."""
        return self.fingerprints.get("combined")

    def know_graph(self, graph_fp: str) -> None:
        self.fingerprints = obs_runs.combine_fingerprints(
            graph_fp, self.cluster, self.options
        )


@dataclass
class ServiceStats:
    """The service's counters, read from its metrics registry.

    All monotonic since service start; each read of
    :attr:`StrategyService.stats` builds a fresh one.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    searches: int = 0
    warm_starts: int = 0
    warm_fallbacks: int = 0
    evictions: int = 0
    errors: int = 0
    timeouts: int = 0

    def to_json(self) -> Dict[str, int]:
        return dict(self.__dict__)


class StrategyService:
    """Strategy server over one :class:`StrategyStore`, owned by one
    thread: its front-end's event loop or one direct caller.

    Args:
        store: Answer cache; defaults to a persistent store under the
            run-registry root.
        config: Service-wide :class:`FastTConfig` baseline; per-request
            ``config`` overrides are applied on top.
        workers: Number of worker children the TCP front-end forks for
            session builds and searches (``submit`` runs them in the
            caller's thread).
        metrics: Registry receiving the service's counters and latency
            histograms, subscribed to the service's private event bus
            (``service.events``).  A private enabled registry is created
            when omitted; pass :class:`~repro.obs.NullMetricsRegistry`
            to disable recording entirely (the overhead-pin test does),
            and :attr:`stats` then reads zeros.
        request_timeout: Default per-request deadline in seconds (None =
            wait forever).  A request may override it with its own
            ``timeout`` key.  Only followers of a coalesced request can
            be failed fast — see :class:`ServeTimeout`.
        watchdog_deadline: Seconds after which an unfinished in-flight
            search marks the service degraded (:meth:`health`).
            Defaults to ``request_timeout`` (or 300s when that is also
            unset).
        access_log: Path (appended) or open text handle for the JSONL
            access log; None disables it.
        record_runs: Record a run-registry manifest per executed search,
            stamped with the originating ``request_id`` (so ``runs
            show`` answers "which request produced this run").
        runs_root: Registry root for ``record_runs`` (default:
            ``$REPRO_RUNS_DIR`` or ``~/.repro/runs``).
    """

    def __init__(
        self,
        store: Optional[StrategyStore] = None,
        config: Optional[FastTConfig] = None,
        workers: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        request_timeout: Optional[float] = None,
        watchdog_deadline: Optional[float] = None,
        access_log: Optional[Union[str, IO[str], AccessLog]] = None,
        record_runs: bool = False,
        runs_root: Optional[str] = None,
    ) -> None:
        self.events = EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events.subscribe(self.metrics)
        self.store = store if store is not None else StrategyStore()
        self._options = functools.lru_cache(maxsize=OPTIONS_MEMO_CAPACITY)(
            self._options_fingerprint
        )
        self.config = config or FastTConfig()
        self.workers = max(1, int(workers))
        self.request_timeout = request_timeout
        if watchdog_deadline is None:
            watchdog_deadline = (
                request_timeout if request_timeout is not None else 300.0
            )
        self.watchdog_deadline = watchdog_deadline
        if access_log is None or isinstance(access_log, AccessLog):
            self.access_log = access_log
        else:
            self.access_log = AccessLog(access_log)
        self.record_runs = record_runs
        self.runs_root = runs_root
        #: request_key -> the leader's future, on the loop answering it.
        self._inflight: Dict[str, "asyncio.Future[Dict[str, object]]"] = {}
        #: request_key -> monotonic start time of the leader's search;
        #: the slow-request watchdog reads it.
        self._inflight_started: Dict[str, float] = {}
        self._graph_fps: "OrderedDict[Tuple[str, int, str], str]" = OrderedDict()
        #: The worker children while :func:`serve_forever` runs; without
        #: them, stages run in the calling thread.
        self.children: Optional[Children] = None
        self._shutting_down = False
        # Pre-register every stats counter and the overall latency
        # histogram so a scrape before any traffic still yields the full
        # family set (all zeros) instead of an empty document.
        for field in ServiceStats.__dataclass_fields__:
            self.metrics.counter(f"serve.{field}")
        self.metrics.counter("serve.store.write_errors")
        self.metrics.counter("serve.store.memo_errors")
        self.metrics.counter("serve.access_log.errors")
        self.metrics.gauge("serve.inflight")
        self.metrics.histogram("serve.request.latency")

    @property
    def config(self) -> FastTConfig:
        """The service-wide baseline config.  Replace it, do not mutate
        it: replacing it forgets the memoized options fingerprints."""
        return self._config

    @config.setter
    def config(self, config: FastTConfig) -> None:
        self._config = config
        self._options.cache_clear()

    def _options_fingerprint(self, overrides: str) -> str:
        """Options fingerprint of the baseline config with ``overrides``
        (canonical JSON of a normalized request's ``config``) applied."""
        return obs_runs.options_fingerprint(
            build_config(self._config, json.loads(overrides))
        )

    # -- telemetry ------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """The service's counters, as its registry holds them."""
        return ServiceStats(**{
            field: self.metrics.counter(f"serve.{field}").value
            for field in ServiceStats.__dataclass_fields__
        })

    def _access(self, record: Dict[str, object]) -> None:
        try:
            self.access_log.write(record)  # type: ignore[union-attr]
        except OSError:
            self.metrics.counter("serve.access_log.errors").inc()
            _logger.exception("access-log write failed")

    # -- the three answer paths ----------------------------------------
    def derive(self, request: object) -> RequestKeys:
        """Everything ``request`` is looked up by, read from memory only.

        The one derivation of a request, the first step of
        :meth:`answer`: normalize the request, take
        its fingerprint, resolve topology, model and batch, take the
        options fingerprint (memoized per override document), read the
        graph fingerprint from the in-memory memo and, when it is
        there, compute the combined key.  A request that cannot be
        served gets its :class:`RequestError` on ``failure``: unknown
        models and topologies are request errors.
        """
        try:
            document = normalize_request(request)  # type: ignore[arg-type]
        except RequestError as exc:
            return RequestKeys(failure=exc)
        keys = RequestKeys(
            document=document,
            request=request_fingerprint(document, STORE_SCHEMA_VERSION),
        )
        try:
            keys.topology, keys.cluster = resolve_topology(document["topology"])
            keys.spec = resolve_model(str(document["model"]))
        except RequestError as exc:
            keys.failure = exc
            return keys
        keys.batch = int(document.get("global_batch") or keys.spec.global_batch)
        keys.options = self._options(
            json.dumps(document.get("config") or {}, sort_keys=True)
        )
        graph_fp = self._graph_fps.get(keys.memo_key)
        if graph_fp is not None:
            self._graph_fps.move_to_end(keys.memo_key)
            keys.know_graph(graph_fp)
        return keys

    def submit(
        self,
        request: Dict[str, object],
        *,
        request_id: Optional[str] = None,
        queued_at: Optional[float] = None,
    ) -> Dict[str, object]:
        """:meth:`answer` for synchronous callers, on a fresh event loop.

        The session build and the search run in the calling thread.  Not
        for use from a coroutine (await :meth:`answer` there) or while
        :func:`serve_forever` runs this service.
        """
        return asyncio.run(
            self.answer(request, request_id=request_id, queued_at=queued_at)
        )

    async def answer(
        self,
        request: Dict[str, object],
        *,
        request_id: Optional[str] = None,
        queued_at: Optional[float] = None,
    ) -> Dict[str, object]:
        """Answer one request; coalesces with identical peers in flight.

        Returns a JSON-serializable response document with ``source``
        one of ``"cache"``, ``"warm"``, ``"search"`` — or ``"coalesced"``
        wrapping the leader's source.  Its ``strategy`` sub-document is
        read-only: every response for one stored entry shares it (a
        :class:`~repro.serve.store.StrategyAnswer`, equal to a plain
        dict of the same keys).

        ``request_id`` (or a ``request_id`` key in the request dict; the
        client mints one by default) correlates events, log records, the
        access log, and — with ``record_runs`` — the run manifest.  A
        ``timeout`` key (or the service-wide ``request_timeout``) bounds
        how long a *coalesced follower* waits before failing with
        :class:`ServeTimeout`; a leader's connection gets an error
        :data:`_BACKSTOP_GRACE` seconds later.  ``queued_at`` is a
        ``time.monotonic()`` stamp taken when the request was accepted;
        with it, ``serve.queue.wait`` observes the time from then until
        the request started, plus its wait for a worker child.  Neither
        ``request_id`` nor ``timeout`` participates in the coalescing
        identity.
        """
        start = time.monotonic()
        raw_timeout: object = None
        if isinstance(request, dict):
            if not request_id and request.get("request_id"):
                request_id = str(request["request_id"])
            raw_timeout = request.get("timeout")
        request_id = request_id or new_request_id()
        if raw_timeout is None:
            timeout = self.request_timeout
        else:
            try:
                timeout = float(raw_timeout)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise RequestError(
                    f"'timeout' must be a number, got {raw_timeout!r}"
                )
        keys = self.derive(request)
        if keys.request is None:  # malformed: not counted as a request
            raise keys.failure  # type: ignore[misc]
        future = self._inflight.get(keys.request)
        if future is not None:
            return await self._submitted(
                keys, request_id, start, queued_at,
                self._follow(future, keys.request, request_id, timeout),
            )
        future = self._inflight[keys.request] = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight_started[keys.request] = start
        # While serve_forever runs, the session build and the search run
        # in a worker child lent to this request; otherwise here.
        stages = LocalStages() if self.children is None else Lease(self.children)
        lead = self._submitted(
            keys, request_id, start, queued_at,
            self._lead(keys, request_id, future, stages), stages,
        )
        if timeout is None:
            return await lead
        # Backstop for a wedged leader: nothing interrupts its search,
        # which goes on answering its followers and the store, but its
        # own caller gets an error.
        return await asyncio.wait_for(
            asyncio.shield(lead), timeout=timeout + _BACKSTOP_GRACE,
        )

    async def _submitted(
        self, keys: RequestKeys, request_id: str, start: float,
        queued_at: Optional[float], work: Awaitable[Dict[str, object]],
        stages: Optional[Union[LocalStages, Lease]] = None,
    ) -> Dict[str, object]:
        """Await ``work``, one request's answer, inside its
        ``serve.submit`` span and access-log record; a leader passes its
        ``stages``."""
        outcome = "error"
        response: Dict[str, object] = {}
        queue_wait: Optional[float] = None
        span = self.events.span(
            "serve.submit", request=keys.request, request_id=request_id,
        )
        try:
            with span, obs_log.request_id_context(request_id):
                try:
                    response = await work
                    outcome = (
                        "coalesced" if stages is None
                        else str(response.get("source", "search"))
                    )
                except ServeTimeout:
                    outcome = "timeout"
                    raise
                except WorkerCrashed:
                    span.set(error_kind="worker_crashed")
                    raise
                finally:
                    if queued_at is not None:
                        queue_wait = max(0.0, start - queued_at) + (
                            0.0 if stages is None else stages.waited
                        )
                    span.set(outcome=outcome, queue_wait=queue_wait)
            return response
        finally:
            # Built only when there is a log to write it to.
            if self.access_log is not None:
                # A follower's response carries its leader's stage times.
                timings = response if stages is not None else {}
                self._access({
                    "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "request_id": request_id,
                    "request": keys.request,
                    "key": str(response.get("key", "")),
                    "run_id": str(response.get("run_id") or ""),
                    "model": str(keys.document.get("model", "")),
                    "outcome": outcome,
                    "queue_s": round(queue_wait or 0.0, 6),
                    **{
                        field: round(float(timings.get(source) or 0.0), 6)
                        for field, source in _ACCESS_TIMINGS
                    },
                    "total_s": round(span.seconds, 6),
                })

    async def _lead(
        self, keys: RequestKeys, request_id: str,
        future: "asyncio.Future[Dict[str, object]]",
        stages: Union[LocalStages, Lease],
    ) -> Dict[str, object]:
        """Answer a request no identical peer is in flight for."""
        try:
            response = await self._answer(keys, request_id, stages)
            future.set_result(response)
            return response
        except BaseException as exc:
            future.set_exception(exc)
            # Its followers read it too; one nobody followed is not lost.
            future.exception()
            raise
        finally:
            stages.release()
            self._inflight.pop(keys.request, None)  # type: ignore[arg-type]
            self._inflight_started.pop(keys.request, None)  # type: ignore[arg-type]

    async def _follow(
        self, future: "asyncio.Future[Dict[str, object]]", request_key: str,
        request_id: str, timeout: Optional[float],
    ) -> Dict[str, object]:
        """Wait for an identical in-flight leader's answer."""
        self.events.emit(
            "serve.coalesce", request=request_key, request_id=request_id,
        )
        try:
            with self.events.span("serve.coalesce.wait", request_id=request_id):
                # Shielded: a follower's timeout must not cancel its
                # leader.  A shallow copy: the strategy stays the leader's.
                response = dict(
                    await asyncio.wait_for(asyncio.shield(future), timeout)
                )
        except asyncio.TimeoutError:
            # On 3.11+ this is the builtin TimeoutError, so a leader's own
            # TimeoutError also ends the wait as a timeout.
            self.events.emit(
                "serve.timeout", request=request_key,
                request_id=request_id, deadline=timeout,
            )
            raise ServeTimeout(
                f"request {request_id} timed out after {timeout:.3f}s "
                f"waiting for in-flight leader {request_key[:12]}",
                request_id=request_id,
            ) from None
        response["coalesced"] = True
        response["request_id"] = request_id
        return response

    async def _answer(
        self, keys: RequestKeys, request_id: str,
        stages: Union[LocalStages, Lease],
    ) -> Dict[str, object]:
        request_key = keys.request
        self.events.emit(
            "serve.request", request=request_key,
            request_id=request_id, model=keys.document["model"],
        )
        if keys.failure is not None:
            raise keys.failure
        # The problem identity needs the input graph's fingerprint,
        # which depends on (model, batch, cluster) only — never on
        # the config.  It is memoized in memory and persisted by the
        # store, so a session (two graph builds and a fit check) is
        # built only for a triple no server of this source tree has
        # seen, or on a store miss.
        prepared = (
            None if keys.key is not None
            else await self._fill_graph(stages, keys)
        )
        fingerprints = keys.fingerprints
        key = fingerprints["combined"]

        with self.events.span(
            "serve.store.lookup", request_id=request_id
        ) as lookup:
            cached = self.store.get(key, self.events)
            lookup.set(result="miss" if cached is None else "hit")
        if cached is not None:
            self.events.emit(
                "serve.hit", request=request_key, key=key,
                request_id=request_id,
            )
            return self._respond(
                cached, source="cache", request_key=request_key,
                request_id=request_id, prepared=prepared,
            )

        self.events.emit(
            "serve.miss", request=request_key, key=key,
            request_id=request_id,
        )

        if prepared is None:
            prepared = await self._prepare(stages, keys)
        spec, topology, batch = keys.spec, keys.topology, keys.batch
        warm_start, warm_source = self._warm_seed(
            prepared.signature, fingerprints, batch
        )
        if warm_start is not None:
            self.events.emit(
                "serve.warm", request=request_key, key=key,
                request_id=request_id,
                seed=warm_source, splits=len(warm_start.split_list),
            )
        recorder = None
        if self.record_runs:
            recorder = self._begin_run(request_id)
        try:
            with self.events.span(
                "serve.search", request_id=request_id
            ) as span:
                span.set(
                    seed="cold" if warm_start is None else "warm",
                    result="error",
                    build_s=round(prepared.wall_s, 6),
                    build_cpu_s=round(prepared.cpu_s, 6),
                )
                searched = await stages.search(warm_start)
                span.set(result="ok", cpu_s=round(searched.cpu_s, 6))
        except BaseException as exc:
            if recorder is not None:
                recorder.finish(
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    model=spec.name, global_batch=batch,
                    devices=len(topology.devices),
                    fingerprints=fingerprints,
                )
            raise
        search_seconds = span.seconds
        fallback = bool(searched.warm_fallbacks)
        if fallback:
            self.events.emit(
                "serve.warm.fallback", request=request_key, key=key,
                request_id=request_id,
            )
        makespan = searched.measured_time
        training_speed = batch / makespan if makespan else 0.0
        run_id = ""
        if recorder is not None:
            run_id = recorder.run_id
            recorder.finish(
                status="completed",
                model=spec.name,
                global_batch=batch,
                devices=len(topology.devices),
                fingerprints=fingerprints,
                makespan=makespan,
                training_speed=training_speed,
                strategy_label=searched.strategy.label,
                splits=len(searched.strategy.split_list),
                phases={"search": search_seconds},
            )
        entry = StoredStrategy(
            key=key,
            fingerprints=fingerprints,
            model=spec.name,
            global_batch=batch,
            devices=len(topology.devices),
            strategy=searched.strategy,
            makespan=makespan,
            training_speed=training_speed,
            signature=prepared.signature,
            run_id=run_id or None,
        )
        if not self.store.put(entry, self.events):
            self.metrics.counter("serve.store.write_errors").inc()
        source = "warm" if warm_start is not None and not fallback else "search"
        self.events.emit(
            "serve.complete", request=request_key, key=key,
            request_id=request_id,
            source=source, makespan=entry.makespan, run_id=run_id,
        )
        return self._respond(
            entry, source=source, request_key=request_key,
            request_id=request_id, search_seconds=search_seconds,
            prepared=prepared, searched=searched,
        )

    def _prepare(
        self, stages: Union[LocalStages, Lease], keys: RequestKeys,
    ) -> Awaitable[Prepared]:
        """Build the request's session (in ``stages``, which keep it)."""
        return stages.prepare(keys.document, self.config)

    async def _fill_graph(
        self, stages: Union[LocalStages, Lease], keys: RequestKeys,
    ) -> Optional[Prepared]:
        """Complete ``keys`` after a memo miss: the persisted memo, else a
        session build.  Returns the build's report, if one ran."""
        prepared = None
        graph_fp = None
        try:
            graph_fp = self.store.graph_fingerprint(*keys.memo_key)
        except StoreSchemaError:
            self.metrics.counter("serve.store.memo_errors").inc()
        if graph_fp is None:
            prepared = await self._prepare(stages, keys)
            graph_fp = prepared.graph_fp
            if not self.store.remember_graph_fingerprint(
                *keys.memo_key, graph_fp
            ):
                self.metrics.counter("serve.store.memo_errors").inc()
        self._graph_fps[keys.memo_key] = graph_fp
        while len(self._graph_fps) > GRAPH_MEMO_CAPACITY:
            self._graph_fps.popitem(last=False)
        keys.know_graph(graph_fp)
        return prepared

    def _begin_run(self, request_id: str):
        """Mint a run-registry manifest for one executed search.

        The manifest carries the originating ``request_id`` — the
        forward half of the request<->run correlation (``runs show``
        prints it; the access log maps the other direction).
        """
        try:
            recorder = obs_runs.RunRegistry(self.runs_root).create()
        except OSError:  # pragma: no cover - registry root unwritable
            _logger.exception("run recording disabled for this request")
            return None
        recorder.manifest.request_id = request_id
        return recorder

    def _warm_seed(
        self,
        signature: Dict[str, str],
        fingerprints: Dict[str, str],
        batch: int,
    ) -> Tuple[Optional[WarmStartSeed], Optional[str]]:
        match = self.store.find_similar(
            signature,
            cluster=fingerprints["cluster"],
            options=fingerprints["options"],
            events=self.events,
        )
        if match is None:
            return None, None
        entry, delta = match
        reference = entry.makespan
        if entry.global_batch and batch != entry.global_batch:
            # Linear work-scaling prior keeps the safety valve honest
            # across batch edits (the common warm-start case).
            reference = entry.makespan * (batch / entry.global_batch)
        seed = WarmStartSeed(
            split_list=list(entry.strategy.split_list),
            reference_makespan=reference,
            source=f"store:{entry.key[:12]}",
        )
        _logger.info(
            "warm-start seed %s (%s)", entry.key[:12], delta.summary()
        )
        return seed, entry.key

    def _respond(
        self,
        entry: StoredStrategy,
        *,
        source: str,
        request_key: str,
        request_id: str = "",
        search_seconds: float = 0.0,
        prepared: Optional[Prepared] = None,
        searched: Optional[Searched] = None,
    ) -> Dict[str, object]:
        # Inside the caller's request_id_context, so the record is
        # stamped with the request id it answers.
        _logger.info(
            "answered from %s (key %s, makespan %.6fs)",
            source, entry.key[:12], entry.makespan,
        )
        return {
            "status": "ok",
            "source": source,
            "request": request_key,
            "request_id": request_id,
            "run_id": entry.run_id or "",
            "search_seconds": round(search_seconds, 6),
            # Wall and CPU seconds of the session build and the search,
            # in whichever process ran them (0 when none ran).
            "build_seconds": round(prepared.wall_s if prepared else 0.0, 6),
            "build_cpu_seconds": round(prepared.cpu_s if prepared else 0.0, 6),
            "search_cpu_seconds": round(searched.cpu_s if searched else 0.0, 6),
            "key": entry.key,
            "model": entry.model,
            "global_batch": entry.global_batch,
            "devices": entry.devices,
            "makespan": entry.makespan,
            "training_speed": entry.training_speed,
            # Shared by every response for this entry; read-only.
            "strategy": entry.answer(),
        }

    # -- introspection --------------------------------------------------
    def status(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "workers": self.workers,
            "inflight": len(self._inflight),
            # Each worker child's pid, liveness and peak RSS (VmHWM, MB);
            # empty while no front-end runs.
            "children": [] if self.children is None else self.children.status(),
            "store": {
                "root": self.store.root if self.store.persist else None,
                "capacity": self.store.capacity,
                "entries": len(self.store),
            },
        }

    def stats_json(self) -> Dict[str, object]:
        return {"status": "ok", "stats": self.stats.to_json()}

    def health(self) -> Dict[str, object]:
        """Liveness document: degraded when the watchdog sees stuck work.

        A request in flight longer than ``watchdog_deadline`` marks the
        service ``degraded`` (an operator signal: a leader search is
        wedged and cannot be interrupted — see :class:`ServeTimeout`).
        Shutting down is reported but still healthy (clean exit).
        """
        now = time.monotonic()
        stuck = {
            key[:12]: round(now - begun, 3)
            for key, begun in self._inflight_started.items()
            if now - begun > self.watchdog_deadline
        }
        healthy = not stuck
        return {
            "status": "ok" if healthy else "degraded",
            "healthy": healthy,
            "inflight": len(self._inflight_started),
            "stuck": stuck,
            "watchdog_deadline": self.watchdog_deadline,
            "shutting_down": self._shutting_down,
        }

    def readiness(self) -> Dict[str, object]:
        """Readiness document: can this process answer a request now?

        Not ready while shutting down, while a worker child is dead and
        not yet replaced, or when the strategy store's backing directory
        exists but is not writable or cannot be listed.
        """
        reasons = []
        if self._shutting_down:
            reasons.append("shutting down")
        if self.children is not None:
            reasons.extend(
                f"worker child {child['pid']} is not running"
                for child in self.children.status() if not child["alive"]
            )
        store_ok = True
        try:
            entries = len(self.store)
            # A persistent root that does not exist yet is fine (created
            # on first put); one that exists but is unwritable is not.
            if (
                self.store.persist
                and os.path.isdir(self.store.root)
                and not os.access(self.store.root, os.W_OK)
            ):
                store_ok = False
                reasons.append(f"store root not writable: {self.store.root}")
        except OSError as exc:  # the store's directory cannot be listed
            store_ok = False
            entries = -1
            reasons.append(f"store unusable: {type(exc).__name__}: {exc}")
        ready = not reasons
        return {
            "status": "ok" if ready else "unavailable",
            "ready": ready,
            "reasons": reasons,
            "store": {"ok": store_ok, "entries": entries},
            "workers": self.workers,
        }

    def metrics_document(self) -> str:
        """The registry rendered as Prometheus text exposition."""
        from ..obs.prometheus import render_prometheus

        return render_prometheus(self.metrics, help=METRIC_HELP)

    def close(self) -> None:
        """Flush and close the access log (idempotent)."""
        if self.access_log is not None:
            self.access_log.close()


# ----------------------------------------------------------------------
# asyncio TCP front-end: one JSON document per line, one back.
# ----------------------------------------------------------------------

#: Grace added to a request's deadline for a leader's backstop: the
#: follower-side ServeTimeout should fire first; the backstop only
#: catches a wedged *leader*, whose search in its child nothing
#: interrupts.
_BACKSTOP_GRACE = 30.0


def _addresses(host: Optional[str]) -> List[str]:
    """``host``'s numeric addresses, resolved in the calling thread.

    asyncio would resolve a host name on a thread of its default
    executor, and the server process runs no thread but its event loop.
    """
    infos = socket.getaddrinfo(
        host or None, None, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE,
    )
    return list(dict.fromkeys(str(info[4][0]) for info in infos))


#: A response head's strategy slot; :func:`response_line` puts the
#: stored answer's text in place of its ``null``.
_STRATEGY_KEY = '"strategy": '


def response_line(response: Dict[str, object]) -> bytes:
    """``json.dumps(response).encode() + b"\\n"``: one line of the wire.

    A response that carries a stored entry's
    :class:`~repro.serve.store.StrategyAnswer` encodes only its head,
    in one call, with ``strategy`` set to null, and splices the
    answer's text into that slot, wherever the key sits.  The head's
    other values are scalars and strings, and a string escapes its
    quotes, so the slot is found at the key.
    """
    answer = response.get("strategy")
    if not isinstance(answer, StrategyAnswer):
        return json.dumps(response).encode() + b"\n"
    head = dict(response)
    head["strategy"] = None
    before, _, after = json.dumps(head).partition(_STRATEGY_KEY + "null")
    return b"".join((
        (before + _STRATEGY_KEY).encode(), answer.text, after.encode(), b"\n",
    ))


async def handle_connection(
    service: StrategyService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    shutdown: asyncio.Event,
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                try:
                    message = json.loads(line)
                except ValueError as exc:
                    raise RequestError(f"request line is not JSON: {exc}") from None
                if not isinstance(message, dict):
                    raise RequestError(
                        "request line must be a JSON object, got "
                        f"{type(message).__name__}"
                    )
                op = message.get("op", "optimize")
                if op == "ping":
                    response: Dict[str, object] = {"status": "ok", "pong": True}
                elif op == "stats":
                    response = service.stats_json()
                elif op == "status":
                    response = service.status()
                elif op == "health":
                    response = service.health()
                elif op == "ready":
                    response = service.readiness()
                elif op == "metrics":
                    response = {
                        "status": "ok",
                        "exposition": service.metrics_document(),
                    }
                elif op == "shutdown":
                    response = {"status": "ok", "stopping": True}
                    service._shutting_down = True
                    shutdown.set()
                elif op == "optimize":
                    response = await service.answer(
                        message.get("request") or {},
                        queued_at=time.monotonic(),
                    )
                else:
                    response = {"status": "error",
                                "error": f"unknown op {op!r}"}
            except RequestError as exc:
                response = {"status": "error", "error": str(exc)}
            except ServeTimeout as exc:
                response = {
                    "status": "error", "error": str(exc),
                    "timeout": True,
                    "request_id": exc.request_id,
                }
            except WorkerCrashed as exc:
                _logger.error("request failed: %s", exc)
                response = {"status": "error", "error": str(exc), "crashed": True}
            except asyncio.TimeoutError:
                response = {
                    "status": "error", "timeout": True,
                    "error": "request deadline exceeded "
                             "(leader search still running)",
                }
            except Exception as exc:  # pragma: no cover - defensive
                _logger.exception("request failed")
                response = {"status": "error",
                            "error": f"{type(exc).__name__}: {exc}"}
            writer.write(response_line(response))
            await writer.drain()
            if shutdown.is_set():
                break
    finally:
        writer.close()


# ----------------------------------------------------------------------
# Plain-HTTP observability listener: GET /metrics, /healthz, /readyz.
# ----------------------------------------------------------------------

async def _handle_http_scrape(
    service: StrategyService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Answer one HTTP/1.0-style scrape and close (curl/Prometheus-grade).

    Deliberately minimal — request line + headers in, one response out —
    so the service stays dependency-free.  Anything but a GET for a
    known path gets a 404/405.
    """
    from ..obs.prometheus import CONTENT_TYPE

    try:
        request_line = await reader.readline()
        try:
            method, path, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            writer.close()
            return
        # Drain headers (ignored) until the blank line.
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
        path = path.split("?", 1)[0]
        if method.upper() != "GET":
            status, content_type, body = (
                "405 Method Not Allowed", "text/plain", "GET only\n"
            )
        elif path == "/metrics":
            status = "200 OK"
            content_type = CONTENT_TYPE
            body = service.metrics_document()
        elif path == "/healthz":
            health = service.health()
            status = "200 OK" if health["healthy"] else "503 Service Unavailable"
            content_type = "application/json"
            body = json.dumps(health) + "\n"
        elif path == "/readyz":
            readiness = service.readiness()
            status = "200 OK" if readiness["ready"] else "503 Service Unavailable"
            content_type = "application/json"
            body = json.dumps(readiness) + "\n"
        else:
            status, content_type, body = (
                "404 Not Found", "text/plain",
                "try /metrics, /healthz, or /readyz\n",
            )
        payload = body.encode()
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1") + payload
        )
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # scraper went away mid-request; nothing to answer
    finally:
        writer.close()


async def serve_metrics_http(
    service: StrategyService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str, int], None]] = None,
) -> "asyncio.AbstractServer":
    """Bind the GET /metrics + /healthz + /readyz listener; returns it."""
    server = await asyncio.start_server(
        lambda r, w: _handle_http_scrape(service, r, w), _addresses(host), port,
    )
    bound = server.sockets[0].getsockname()
    _logger.info("metrics on http://%s:%s/metrics", bound[0], bound[1])
    if ready is not None:
        ready(bound[0], bound[1])
    return server


async def serve_forever(
    service: StrategyService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str, int], None]] = None,
    metrics_port: Optional[int] = None,
    metrics_ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Run the TCP front-end until a client sends ``{"op": "shutdown"}``.

    ``ready(host, port)`` is invoked once the socket is bound (port 0
    picks a free port; this is how callers learn which).
    ``metrics_port`` additionally binds the plain-HTTP observability
    listener (``GET /metrics`` Prometheus exposition, ``/healthz``,
    ``/readyz``) on the same host; ``metrics_ready`` learns its port.

    First it forks ``service.workers`` worker children (see
    :mod:`repro.serve.worker`), before it binds a socket, so they
    inherit none; a request that needs a session borrows one for its
    build and search.  Everything else runs on the calling event loop,
    which starts no thread, so a replacement child is forked from a
    process with that one thread.  Every child is reaped before this
    returns.
    """
    shutdown = asyncio.Event()
    service.children = Children(service.workers)
    try:
        server = await asyncio.start_server(
            lambda r, w: handle_connection(service, r, w, shutdown),
            _addresses(host), port,
        )
        metrics_server = None
        if metrics_port is not None:
            metrics_server = await serve_metrics_http(
                service, host, metrics_port, ready=metrics_ready
            )
        bound = server.sockets[0].getsockname()
        _logger.info("serving on %s:%s", bound[0], bound[1])
        if ready is not None:
            ready(bound[0], bound[1])
        try:
            async with server:
                await shutdown.wait()
        finally:
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            service.close()
    finally:
        service.children.close()
        service.children = None
