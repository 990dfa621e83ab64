"""The CPU work of a miss, in the calling thread or a worker child.

A request the strategy store cannot answer costs two stages of pure
Python work:

* :func:`prepare` — build the request's :class:`~repro.core.FastTSession`
  from its normalized document and report the input graph's fingerprint
  and :func:`~repro.graph.delta.graph_signature`;
* :func:`search` — optimize that session, warm-started from the seed
  the caller found, and report the strategy, its measured step time and
  whether the warm start fell back.

Each stage reports its wall and CPU seconds (``time.process_time()``).
:class:`LocalStages` runs the two stages in the calling thread and keeps
the session between them; that is how :meth:`StrategyService.submit
<repro.serve.StrategyService.submit>` answers its direct callers.
:class:`Children` is the front-end's pool of forked children: each child
runs the same :class:`LocalStages` behind a
:func:`multiprocessing.connection.Pipe`, so the stages take the
interpreter lock of their own process instead of the server's, and a
:class:`Lease` lends one child to one request.  A child that dies
mid-request fails that request with :class:`WorkerCrashed` and is
replaced by a fresh fork.

The lock rule: a child resolves model, topology and config from the
request document alone, and takes no lock of the service it was forked
from.  A replacement is forked while the server's threads run, and a
lock one of them held at that moment stays held in the child forever.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import queue
import signal
import stat
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, Pipe
from typing import Dict, List, Optional, Tuple

from ..cluster import Topology, topology_from
from ..core.calculator import FastTConfig
from ..core.context import WarmStartSeed
from ..core.session import FastTSession
from ..core.strategy import Strategy
from ..graph.delta import graph_contents, graph_signature
from ..models import ModelSpec, get_model
from ..obs import log as obs_log
from ..obs import runs as obs_runs

_logger = obs_log.get_logger(__name__)

#: Topology strings whose resolved topology and cluster fingerprint are
#: kept, least recently used evicted.
TOPOLOGY_MEMO_CAPACITY = 64

#: Seconds a child may take to finish its work at shutdown before it is
#: terminated.
CLOSE_GRACE = 1.0


class RequestError(ValueError):
    """A malformed or unserviceable optimization request."""


class WorkerCrashed(RuntimeError):
    """The worker child running a request's stage died before answering."""


# -- request resolution, shared by the event loop and every child --------

def build_config(base: FastTConfig, overrides: Dict[str, object]) -> FastTConfig:
    """``base`` with a normalized request's ``config`` overrides applied."""
    search_overrides = overrides.get("search")
    config = replace(
        base, **{k: v for k, v in overrides.items() if k != "search"}
    )
    if search_overrides:
        config = replace(config, search=replace(config.search, **search_overrides))
    return config


def resolve_topology(topology: object) -> Tuple[Topology, str]:
    """A request's topology and its cluster fingerprint."""
    resolve = (
        _topology_from_string if isinstance(topology, str)
        else _topology_and_fingerprint
    )
    try:
        return resolve(topology)
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestError(f"invalid topology: {exc}") from None


def _topology_and_fingerprint(topology: object) -> Tuple[Topology, str]:
    resolved = topology_from(topology)  # type: ignore[arg-type]
    return resolved, obs_runs.cluster_fingerprint(resolved)


# Both depend on the string alone, and a Topology only caches routes, so
# one is shared by every request naming the same string.
_topology_from_string = functools.lru_cache(maxsize=TOPOLOGY_MEMO_CAPACITY)(
    _topology_and_fingerprint
)


def resolve_model(name: str) -> ModelSpec:
    try:
        return get_model(name)
    except KeyError as exc:
        raise RequestError(str(exc.args[0])) from None


# -- the two stages ------------------------------------------------------

@dataclass
class Prepared:
    """What :func:`prepare` reports about the session it built."""

    graph_fp: str
    signature: Dict[str, str]
    wall_s: float
    cpu_s: float


@dataclass
class Searched:
    """What :func:`search` reports about the strategy it found."""

    strategy: Strategy
    measured_time: float
    warm_fallbacks: int
    wall_s: float
    cpu_s: float


def prepare(
    document: Dict[str, object], base: FastTConfig,
) -> Tuple[FastTSession, Prepared]:
    """Build the session of a normalized request document."""
    wall, cpu = time.perf_counter(), time.process_time()
    spec = resolve_model(str(document["model"]))
    topology, _ = resolve_topology(document["topology"])
    session = FastTSession(
        spec.builder, topology,
        global_batch=int(document.get("global_batch") or spec.global_batch),
        config=build_config(base, document.get("config") or {}),
        model_name=spec.name,
    )
    # Both keys read each op's content; compute it once.
    contents = graph_contents(session.input_graph)
    graph_fp = obs_runs.graph_fingerprint(session.input_graph, contents)
    signature = graph_signature(session.input_graph, contents)
    return session, Prepared(
        graph_fp=graph_fp,
        signature=signature,
        wall_s=time.perf_counter() - wall,
        cpu_s=time.process_time() - cpu,
    )


def search(
    session: FastTSession, warm_start: Optional[WarmStartSeed],
) -> Searched:
    """Optimize ``session`` on a fresh context seeded with ``warm_start``."""
    wall, cpu = time.perf_counter(), time.process_time()
    report = session.optimize(context=session.new_context(warm_start=warm_start))
    return Searched(
        strategy=report.strategy,
        measured_time=report.measured_time,
        warm_fallbacks=int(report.metrics.get("search.warm_fallbacks", 0)),
        wall_s=time.perf_counter() - wall,
        cpu_s=time.process_time() - cpu,
    )


class LocalStages:
    """The two stages in the calling thread; keeps the session between."""

    def __init__(self) -> None:
        self._session: Optional[FastTSession] = None

    def prepare(self, document: Dict[str, object], base: FastTConfig) -> Prepared:
        self._session, prepared = prepare(document, base)
        return prepared

    def search(self, warm_start: Optional[WarmStartSeed]) -> Searched:
        session, self._session = self._session, None
        return search(session, warm_start)  # type: ignore[arg-type]

    def release(self) -> None:
        self._session = None

    def __enter__(self) -> "LocalStages":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# -- worker children -----------------------------------------------------

_FORK = multiprocessing.get_context("fork")


def peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MB, or
    None when it cannot be read."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return None


def _release_inherited_sockets(keep: int) -> None:
    """Point every socket a child inherited, but ``keep``, at /dev/null.

    A fork copies the server's listeners, client connections and the
    other children's pipes.  Held by a child, a connection the server
    closes stays open, and a child would not see its pipe close when the
    server dies.  Each descriptor is replaced instead of closed, so a
    socket object still in the child's memory can never close a file
    that later reused its number.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in descriptors:
        if fd in (keep, null):
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:
            pass
    os.close(null)


def _child_main(conn: Connection) -> None:
    """A child's loop: run each stage its parent sends until the pipe
    closes.  ``release`` gets no reply."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the server handles ^C
    _release_inherited_sockets(conn.fileno())
    stages = LocalStages()
    while True:
        try:
            stage, args = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = ("ok", getattr(stages, stage)(*args))
        except Exception as exc:
            reply = ("error", exc)
        if stage == "release":
            continue
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as exc:  # an unpicklable result or exception
            conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))


class Child:
    """One forked child running :class:`LocalStages` behind a pipe."""

    def __init__(self) -> None:
        conn, child_end = Pipe()
        self.process = _FORK.Process(
            target=_child_main, args=(child_end,), daemon=True,
            name="repro-serve-child",
        )
        self.process.start()
        child_end.close()
        self.conn = conn
        #: Set once the pipe failed: the child is dead or dying.
        self.lost = False

    @property
    def pid(self) -> int:
        return self.process.pid  # type: ignore[return-value]

    def call(self, stage: str, *args: object) -> object:
        """Run ``stage`` in the child; its exceptions are re-raised here."""
        try:
            self.conn.send((stage, args))
            if stage == "release":
                return None
            status, value = self.conn.recv()
        except (EOFError, OSError):
            self.lost = True
            raise WorkerCrashed(
                f"worker child {self.pid} died during {stage}"
            ) from None
        if status == "error":
            raise value  # type: ignore[misc]
        return value

    def reap(self, timeout: float) -> None:
        """Wait for the child to exit, terminating it after ``timeout``
        seconds."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


class Lease:
    """One child of a :class:`Children` pool lent to one request.

    The child is taken at the first ``prepare`` (a request answered
    without a session never takes one) and given back by ``release``.
    """

    def __init__(self, children: "Children") -> None:
        self._children = children
        self._child: Optional[Child] = None

    def prepare(self, document: Dict[str, object], base: FastTConfig) -> Prepared:
        if self._child is None:
            self._child = self._children.take()
        return self._child.call("prepare", document, base)  # type: ignore[return-value]

    def search(self, warm_start: Optional[WarmStartSeed]) -> Searched:
        return self._child.call("search", warm_start)  # type: ignore[union-attr,return-value]

    def release(self) -> None:
        if self._child is not None:
            child, self._child = self._child, None
            self._children.give(child)

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class Children:
    """``count`` forked children, each lent to one request at a time.

    Fork them before the process starts any thread of its own.  A child
    found dead when it is taken or given back is replaced by a fresh
    fork; :meth:`close` reaps them all.
    """

    def __init__(self, count: int) -> None:
        self._lock = threading.Lock()
        self._closed = False
        #: Idle children, the most recently given back first, so misses
        #: that come one at a time reuse the child whose heap and caches
        #: they already warmed; after :meth:`close`, a None that each
        #: taker passes on.
        self._idle: "queue.LifoQueue[Optional[Child]]" = queue.LifoQueue()
        #: Every child, lent or idle, in a fixed slot each.
        self.members: List[Child] = []
        for _ in range(count):
            child = Child()
            self.members.append(child)
            self._idle.put(child)

    def lease(self) -> Lease:
        return Lease(self)

    def take(self) -> Child:
        child = self._idle.get()
        if child is None:
            self._idle.put(None)
            raise WorkerCrashed("worker children are shut down")
        if child.lost or not child.process.is_alive():
            try:
                child = self._replace(child)
            except OSError as exc:
                self._idle.put(child)
                raise WorkerCrashed(
                    f"could not replace worker child {child.pid}: {exc}"
                ) from exc
        return child

    def give(self, child: Child) -> None:
        if self._closed:
            child.conn.close()  # close() has reaped it
            return
        if not child.lost:
            try:
                child.call("release")
            except WorkerCrashed:
                pass
        if child.lost:
            try:
                child = self._replace(child)
            except OSError:
                _logger.exception("could not replace worker child %s", child.pid)
        self._idle.put(child)

    def _replace(self, child: Child) -> Child:
        """Reap a dead ``child`` and fork its successor into its slot."""
        with self._lock:
            if self._closed:
                return child
            child.lost = True
            child.process.kill()
            child.reap(CLOSE_GRACE)
            child.conn.close()
            successor = Child()
            self.members[self.members.index(child)] = successor
        _logger.warning(
            "worker child %s exited (code %s); forked %s",
            child.pid, child.process.exitcode, successor.pid,
        )
        return successor

    def status(self) -> List[Dict[str, object]]:
        """Each child's pid, liveness and peak RSS (MB)."""
        return [
            {
                "pid": child.pid,
                "alive": not child.lost and child.process.is_alive(),
                "peak_rss_mb": peak_rss_mb(child.pid),
            }
            for child in list(self.members)
        ]

    def close(self) -> None:
        """Stop and reap every child (idempotent).

        An idle child exits when its pipe closes; a lent one is given
        :data:`CLOSE_GRACE` seconds to finish its stage, then terminated,
        and its borrower gets :class:`WorkerCrashed`.
        """
        with self._lock:
            self._closed = True
            members = list(self.members)
        while True:
            try:
                idle = self._idle.get_nowait()
            except queue.Empty:
                break
            if idle is not None:
                idle.conn.close()
        self._idle.put(None)
        for child in members:
            child.reap(CLOSE_GRACE)
