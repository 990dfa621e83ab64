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
A request awaits its stages.  :class:`LocalStages` runs the two stages
in the calling thread and keeps the session between them; that is how
:meth:`StrategyService.submit <repro.serve.StrategyService.submit>`
answers its direct callers.  :class:`Children` is the front-end's pool
of forked children: each child runs the same two functions behind a
:func:`multiprocessing.connection.Pipe`, so the stages take the
interpreter lock of their own process instead of the server's, and a
:class:`Lease` lends one child to one request, which awaits each reply
on the running event loop.  A child that dies mid-request fails that
request with :class:`WorkerCrashed` and is replaced by a fresh fork.

The server process runs one thread, its event loop, so every child,
replacements included, is forked from a single-threaded process and
inherits no lock that another thread held.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import signal
import stat
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
    """The two stages in the calling thread (they never suspend);
    keeps the session between."""

    #: Seconds spent waiting for a worker child: none here.
    waited = 0.0

    def __init__(self) -> None:
        self._session: Optional[FastTSession] = None

    async def prepare(
        self, document: Dict[str, object], base: FastTConfig,
    ) -> Prepared:
        self._session, prepared = prepare(document, base)
        return prepared

    async def search(self, warm_start: Optional[WarmStartSeed]) -> Searched:
        session, self._session = self._session, None
        return search(session, warm_start)  # type: ignore[arg-type]

    def release(self) -> None:
        self._session = None


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
    closes, keeping the session between.  ``release`` drops it and gets
    no reply."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the server handles ^C
    _release_inherited_sockets(conn.fileno())
    session: Optional[FastTSession] = None
    while True:
        try:
            stage, args = conn.recv()
        except (EOFError, OSError):
            return
        current, session = session, None  # no session outlives a stage
        if stage == "release":
            continue
        try:
            if stage == "prepare":
                session, value = prepare(*args)
            else:
                value = search(current, *args)  # type: ignore[arg-type]
            reply = ("ok", value)
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as exc:  # an unpicklable result or exception
            conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))


class Child:
    """One forked child running the two stages behind a pipe."""

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

    async def call(self, stage: str, *args: object) -> object:
        """Run ``stage`` in the child, awaiting its reply on the running
        loop; its exceptions are re-raised here."""
        try:
            self.conn.send((stage, args))
            await _readable(self.conn)
            status, value = self.conn.recv()
        except (EOFError, OSError):
            self.lost = True
            raise WorkerCrashed(
                f"worker child {self.pid} died during {stage}"
            ) from None
        except BaseException:
            # Cancelled mid-stage: the reply would answer the next caller.
            self.lost = True
            raise
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


async def _readable(conn: Connection) -> None:
    """Return once ``conn`` has data or is at EOF; the loop runs meanwhile."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    fd = conn.fileno()
    loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
    try:
        await ready
    finally:
        loop.remove_reader(fd)


class Lease:
    """One child of a :class:`Children` pool lent to one request.

    The child is taken at the first ``prepare`` (a request answered
    without a session never takes one) and given back by ``release``.
    """

    def __init__(self, children: "Children") -> None:
        self._children = children
        self._child: Optional[Child] = None
        #: Seconds this request waited for an idle child.
        self.waited = 0.0

    async def prepare(
        self, document: Dict[str, object], base: FastTConfig,
    ) -> Prepared:
        if self._child is None:
            began = time.monotonic()
            self._child = await self._children.take()
            self.waited = time.monotonic() - began
        return await self._child.call("prepare", document, base)  # type: ignore[return-value]

    async def search(self, warm_start: Optional[WarmStartSeed]) -> Searched:
        return await self._child.call("search", warm_start)  # type: ignore[union-attr,return-value]

    def release(self) -> None:
        if self._child is not None:
            child, self._child = self._child, None
            self._children.give(child)


class Children:
    """``count`` forked children, each lent to one request at a time.

    Build it on the event loop that lends them, in a process that runs
    no other thread.  A child found dead when it is taken or given back
    is replaced by a fresh fork; :meth:`close` reaps them all.
    """

    def __init__(self, count: int) -> None:
        self._closed = False
        #: Idle children, the most recently given back first, so misses
        #: that come one at a time reuse the child whose heap and caches
        #: they already warmed; after :meth:`close`, a None that each
        #: taker passes on.
        self._idle: "asyncio.LifoQueue[Optional[Child]]" = asyncio.LifoQueue()
        #: Every child, lent or idle, in a fixed slot each.
        self.members: List[Child] = []
        for _ in range(count):
            child = Child()
            self.members.append(child)
            self._idle.put_nowait(child)

    async def take(self) -> Child:
        child = await self._idle.get()
        if child is None:
            self._idle.put_nowait(None)
            raise WorkerCrashed("worker children are shut down")
        if child.lost or not child.process.is_alive():
            try:
                child = self._replace(child)
            except OSError as exc:
                self._idle.put_nowait(child)
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
                child.conn.send(("release", ()))  # drop the session
            except OSError:
                child.lost = True
        if child.lost:
            try:
                child = self._replace(child)
            except OSError:
                _logger.exception("could not replace worker child %s", child.pid)
        self._idle.put_nowait(child)

    def _replace(self, child: Child) -> Child:
        """Reap a dead ``child`` and fork its successor into its slot."""
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
            for child in self.members
        ]

    def close(self) -> None:
        """Stop and reap every child (idempotent).

        An idle child exits when its pipe closes; a lent one is given
        :data:`CLOSE_GRACE` seconds to finish its stage, then terminated,
        and its borrower gets :class:`WorkerCrashed`.
        """
        self._closed = True
        while not self._idle.empty():
            idle = self._idle.get_nowait()
            if idle is not None:
                idle.conn.close()
        self._idle.put_nowait(None)
        for child in self.members:
            child.reap(CLOSE_GRACE)
