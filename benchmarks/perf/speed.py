"""The host's current speed, as the time of a fixed pure-Python loop.

Shared hosts run the same work up to three times as slowly, in phases
of a second to minutes, and the phase can change in the middle of a
job.  So every process the benchmark starts measures the host while it
works: :func:`announce` times the loop before the process imports
``repro`` (its set-up is scaled by that), and a :class:`Sampler` thread
times one round of the loop every ``SAMPLE_EVERY`` seconds while the
work runs.  ``run.py`` reports each time scaled by ``REFERENCE_SECONDS``
over the mean loop time of the process it ran in (:func:`scale`).

The loop is timed in its own thread's CPU time, so a sample never counts
the time the thread waits for the GIL while the work holds it, but does
count the host running the thread slowly.  The loop uses no ``repro``
code, so no change to the program moves it.  A sample takes about 1.3%
of the sampling interval.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from typing import List, Sequence

#: CPU seconds one round of :func:`reference_loop` takes on the host the
#: benchmark was built on, when no other load slows it; times are
#: reported as if the host always ran at that speed.
REFERENCE_SECONDS = 0.0013
#: Rounds :func:`announce` times before the process starts its work.
ANNOUNCE_ROUNDS = 20
#: Seconds between two samples of a :class:`Sampler`.
SAMPLE_EVERY = 0.1

_NODES = 500
_rng = random.Random(0)
#: A fixed random DAG: each node feeds up to three of the next 49.
_SUCCESSORS = [
    _rng.sample(range(i + 1, min(_NODES, i + 50)), min(3, _NODES - 1 - i))
    for i in range(_NODES)
]


def reference_loop() -> float:
    """CPU seconds of this thread one list-scheduling round over the DAG takes."""
    start = time.thread_time()
    indegree = dict.fromkeys(range(_NODES), 0)
    for targets in _SUCCESSORS:
        for j in targets:
            indegree[j] += 1
    ready = [(0.0, i) for i in range(_NODES) if indegree[i] == 0]
    heapq.heapify(ready)
    free = [0.0] * 4
    while ready:
        at, i = heapq.heappop(ready)
        device = min(range(4), key=lambda d: max(free[d], at))
        free[device] = max(free[device], at) + (i % 7 + 1) * 1e-3
        for j in _SUCCESSORS[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, (free[device], j))
    return time.thread_time() - start


def scale(samples: Sequence[float]) -> float:
    """Factor that takes times measured alongside ``samples`` to the
    reference speed (1 without samples)."""
    return REFERENCE_SECONDS * len(samples) / sum(samples) if samples else 1.0


def announce() -> float:
    """Time :data:`ANNOUNCE_ROUNDS` rounds and print their mean as
    ``reference <seconds>`` for the parent."""
    seconds = sum(reference_loop() for _ in range(ANNOUNCE_ROUNDS)) / ANNOUNCE_ROUNDS
    print(f"reference {seconds!r}", flush=True)
    return seconds


class Sampler:
    """Times one round of the loop every :data:`SAMPLE_EVERY` seconds on
    a daemon thread, from ``with`` entry to exit."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY):
            self.samples.append(reference_loop())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
