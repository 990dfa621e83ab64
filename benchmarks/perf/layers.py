"""Layer spans recorded around repro's public functions, from outside.

:meth:`Tracer.install` replaces each function in :data:`LAYERS` with a
wrapper, in the module whose code calls it (or on its class, for
methods), so the program itself carries no instrumentation.  Every
wrapped call records a span: name, start, end, parent span and a job id
(the model of an optimize job, the request id of a served request),
kept in memory and written at exit as Chrome-trace JSON
(``chrome://tracing`` or Perfetto open it).

A span's *self time* is its duration minus the part its child spans
cover.  Children run on their parent's thread and nest inside it, so
the covered part is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

#: (layer, module, attribute): the call sites each layer's span wraps.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("api.optimize", "repro", "optimize"),
    ("session.build", "repro.core.session", "FastTSession.__init__"),
    ("graph.build", "repro.core.session", "build_single_device_training_graph"),
    ("graph.build", "repro.core.session", "build_data_parallel_training_graph"),
    ("session.fit_check", "repro.core.session", "fits_on_single_device"),
    ("calculator.run", "repro.core.calculator", "StrategyCalculator.run"),
    ("profiling.profile", "repro.profiling.profiler", "Profiler.profile"),
    ("costmodel.fit", "repro.profiling.profiler", "update_cost_models"),
    ("sim.step", "repro.sim.runner", "ExecutionSimulator.run_step"),
    ("search.osdpos", "repro.core.os_dpos", "OSDPOS.run"),
    ("search.dpos", "repro.core.dpos", "DPOS.run"),
    ("graph.coarsen", "repro.core.os_dpos", "contract_graph"),
    ("serve.submit", "repro.serve.service", "StrategyService.submit"),
    ("serve.store.get", "repro.serve.store", "StrategyStore.get"),
    ("serve.store.put", "repro.serve.store", "StrategyStore.put"),
    ("serve.store.find_similar", "repro.serve.store", "StrategyStore.find_similar"),
)

#: Layer names in report order (``graph.build`` wraps two functions).
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

#: The search's own counters, read off each OSDPOSResult.
SEARCH_COUNTERS = (
    "search.candidates_evaluated",
    "search.candidates_pruned",
    "search.splits_committed",
)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, job: str = "") -> None:
        self.job = job
        #: [name, thread, start_us, end_us, parent index, job, counters]
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` in place."""
        for name, module, attribute in LAYERS:
            owner = importlib.import_module(module)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(name, getattr(owner, leaf)))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None:
                job = self.spans[parent][5]
            elif name == "serve.submit":
                request = args[1] if len(args) > 1 else {}
                job = str(request.get("request_id", "")) if isinstance(
                    request, dict
                ) else ""
            else:
                job = self.job
            record = [
                name, threading.get_ident(), _now_us(), None, parent, job, None,
            ]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = _now_us()
                stack.pop()
            if name == "search.osdpos":
                record[6] = {k: result.metrics.get(k, 0) for k in SEARCH_COUNTERS}
            return result

        return traced

    def chrome_trace(self) -> Dict[str, object]:
        pid = os.getpid()
        now = _now_us()
        events = []
        for index, (name, tid, start, end, parent, job, counters) in enumerate(
            self.spans
        ):
            args = {"id": index, "parent": parent, "job": job}
            args.update(counters or {})
            events.append({
                "name": name, "cat": "layer", "ph": "X", "pid": pid,
                "tid": tid, "ts": start,
                "dur": (now if end is None else end) - start, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _now_us() -> int:
    # Whole microseconds: children's durations then sum to at most their
    # parent's exactly, so self time is never negative from rounding.
    return time.perf_counter_ns() // 1000


def layer_totals(
    events: Iterable[dict], jobs: Optional[set] = None
) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, inclusive ``total_s`` and ``self_s``.

    ``jobs`` keeps only the spans of those job ids.
    """
    events = [e for e in events if jobs is None or e["args"]["job"] in jobs]
    covered: Dict[Tuple[int, int], int] = defaultdict(int)
    for event in events:
        parent = event["args"]["parent"]
        if parent is not None:
            covered[(event["pid"], parent)] += event["dur"]
    totals: Dict[str, Dict[str, float]] = {}
    for event in events:
        row = totals.setdefault(
            event["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        own = event["dur"] - covered[(event["pid"], event["args"]["id"])]
        row["calls"] += 1
        row["total_s"] += event["dur"] / 1e6
        row["self_s"] += own / 1e6
    return totals


def search_counters(events: Iterable[dict]) -> Dict[str, int]:
    """The search counters summed over every OS-DPOS run in ``events``."""
    totals = dict.fromkeys(SEARCH_COUNTERS, 0)
    for event in events:
        if event["name"] == "search.osdpos":
            for key in SEARCH_COUNTERS:
                totals[key] += int(event["args"].get(key, 0))
    return totals
