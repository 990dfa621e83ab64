"""Experiment harness shared by the benchmark suite.

Runs one (model, cluster, batch, method) *trial* and returns the metrics
the paper's tables report: training speed, per-iteration time,
computation/memcpy breakdown, per-device op counts, split decisions, and
strategy-search time.  Trials are cached on disk keyed by their full
configuration and a fingerprint of the package sources, so the many
benchmark files can share results and no entry outlives the code that
measured it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from ..baselines import (
    build_data_parallel_baseline,
    model_parallel_strategy,
)
from ..cluster import Topology, cluster_for
from ..core import (
    FastTConfig,
    FastTSession,
    SearchOptions,
    Strategy,
    complete_order,
)
from ..graph import Graph, build_single_device_training_graph
from ..hardware import PerfModel
from ..models import ModelSpec, get_model
from ..obs import (
    Observability,
    ensure_dir,
    export_step_trace,
    write_metrics_json,
)
from ..obs.log import get_logger
from ..profiling import StepTrace
from ..sim import ExecutionSimulator, SimulationOOMError

_logger = get_logger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.calibration import CalibrationReport

#: Default cluster columns of Table 1 (strong scaling).
STRONG_SCALING_CONFIGS = [(1, 1), (2, 1), (4, 1), (8, 1), (8, 2)]
#: Default cluster columns of Table 2 (weak scaling).
WEAK_SCALING_CONFIGS = [(1, 1), (2, 1), (4, 1), (8, 1), (16, 2)]
#: Link-graph topology grid: (num_gpus, num_servers, interconnect).
#: Exercises routed multi-channel contention (PCIe bridge, NIC uplinks)
#: and heterogeneous devices alongside the paper's two-tier columns.
TOPOLOGY_CONFIGS = [
    (4, 1, "default"),
    (4, 1, "pcie"),
    (4, 1, "dgx"),
    (4, 1, "mixed"),
    (4, 2, "default"),
    (8, 4, "default"),
]

_MEASURE_STEPS = 3


def bench_config() -> FastTConfig:
    """FastT configuration tuned for benchmark wall-clock budgets."""
    return FastTConfig(
        profiling_steps=2,
        max_rounds=3,
        min_rounds=2,
        search=SearchOptions(max_candidate_ops=6),
        measure_steps=_MEASURE_STEPS,
    )


# ---------------------------------------------------------------------------
# Trace sink (the shared --trace-dir flag of the benchmark suite)
# ---------------------------------------------------------------------------
_TRACE_DIR: Optional[str] = None


def set_trace_dir(path: Optional[str]) -> None:
    """Route every subsequent trial's observability exports to ``path``.

    ``None`` disables exporting (the default).  Benchmarks set this from
    the shared ``--trace-dir`` pytest option.
    """
    global _TRACE_DIR
    _TRACE_DIR = ensure_dir(path) if path else None


def get_trace_dir() -> Optional[str]:
    return _TRACE_DIR


# Live progress (the shared --progress flag of the benchmark suite):
# attaches the event-bus TTY renderer to every FastT trial.
_PROGRESS = False


def set_progress(enabled: bool) -> None:
    """Render live search progress for subsequent trials (``--progress``)."""
    global _PROGRESS
    _PROGRESS = bool(enabled)


def get_progress() -> bool:
    return _PROGRESS


#: Opt-in env flag: ``REPRO_TRACE_PROVENANCE=1`` makes traced trials
#: also journal every search decision (exported as
#: ``<stem>.provenance.json`` / ``<stem>.calibration.json``).  Off by
#: default so traced benchmark runs measure the provenance-off search path.
_PROVENANCE_ENV = "REPRO_TRACE_PROVENANCE"


def _trial_obs() -> Optional[Observability]:
    """A recording hook when a trace dir or --progress is set, else None."""
    if not _TRACE_DIR and not _PROGRESS:
        return None
    return Observability(provenance=os.environ.get(_PROVENANCE_ENV, "") == "1")


@contextlib.contextmanager
def _progress_scope(obs: Optional[Observability]) -> Iterator[None]:
    """Attach the TTY renderer to ``obs`` for the duration of one trial."""
    if obs is None or not _PROGRESS:
        yield
        return
    from ..obs.progress import ProgressRenderer

    renderer = ProgressRenderer()
    obs.events.subscribe(renderer)
    try:
        yield
    finally:
        obs.events.unsubscribe(renderer)
        renderer.close()


def trial_stem(result: "TrialResult") -> str:
    """``<model>_<method>_<G>x<S>[_<cluster>]``: names a trial's exports."""
    stem = (
        f"{result.model}_{result.method}_"
        f"{result.num_gpus}x{result.num_servers}"
    )
    if result.cluster != "default":
        stem += f"_{result.cluster}"
    return stem


def _export_trial(
    result: "TrialResult",
    obs: Optional[Observability] = None,
    traces: Optional[List[StepTrace]] = None,
    calibration: Optional["CalibrationReport"] = None,
) -> None:
    """Write ``<model>_<method>_<G>x<S>.{trace,metrics,step}`` files."""
    if not _TRACE_DIR:
        return
    stem = trial_stem(result)
    base = os.path.join(_TRACE_DIR, stem)
    if obs is not None and obs.enabled:
        obs.export_chrome_trace(f"{base}.trace.json")
        write_metrics_json(
            f"{base}.metrics.json",
            obs.snapshot(),
            extra={
                "model": result.model,
                "method": result.method,
                "num_gpus": result.num_gpus,
                "num_servers": result.num_servers,
            },
        )
        # Provenance journal (REPRO_TRACE_PROVENANCE=1 runs only): what
        # `python -m repro.obs.provenance <dir> --op <name>` reads.
        obs.export_provenance(f"{base}.provenance.json")
    if calibration is not None and calibration.entries:
        calibration.save(f"{base}.calibration.json")
    if traces:
        export_step_trace(f"{base}.step.trace.json", traces[-1])
        # The analyzer's input: the same step, schema-versioned, with
        # blocking edges — what `python -m repro.obs.analyze` reads.
        traces[-1].save(f"{base}.step.json")


@dataclass
class TrialResult:
    """Everything the paper's tables and figures read off one trial."""

    model: str
    method: str
    num_gpus: int
    num_servers: int
    global_batch: int
    #: Interconnect preset (see :func:`repro.cluster.cluster_for`);
    #: ``"default"`` is the paper's two-tier NVLink/Ethernet world.
    cluster: str = "default"
    oom: bool = False
    iteration_time: float = float("nan")
    speed: float = float("nan")
    avg_compute_time: float = float("nan")
    total_memcpy_time: float = float("nan")
    peak_memory_gb: float = float("nan")
    ops_per_device: Dict[str, int] = field(default_factory=dict)
    split_list: List[Dict[str, object]] = field(default_factory=list)
    search_seconds: float = 0.0
    algorithm_seconds: float = 0.0
    devices_used: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TrialResult":
        return cls(**data)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------
def _cache_dir() -> str:
    root = os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "benchmarks", ".cache"),
    )
    os.makedirs(root, exist_ok=True)
    return root


#: Version of the cached-trial file layout (the ``TrialResult`` fields
#: and the surrounding envelope).  Bump when either changes shape: stale
#: entries written under another schema are invalidated on read instead
#: of being deserialized into the wrong dataclass.
CACHE_SCHEMA_VERSION = 2


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """Content hash of the ``repro`` package's Python sources.

    Computed once per process.  Keys the trial cache, so an entry
    written by other code misses instead of being served as current.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def cached_trial(key: Dict[str, object], fn: Callable[[], TrialResult]) -> TrialResult:
    """Run ``fn`` once per unique ``key``; later calls read the JSON cache.

    The digest covers both the caller's key and
    :data:`CACHE_SCHEMA_VERSION`; a stored file whose recorded schema
    disagrees (including pre-versioning files) is deleted and recomputed.

    A result read from the cache carries ``extra["cached"] = True``:
    its wall-clock fields are as old as the entry.

    The digest comes from :func:`repro.serve.store.request_fingerprint`
    — the same convention keying the strategy store and the service's
    request coalescing, so one cache identity means the same trial
    everywhere (and its byte layout matches this function's original
    inline digest, preserving pre-existing cache entries).
    """
    from ..serve.store import request_fingerprint

    digest = request_fingerprint(key, CACHE_SCHEMA_VERSION)
    path = os.path.join(_cache_dir(), f"{digest}.json")
    if os.path.exists(path):
        try:
            with open(path) as handle:
                stored = json.load(handle)
            if stored.get("schema") == CACHE_SCHEMA_VERSION:
                _logger.debug("trial cache hit %s (%s)", digest, key)
                result = TrialResult.from_json(stored["result"])
                result.extra["cached"] = True
                return result
        except (json.JSONDecodeError, KeyError, TypeError):
            pass  # corrupt or incompatible: fall through and recompute
        _logger.info("trial cache entry %s is stale; recomputing", digest)
        os.remove(path)
    _logger.info("running trial %s", key)
    result = fn()
    with open(path, "w") as handle:
        json.dump(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "key": key,
                "result": result.to_json(),
            },
            handle,
            indent=2,
        )
    return result


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
def _perf_model(topology: Topology, seed: int) -> PerfModel:
    return PerfModel(topology, noise_sigma=0.02, seed=seed)


def measure_strategy(
    graph: Graph,
    strategy: Strategy,
    topology: Topology,
    perf: PerfModel,
    steps: int = _MEASURE_STEPS,
) -> List[StepTrace]:
    """Simulate ``steps`` iterations of a strategy and return the traces."""
    simulator = ExecutionSimulator(graph, topology, perf)
    traces = []
    for _ in range(steps):
        if strategy.order:
            order = complete_order(graph, strategy.order)
            traces.append(
                simulator.run_step(strategy.placement, order=order, policy="priority")
            )
        else:
            traces.append(simulator.run_step(strategy.placement))
    return traces


def _fill_from_traces(result: TrialResult, traces: List[StepTrace], batch: int) -> None:
    iteration = sum(t.makespan for t in traces) / len(traces)
    result.iteration_time = iteration
    result.speed = batch / iteration
    result.avg_compute_time = sum(t.avg_compute_time for t in traces) / len(traces)
    result.total_memcpy_time = sum(t.total_memcpy_time for t in traces) / len(traces)
    result.peak_memory_gb = max(
        max(t.peak_memory.values(), default=0) for t in traces
    ) / 2 ** 30
    result.ops_per_device = traces[-1].ops_by_device()


# ---------------------------------------------------------------------------
# Trial runners
# ---------------------------------------------------------------------------
def run_data_parallel_trial(
    model: ModelSpec,
    num_gpus: int,
    num_servers: int,
    global_batch: int,
    seed: int = 7,
    cluster: str = "default",
) -> TrialResult:
    """Baseline DP (FIFO order, one replica per GPU)."""
    topology = cluster_for(num_gpus, num_servers, cluster)
    result = TrialResult(
        model=model.name,
        method="dp",
        num_gpus=num_gpus,
        num_servers=num_servers,
        global_batch=global_batch,
        cluster=cluster,
        devices_used=num_gpus,
    )
    try:
        if num_gpus == 1:
            graph = build_single_device_training_graph(
                model.builder, global_batch, name=f"{model.name}_1gpu"
            )
            strategy = Strategy(
                placement={op.name: topology.device_names[0] for op in graph.ops},
                label="dp",
            )
        else:
            graph, _, strategy = build_data_parallel_baseline(
                model.builder, topology, global_batch, name=f"{model.name}_dp"
            )
        traces = measure_strategy(
            graph, strategy, topology, _perf_model(topology, seed)
        )
        _fill_from_traces(result, traces, global_batch)
        _export_trial(result, traces=traces)
    except SimulationOOMError:
        result.oom = True
    return result


def run_fastt_trial(
    model: ModelSpec,
    num_gpus: int,
    num_servers: int,
    global_batch: int,
    seed: int = 7,
    config: Optional[FastTConfig] = None,
    cluster: str = "default",
) -> TrialResult:
    """Full FastT workflow: bootstrap, OS-DPOS, activation, rollback."""
    topology = cluster_for(num_gpus, num_servers, cluster)
    result = TrialResult(
        model=model.name,
        method="fastt",
        num_gpus=num_gpus,
        num_servers=num_servers,
        global_batch=global_batch,
        cluster=cluster,
    )
    obs = _trial_obs()
    try:
        with _progress_scope(obs):
            session = FastTSession(
                model.builder,
                topology,
                global_batch,
                perf_model=_perf_model(topology, seed),
                config=config or bench_config(),
                model_name=model.name,
                obs=obs,
            )
            report = session.optimize()
        traces = measure_strategy(
            report.graph,
            report.strategy,
            topology,
            _perf_model(topology, seed + 1),
        )
        _fill_from_traces(result, traces, global_batch)
        result.split_list = [
            {"op": d.op_name, "dim": d.dim, "num_splits": d.num_splits}
            for d in report.strategy.split_list
        ]
        result.search_seconds = report.total_search_seconds
        result.algorithm_seconds = report.algorithm_seconds
        result.devices_used = len(report.strategy.devices_used())
        result.extra["strategy_label"] = report.strategy.label
        result.extra["rounds"] = len(report.rounds)
        result.extra["candidates_evaluated"] = report.candidates_evaluated
        result.extra["splits_rejected"] = report.splits_rejected
        if report.calibration is not None and report.calibration.entries:
            result.extra["calibration"] = report.calibration.summary()
        _export_trial(
            result, obs=obs, traces=traces, calibration=report.calibration
        )
    except SimulationOOMError:
        result.oom = True
    return result


def run_model_parallel_trial(
    model: ModelSpec,
    num_gpus: int,
    num_servers: int,
    global_batch: int,
    seed: int = 7,
    cluster: str = "default",
) -> TrialResult:
    """Greedy contiguous model parallelism (comparison/ablation)."""
    topology = cluster_for(num_gpus, num_servers, cluster)
    result = TrialResult(
        model=model.name,
        method="mp",
        num_gpus=num_gpus,
        num_servers=num_servers,
        global_batch=global_batch,
        cluster=cluster,
        devices_used=num_gpus,
    )
    try:
        graph = build_single_device_training_graph(
            model.builder, global_batch, name=f"{model.name}_mp"
        )
        strategy = model_parallel_strategy(graph, topology)
        traces = measure_strategy(
            graph, strategy, topology, _perf_model(topology, seed)
        )
        _fill_from_traces(result, traces, global_batch)
        _export_trial(result, traces=traces)
    except SimulationOOMError:
        result.oom = True
    return result


def run_fastt_nosplit_trial(
    model: ModelSpec,
    num_gpus: int,
    num_servers: int,
    global_batch: int,
    seed: int = 7,
    cluster: str = "default",
) -> TrialResult:
    """FastT with operation splitting disabled (Table 6 ablation)."""
    config = bench_config()
    config.search.enable_splitting = False
    result = run_fastt_trial(
        model, num_gpus, num_servers, global_batch, seed=seed, config=config,
        cluster=cluster,
    )
    result.method = "fastt_nosplit"
    return result


_RUNNERS = {
    "dp": run_data_parallel_trial,
    "fastt": run_fastt_trial,
    "fastt_nosplit": run_fastt_nosplit_trial,
    "mp": run_model_parallel_trial,
}


def trial(
    model_name: str,
    method: str,
    num_gpus: int,
    num_servers: int = 1,
    global_batch: Optional[int] = None,
    preset: str = "bench",
    seed: int = 7,
    cluster: str = "default",
) -> TrialResult:
    """Cached entry point used by the benchmark files.

    ``cluster`` selects the interconnect preset (``"default"``,
    ``"pcie"``, ``"dgx"``, ``"mixed"`` — see
    :func:`repro.cluster.cluster_for`).
    """
    model = get_model(model_name, preset)
    batch = global_batch if global_batch is not None else model.global_batch
    key = {
        "model": model_name,
        "method": method,
        "gpus": num_gpus,
        "servers": num_servers,
        "batch": batch,
        "preset": preset,
        "seed": seed,
        "cluster": cluster,
        # Any source change can move a strategy or its timings, so an
        # entry written by other code must never be served.
        "source": source_fingerprint(),
    }
    runner = _RUNNERS[method]
    return cached_trial(
        key,
        lambda: runner(
            model, num_gpus, num_servers, batch, seed=seed, cluster=cluster
        ),
    )


# ---------------------------------------------------------------------------
# Session-level helpers (need the live Strategy, not just metrics)
# ---------------------------------------------------------------------------
_SESSION_CACHE: Dict[tuple, FastTSession] = {}


def optimized_session(
    model_name: str,
    num_gpus: int,
    num_servers: int = 1,
    preset: str = "bench",
    global_batch: Optional[int] = None,
    seed: int = 7,
) -> FastTSession:
    """A FastT session with its pre-training stage already run.

    Cached per process so figure benchmarks that need the live strategy
    (order lists, split details) share the optimization work.
    """
    model = get_model(model_name, preset)
    batch = global_batch if global_batch is not None else model.global_batch
    key = (model_name, num_gpus, num_servers, preset, batch, seed)
    session = _SESSION_CACHE.get(key)
    if session is None:
        topology = cluster_for(num_gpus, num_servers)
        obs = _trial_obs()
        with _progress_scope(obs):
            session = FastTSession(
                model.builder,
                topology,
                batch,
                perf_model=_perf_model(topology, seed),
                config=bench_config(),
                model_name=model.name,
                obs=obs,
            )
            session.optimize()
        if obs is not None and _TRACE_DIR:
            base = os.path.join(
                _TRACE_DIR,
                f"{model.name}_session_{num_gpus}x{num_servers}",
            )
            obs.export_chrome_trace(f"{base}.trace.json")
            obs.export_provenance(f"{base}.provenance.json")
            write_metrics_json(
                f"{base}.metrics.json",
                obs.snapshot(),
                extra={
                    "model": model.name,
                    "num_gpus": num_gpus,
                    "num_servers": num_servers,
                },
            )
        _SESSION_CACHE[key] = session
    return session


def order_enforcement_comparison(
    model_name: str,
    num_gpus: int = 2,
    preset: str = "bench",
    steps: int = _MEASURE_STEPS,
) -> Dict[str, float]:
    """Fig. 2: per-iteration time of FastT's placement under FIFO versus
    its enforced execution order (priority scheduling)."""
    session = optimized_session(model_name, num_gpus, preset=preset)
    report = session.optimize()
    topology = session.topology
    perf = _perf_model(topology, 23)
    strategy = report.strategy

    fifo_strategy = Strategy(placement=strategy.placement, order=[], label="fifo")
    fifo = measure_strategy(report.graph, fifo_strategy, topology, perf, steps)
    enforced = measure_strategy(report.graph, strategy, topology, perf, steps)
    fifo_time = sum(t.makespan for t in fifo) / len(fifo)
    enforced_time = sum(t.makespan for t in enforced) / len(enforced)
    if _TRACE_DIR:
        base = os.path.join(_TRACE_DIR, f"{model_name}_fig2_{num_gpus}gpu")
        export_step_trace(f"{base}.fifo.step.trace.json", fifo[-1])
        export_step_trace(f"{base}.enforced.step.trace.json", enforced[-1])
        fifo[-1].save(f"{base}.fifo.step.json")
        enforced[-1].save(f"{base}.enforced.step.json")
    return {
        "fifo_time": fifo_time,
        "enforced_time": enforced_time,
        "gain_percent": (1.0 - enforced_time / fifo_time) * 100.0,
    }
