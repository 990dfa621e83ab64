"""FastTSession: the transparent entry point (the ``BaseSession`` hook).

In the paper, FastT lives inside TensorFlow's ``BaseSession.__init__``
and ``run``: developers keep their model code and get automatic
deployment.  Here the session takes a model *builder* and a cluster and
does everything else — chooses the input graph (data-parallel replication
when the model fits one GPU, the plain model DAG otherwise), bootstraps
cost models through pre-training, activates strategies with simulated
checkpoint/restart, and then "trains" under the surviving strategy.

>>> from repro import FastTSession
>>> from repro.cluster import single_server
>>> session = FastTSession(my_builder, single_server(4), global_batch=64)
>>> report = session.optimize()
>>> session.training_speed()   # samples/second
"""

from __future__ import annotations

import dataclasses
import threading
from typing import List, Optional

from ..cluster import Topology
from ..graph import (
    Graph,
    ModelBuilder,
    build_data_parallel_training_graph,
    build_single_device_training_graph,
    data_parallel_placement,
)
from ..hardware import PerfModel
from ..obs import Observability, get_obs
from ..profiling import StepTrace
from ..sim import ExecutionSimulator, SimulationOOMError
from .calculator import CalculationReport, FastTConfig, StrategyCalculator
from .context import SearchContext, WarmStartSeed
from .placer import model_parallel_placement
from .strategy import Strategy


def fits_on_single_device(
    graph: Graph, topology: Topology, perf_model: Optional[PerfModel] = None
) -> bool:
    """Can the whole training graph run on one GPU without OOM?

    Decides between the data-parallel and model-parallel input graphs
    (Sec. 5.2).  The check actually executes the step on one device with
    memory enforcement, so it accounts for activation liveness, not just
    parameter bytes.
    """
    perf_model = perf_model or PerfModel(topology)
    device = topology.device_names[0]
    placement = {op.name: device for op in graph.ops}
    simulator = ExecutionSimulator(graph, topology, perf_model)
    try:
        simulator.run_step(placement)
    except SimulationOOMError:
        return False
    return True


class FastTSession:
    """Automatic multi-GPU deployment for one training job."""

    def __init__(
        self,
        model_builder: ModelBuilder,
        topology: Topology,
        global_batch: int,
        perf_model: Optional[PerfModel] = None,
        config: Optional[FastTConfig] = None,
        model_name: str = "model",
        obs: Optional[Observability] = None,
    ) -> None:
        self.model_builder = model_builder
        self.topology = topology
        self.global_batch = global_batch
        self.perf_model = perf_model or PerfModel(topology, noise_sigma=0.02)
        self.config = config or FastTConfig()
        self.model_name = model_name
        self.obs = get_obs(obs)

        self.alternative_inputs: list = []
        self.input_graph, self.initial_strategy = self._prepare_input()
        if self.obs.events.enabled:
            self.obs.events.emit(
                "session.input",
                graph=self.input_graph.name,
                strategy=self.initial_strategy.label,
                ops=self.input_graph.num_ops,
                alternatives=len(self.alternative_inputs),
            )
        self._report: Optional[CalculationReport] = None
        self._report_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _prepare_input(self) -> tuple:
        """Choose the input DAG and starting strategy (Sec. 5.2).

        Data parallelism is the starting strategy whenever it is feasible:
        either the whole training graph fits one GPU (the paper's check),
        or — for activation-bound batches — the *replicated* graph still
        executes under its default placement (each tower only holds
        ``batch / N`` of the activations).  Only when even that OOMs do we
        fall back to the plain model DAG with a model-parallel start.
        """
        single = build_single_device_training_graph(
            self.model_builder, self.global_batch, name=f"{self.model_name}_single"
        )
        if len(self.topology.devices) == 1:
            placement = {
                op.name: self.topology.device_names[0] for op in single.ops
            }
            return single, Strategy(placement=placement, label="single-gpu")

        num_devices = len(self.topology.devices)
        dp_feasible = self.global_batch >= num_devices
        if dp_feasible:
            dp_graph, _ = build_data_parallel_training_graph(
                self.model_builder,
                num_replicas=num_devices,
                global_batch=self.global_batch,
                name=f"{self.model_name}_dp",
            )
            dp_placement = data_parallel_placement(
                dp_graph, self.topology.device_names
            )
            if fits_on_single_device(single, self.topology, self.perf_model):
                # The plain model DAG stays on the table as an alternative
                # input: OS-DPOS on it may beat DP using fewer devices
                # (Sec. 5.2: FastT can choose a device subset).
                single_placement = {
                    op.name: self.topology.device_names[0] for op in single.ops
                }
                self.alternative_inputs = [
                    (single, Strategy(placement=single_placement, label="single"))
                ]
                return dp_graph, Strategy(
                    placement=dp_placement, label="data-parallel"
                )
            # Large model: keep DP if its default deployment executes.
            simulator = ExecutionSimulator(
                dp_graph, self.topology, self.perf_model
            )
            try:
                simulator.run_step(dp_placement)
            except SimulationOOMError:
                pass
            else:
                return dp_graph, Strategy(
                    placement=dp_placement, label="data-parallel"
                )
        return single, Strategy(
            placement=model_parallel_placement(single, self.topology),
            label="model-parallel",
        )

    # ------------------------------------------------------------------
    def new_context(
        self,
        obs: Optional[Observability] = None,
        warm_start: Optional[WarmStartSeed] = None,
    ) -> SearchContext:
        """A fresh per-request :class:`SearchContext` for this job.

        The context replicates the session's perf model (same seed, own
        RNG stream) and starts with empty cost models, so N contexts run
        concurrently without sharing any mutable state — and produce the
        same strategies whether they run serially or in parallel.
        """
        return SearchContext.create(
            self.topology,
            perf_model=dataclasses.replace(
                self.perf_model, efficiency=dict(self.perf_model.efficiency)
            ),
            config=self.config,
            obs=obs if obs is not None else self.obs,
            warm_start=warm_start,
        )

    def optimize(
        self,
        force: bool = False,
        context: Optional[SearchContext] = None,
    ) -> CalculationReport:
        """Run (or return the cached) pre-training stage.

        Without ``context`` this is the single-tenant path: one
        memoized run over the session's own perf model and freshly
        created cost models (byte-identical to the pre-context engine).
        With an explicit ``context`` (see :meth:`new_context`) the run
        uses *only* that context's state, is safe to invoke from
        multiple threads on distinct contexts, and always executes —
        repeat-request caching is the strategy store's job
        (:mod:`repro.serve`), not the session's.
        """
        if context is not None:
            report = StrategyCalculator(
                self.input_graph,
                self.initial_strategy,
                context,
                alternative_inputs=self.alternative_inputs,
            ).run()
            with self._report_lock:
                if self._report is None:
                    # Adopt the result so session.run()/strategy work
                    # after a context-driven optimize.
                    self._report = report
            return report
        with self._report_lock:
            if self._report is None or force:
                calculator = StrategyCalculator(
                    self.input_graph,
                    self.initial_strategy,
                    SearchContext.create(
                        self.topology,
                        perf_model=self.perf_model,
                        config=self.config,
                        obs=self.obs,
                    ),
                    alternative_inputs=self.alternative_inputs,
                )
                self._report = calculator.run()
            return self._report

    @property
    def strategy(self) -> Strategy:
        return self.optimize().strategy

    @property
    def graph(self) -> Graph:
        """The (possibly rewritten) graph the active strategy deploys."""
        return self.optimize().graph

    # ------------------------------------------------------------------
    def run(self, num_steps: int = 1) -> List[StepTrace]:
        """Normal-training stage: execute steps under the active strategy."""
        report = self.optimize()
        simulator = ExecutionSimulator(
            report.graph, self.topology, self.perf_model, obs=self.obs
        )
        strategy = report.strategy
        order = strategy.order if self.config.enable_order_enforcement else None
        return [
            simulator.run_step(strategy.placement, order=order)
            for _ in range(num_steps)
        ]

    def iteration_time(self) -> float:
        """Measured per-iteration time of the active strategy (seconds)."""
        return self.optimize().measured_time

    def training_speed(self) -> float:
        """Samples per second — the paper's headline metric."""
        return self.global_batch / self.iteration_time()
