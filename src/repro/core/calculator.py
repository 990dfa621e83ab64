"""Strategy calculator: FastT's pre-training workflow (Sec. 4).

The calculator owns the loop the paper describes:

1. profile the current strategy for a few iterations and update the
   cost models (a default data/model-parallel strategy is used while the
   models are empty);
2. run OS-DPOS with the updated models; if the estimated iteration time
   beats the active strategy's, checkpoint, rebuild the graph with the
   new partition list, and activate the new placement and order
   (simulated restart with a configurable overhead);
3. after activation, compare *measured* per-iteration time against the
   previous strategy and roll back when the new one is slower;
4. stop once the computation cost model is stable.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.calibration import CalibrationReport

from ..cluster import Topology
from ..costmodel import (
    CommunicationCostModel,
    ComputationCostModel,
    StabilityMonitor,
)
from ..graph import Graph
from ..hardware import PerfModel
from ..obs import MetricsSnapshot, Observability
from ..profiling import Profiler
from ..sim import ExecutionSimulator, SimulationOOMError
from .context import SearchContext
from .dpos import DPOS
from .order import complete_order
from .os_dpos import OSDPOS, SearchOptions
from .placer import apply_placement
from .strategy import Strategy


@dataclass
class FastTConfig:
    """Tunables of the FastT workflow.

    Attributes mirror the paper's system knobs; defaults follow Sec. 4/6.
    The strategy-search knobs live in ``search`` (a
    :class:`~repro.core.os_dpos.SearchOptions`).
    """

    profiling_steps: int = 2
    max_rounds: int = 5
    min_rounds: int = 2
    stability_tolerance: float = 0.08
    #: Knobs of the OS-DPOS strategy search (splitting, coarsening).
    search: SearchOptions = field(default_factory=SearchOptions)
    memory_fraction: float = 0.9
    restart_overhead_seconds: float = 5.0
    enable_order_enforcement: bool = True
    enable_rollback: bool = True
    measure_steps: int = 3


@dataclass
class RoundRecord:
    """What happened in one pre-training round."""

    round_index: int
    strategy_label: str
    measured_time: Optional[float] = None
    estimated_time: Optional[float] = None
    activated: bool = False
    rolled_back: bool = False
    stable: bool = False


@dataclass
class CalculationReport:
    """Result of the pre-training stage.

    ``metrics`` aggregates the search counters of every OS-DPOS run the
    workflow made (``search.*`` names); the legacy counter attributes are
    read-only views over it.
    """

    strategy: Strategy
    graph: Graph
    rounds: List[RoundRecord] = field(default_factory=list)
    measured_time: float = float("inf")
    initial_measured_time: float = float("inf")
    algorithm_seconds: float = 0.0
    simulated_profiling_seconds: float = 0.0
    simulated_restart_seconds: float = 0.0
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Predicted-vs-realized cost-model residuals for the surviving
    #: strategy; populated only when provenance recording is enabled.
    calibration: Optional["CalibrationReport"] = None

    @property
    def candidates_evaluated(self) -> int:
        """View of ``metrics["search.candidates_evaluated"]``."""
        return int(self.metrics.get("search.candidates_evaluated", 0))

    @property
    def splits_rejected(self) -> int:
        """View of ``metrics["search.splits_rejected"]`` (rejected by
        simulation: the candidate's DPOS makespan did not beat the
        incumbent)."""
        return int(self.metrics.get("search.splits_rejected", 0))

    @property
    def total_search_seconds(self) -> float:
        """Wall+simulated time of the whole search (the paper's Table 4)."""
        return (
            self.algorithm_seconds
            + self.simulated_profiling_seconds
            + self.simulated_restart_seconds
        )


@dataclass
class _RunState:
    """State of one ``run()`` invocation (never shared across calls)."""

    #: Surviving ``(graph, default strategy)`` alternatives; infeasible
    #: ones are dropped after their seed-profiling step.
    alternatives: List[Tuple[Graph, Strategy]]
    stability: StabilityMonitor
    alternatives_profiled: bool = False


class StrategyCalculator:
    """Drives the pre-training loop for one training job.

    All mutable per-request state — cost models, perf-model RNG,
    observability sinks, calibration predictions — lives on the given
    :class:`~repro.core.context.SearchContext` (see
    :meth:`SearchContext.create <repro.core.context.SearchContext.create>`
    and :meth:`FastTSession.new_context
    <repro.core.session.FastTSession.new_context>`).  One calculator
    serves one request; concurrent requests each build their own
    calculator over their own context.
    """

    def __init__(
        self,
        input_graph: Graph,
        initial_strategy: Strategy,
        context: SearchContext,
        alternative_inputs: Optional[List] = None,
    ) -> None:
        """``alternative_inputs`` is a list of ``(graph, default strategy)``
        pairs the calculator may deploy instead of ``input_graph`` — e.g.
        the plain model DAG next to the data-parallel replication, which is
        how FastT can end up using only a subset of the devices (Sec. 5.2:
        "FastT may not use all the input devices").  Each alternative is
        profiled once under its default strategy to seed the cost models,
        then competes in every OS-DPOS round on estimated finish time.
        """
        self.context = context
        self.input_graph = input_graph
        self.alternative_inputs = list(alternative_inputs or [])
        # One simulator per graph object (keyed by id; the simulator holds
        # the graph, so the id stays unique): its execution plan re-keys
        # itself on Graph.version and jitter lives in the perf model, so
        # reusing it across profiles changes no result.
        self._simulators: Dict[int, ExecutionSimulator] = {}

        # The initial strategy is normalized into a private copy; the
        # caller's Strategy object is never written (two requests may
        # share one).
        self.initial_strategy = dataclasses.replace(
            initial_strategy,
            placement=apply_placement(
                input_graph, initial_strategy.placement, self.topology
            ),
        )

    # -- context views (the request-local collaborators) ----------------
    @property
    def topology(self) -> Topology:
        return self.context.topology

    @property
    def perf_model(self) -> PerfModel:
        return self.context.perf_model

    @property
    def config(self) -> FastTConfig:
        return self.context.config

    @property
    def obs(self) -> Observability:
        return self.context.obs

    @property
    def computation(self) -> ComputationCostModel:
        return self.context.computation

    @property
    def communication(self) -> CommunicationCostModel:
        return self.context.communication

    # ------------------------------------------------------------------
    def _profiler_for(self, graph: Graph) -> Profiler:
        simulator = self._simulators.get(id(graph))
        if simulator is None:
            simulator = ExecutionSimulator(
                graph, self.topology, self.perf_model, obs=self.obs
            )
            self._simulators[id(graph)] = simulator
        return Profiler(simulator, self.computation, self.communication)

    def _profile(self, graph: Graph, strategy: Strategy, steps: int):
        profiler = self._profiler_for(graph)
        if strategy.order and self.config.enable_order_enforcement:
            order = complete_order(graph, strategy.order)
            return profiler.profile(
                strategy.placement, order=order, policy="priority",
                num_steps=steps,
            )
        return profiler.profile(strategy.placement, num_steps=steps)

    def _profile_alternatives(
        self,
        report: "CalculationReport",
        best: Optional[tuple],
        state: _RunState,
    ) -> Optional[tuple]:
        """Seed the cost models with one step of each alternative graph.

        An alternative's *measured* time also competes for the final
        strategy — this is how FastT can end up deploying the plain model
        DAG on a subset of the devices when replication only adds
        synchronization cost.  Returns the updated best-measured tuple.
        """
        if state.alternatives_profiled:
            return best
        state.alternatives_profiled = True
        surviving = []
        with self.obs.events.span(
            "calculator.profile", alternatives=len(state.alternatives)
        ):
            for graph, strategy in state.alternatives:
                try:
                    result = self._profile(graph, strategy, 1)
                except SimulationOOMError:
                    continue  # infeasible alternative: drop it
                report.simulated_profiling_seconds += sum(
                    t.makespan for t in result.traces
                )
                measured = result.mean_iteration_time
                if best is None or measured < best[2]:
                    best = (strategy, graph, measured)
                surviving.append((graph, strategy))
        state.alternatives = surviving
        return best

    def _compute_strategy(
        self, report: "CalculationReport", state: _RunState
    ) -> tuple:
        """OS-DPOS over every candidate input graph; keep the best estimate.

        Returns ``(strategy, rewritten graph)`` and accumulates the
        search's candidate counters onto ``report``.  When the context
        carries a :class:`~repro.core.context.WarmStartSeed`, the
        primary input graph's search replays the seed's partition list
        instead of walking the critical path cold.
        """
        dpos = DPOS(
            self.topology,
            self.computation,
            self.communication,
            memory_fraction=self.config.memory_fraction,
            obs=self.obs,
        )
        search = self.config.search
        candidates = [self.input_graph] + [g for g, _ in state.alternatives]
        best: Optional[tuple] = None
        for graph in candidates:
            if search.enable_splitting:
                warm = (
                    self.context.warm_start
                    if graph is self.input_graph
                    else None
                )
                result = OSDPOS(dpos, options=search, obs=self.obs).run(
                    graph, warm_start=warm
                )
                strategy, rewritten = result.strategy, result.graph
                for key, value in result.metrics.items():
                    report.metrics[key] = report.metrics.get(key, 0) + value
            else:
                dpos_result = dpos.run(graph)
                self.obs.provenance.record_dpos(graph.name, dpos_result)
                strategy, rewritten = dpos_result.strategy, graph
            estimate = strategy.estimated_time
            if best is None or (
                estimate is not None
                and (best[0] is None or estimate < best[0])
            ):
                best = (estimate, strategy, rewritten)
        assert best is not None
        strategy, rewritten = best[1], best[2]
        if self.obs.provenance.enabled:
            # Calibration pillar: freeze what the cost models predicted
            # for this strategy *now*, at decision time, so the residuals
            # measure the models the search actually planned with.
            from ..obs.calibration import capture_predictions

            self.context.predictions[id(strategy)] = capture_predictions(
                rewritten,
                strategy.placement,
                self.computation,
                self.communication,
                pair_class=self.topology.pair_class,
            )
        return strategy, rewritten

    # ------------------------------------------------------------------
    def run(self) -> CalculationReport:
        """Execute the pre-training stage; returns the surviving strategy."""
        with self.obs.events.span(
            "calculator.run",
            graph=self.input_graph.name,
            max_rounds=self.config.max_rounds,
        ):
            report = self._run_rounds()
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("calculator.rounds").inc(len(report.rounds))
            metrics.counter("calculator.activations").inc(
                sum(1 for r in report.rounds if r.activated)
            )
            metrics.counter("calculator.rollbacks").inc(
                sum(1 for r in report.rounds if r.rolled_back)
            )
            metrics.timer("calculator.algorithm").add(report.algorithm_seconds)
            metrics.timer("calculator.simulated_profiling").add(
                report.simulated_profiling_seconds
            )
            metrics.gauge("calculator.measured_time").set(report.measured_time)
            # search.* totals already reach the registry via OSDPOS.run();
            # costmodel.stability.* via the StabilityMonitor's own hook.
            if report.calibration is not None:
                for key, value in report.calibration.metrics().items():
                    metrics.gauge(key).set(value)
        return report

    def _run_rounds(self) -> CalculationReport:
        config = self.config
        events = self.obs.events
        state = _RunState(
            alternatives=list(self.alternative_inputs),
            stability=self.context.stability_monitor(),
        )
        current_strategy = self.initial_strategy
        current_graph = self.input_graph
        report = CalculationReport(strategy=current_strategy, graph=current_graph)

        previous: Optional[tuple] = None  # (strategy, graph, measured)
        best: Optional[tuple] = None      # best-measured so far
        current_measured: Optional[float] = None

        for round_index in range(config.max_rounds):
            with events.span(
                "round",
                round=round_index,
                strategy=current_strategy.label,
                best=best[2] if best else None,
            ) as round_span:
                record = RoundRecord(
                    round_index=round_index,
                    strategy_label=current_strategy.label,
                    estimated_time=current_strategy.estimated_time,
                )
                with events.span(
                    "calculator.profile",
                    round=round_index,
                    graph=current_graph.name,
                    steps=config.profiling_steps,
                ):
                    try:
                        result = self._profile(
                            current_graph, current_strategy,
                            config.profiling_steps,
                        )
                        current_measured = result.mean_iteration_time
                        report.simulated_profiling_seconds += sum(
                            t.makespan for t in result.traces
                        )
                    except SimulationOOMError:
                        current_measured = None
                record.measured_time = current_measured

                if round_index == 0 and current_measured is not None:
                    report.initial_measured_time = current_measured
                if current_measured is not None and (
                    best is None or current_measured < best[2]
                ):
                    best = (current_strategy, current_graph, current_measured)

                # Rollback: the paper reverts when the activated
                # strategy's measured per-iteration time exceeds the
                # previous one's.
                if (
                    config.enable_rollback
                    and previous is not None
                    and previous[2] is not None
                    and (
                        current_measured is None
                        or current_measured > previous[2]
                    )
                ):
                    current_strategy, current_graph, current_measured = previous
                    previous = None
                    record.rolled_back = True
                    events.emit(
                        "round.rollback",
                        round=round_index,
                        to=current_strategy.label,
                    )
                    round_span.set(
                        verdict="rolled-back", best=best[2] if best else None
                    )
                    report.simulated_restart_seconds += (
                        config.restart_overhead_seconds
                    )
                    report.rounds.append(record)
                    continue

                best = self._profile_alternatives(report, best, state)

                record.stable = state.stability.update(
                    self.computation.snapshot()
                )
                if record.stable and round_index + 1 >= config.min_rounds:
                    report.rounds.append(record)
                    round_span.set(
                        verdict="stable", best=best[2] if best else None
                    )
                    break

                started = _time.perf_counter()
                with events.span("calculator.search", round=round_index):
                    candidate, candidate_graph = self._compute_strategy(
                        report, state
                    )
                report.algorithm_seconds += _time.perf_counter() - started

                should_activate = (
                    candidate.estimated_time is not None
                    and (
                        current_strategy.estimated_time is None
                        or candidate.estimated_time
                        < current_strategy.estimated_time
                    )
                )
                if should_activate:
                    previous = (current_strategy, current_graph, current_measured)
                    current_strategy = candidate
                    current_graph = candidate_graph
                    report.simulated_restart_seconds += (
                        config.restart_overhead_seconds
                    )
                    record.activated = True
                    events.emit(
                        "round.activate",
                        round=round_index,
                        strategy=candidate.label,
                        estimate=candidate.estimated_time,
                    )
                report.rounds.append(record)
                round_span.set(
                    verdict="activated" if record.activated else "kept",
                    best=best[2] if best else None,
                )

        # Final measurement; if a strategy was activated but never
        # validated (the loop budget ran out first), the rollback rule
        # still applies — FastT keeps whatever measured fastest.
        with events.span("calculator.measure", graph=current_graph.name):
            try:
                final = self._profile(
                    current_graph, current_strategy, config.measure_steps
                )
                final_measured = final.mean_iteration_time
                report.simulated_profiling_seconds += sum(
                    t.makespan for t in final.traces
                )
            except SimulationOOMError:
                final_measured = None
        if final_measured is not None and (
            best is None or final_measured < best[2]
        ):
            best = (current_strategy, current_graph, final_measured)
        if best is None:
            raise SimulationOOMError(
                self.topology.device_names[0], 0, 0
            )
        report.strategy, report.graph, report.measured_time = best
        if report.initial_measured_time == float("inf"):
            report.initial_measured_time = report.measured_time
        if self.obs.provenance.enabled:
            report.calibration = self._calibrate(
                report.strategy, report.graph, state.stability
            )
        return report

    def _calibrate(
        self, strategy: Strategy, graph: Graph, stability: StabilityMonitor
    ) -> Optional["CalibrationReport"]:
        """Join decision-time predictions against one realized step.

        Runs one extra simulation step of the surviving strategy with
        cost-model updates disabled, so calibration never perturbs the
        search or the reported timings.
        """
        from ..obs.calibration import calibrate, capture_predictions

        predictions = self.context.predictions.get(id(strategy))
        if predictions is None:
            # The surviving strategy never went through the search (the
            # initial/default strategy won): capture post-hoc against the
            # final models.
            predictions = capture_predictions(
                graph,
                strategy.placement,
                self.computation,
                self.communication,
                pair_class=self.topology.pair_class,
            )
        profiler = self._profiler_for(graph)
        try:
            if strategy.order and self.config.enable_order_enforcement:
                order = complete_order(graph, strategy.order)
                result = profiler.profile(
                    strategy.placement, order=order, policy="priority",
                    num_steps=1, update_models=False,
                )
            else:
                result = profiler.profile(
                    strategy.placement, num_steps=1, update_models=False
                )
        except SimulationOOMError:
            return None
        return calibrate(
            predictions,
            result.traces[-1],
            drift=stability.last_drift,
            drift_tolerance=stability.tolerance,
        )
