"""Failure-injection tests for the FastT workflow.

The calculator must survive misleading cost models, OOM-ing candidate
strategies, and noisy measurements — always ending on the best *measured*
strategy (the paper's rollback guarantee).
"""

import pytest

from repro.core import (
    FastTConfig,
    SearchContext,
    SearchOptions,
    Strategy,
    StrategyCalculator,
)
from repro.core.calculator import CalculationReport
from repro.graph import build_data_parallel_training_graph, data_parallel_placement
from repro.hardware import PerfModel

from tests.util import build_mlp


def _setup(topo, config, seed=2, noise=0.01):
    graph, _ = build_data_parallel_training_graph(build_mlp, 2, 64)
    strategy = Strategy(
        placement=data_parallel_placement(graph, topo.device_names),
        label="data-parallel",
    )
    perf = PerfModel(topo, noise_sigma=noise, seed=seed)
    return StrategyCalculator(
        graph, strategy,
        SearchContext.create(topo, perf_model=perf, config=config),
    )


class TestRollbackGuarantee:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_never_ends_worse_than_dp_across_seeds(self, topo2, seed):
        config = FastTConfig(
            profiling_steps=1, max_rounds=3, min_rounds=1,
            measure_steps=2, search=SearchOptions(max_candidate_ops=2),
        )
        calculator = _setup(topo2, config, seed=seed, noise=0.03)
        report = calculator.run()
        assert report.measured_time <= report.initial_measured_time * 1.10

    def test_sabotaged_estimates_still_safe(self, topo2):
        """A cost model that wildly underestimates makes DPOS activate bad
        strategies; the rollback rule must still recover."""
        config = FastTConfig(
            profiling_steps=1, max_rounds=4, min_rounds=1,
            measure_steps=2, search=SearchOptions(max_candidate_ops=1),
        )
        calculator = _setup(topo2, config)

        original_time = calculator.computation.time

        def sabotage(op, device):
            value = original_time(op, device)
            # Claim every cross-op is nearly free on device 1.
            if device.endswith("gpu:1"):
                return value * 0.01
            return value

        calculator.computation.time = sabotage  # type: ignore[assignment]
        report = calculator.run()
        assert report.measured_time <= report.initial_measured_time * 1.15


class TestOOMHandling:
    def test_oom_candidate_graph_is_rolled_back(self, topo2):
        """If an activated strategy cannot even execute (OOM), the next
        round rolls back to the previous strategy."""
        config = FastTConfig(
            profiling_steps=1, max_rounds=3, min_rounds=1,
            measure_steps=1, search=SearchOptions(max_candidate_ops=1),
        )
        calculator = _setup(topo2, config)
        report = calculator.run()
        # Whatever happened internally, the surviving strategy executes.
        assert report.measured_time < float("inf")

    def test_infeasible_alternative_dropped(self, topo2):
        def huge(graph, prefix, batch):
            return build_mlp(graph, prefix, batch, hidden=49152, layers=3)

        from repro.graph import build_single_device_training_graph

        config = FastTConfig(
            profiling_steps=1, max_rounds=2, min_rounds=1,
            measure_steps=1, search=SearchOptions(max_candidate_ops=1),
        )
        calculator = _setup(topo2, config)
        big_graph = build_single_device_training_graph(huge, 4096, name="huge")
        bad_strategy = Strategy(
            placement={op.name: topo2.device_names[0] for op in big_graph.ops},
            label="doomed",
        )
        calculator.alternative_inputs = [(big_graph, bad_strategy)]
        report = calculator.run()
        # The infeasible alternative never wins, and — reentrant core —
        # run() no longer mutates the calculator's inputs while dropping
        # it from its own run-local candidate list.
        assert calculator.alternative_inputs == [(big_graph, bad_strategy)]
        assert report.strategy.label != "doomed"
        assert report.measured_time < float("inf")


class TestReportAccounting:
    def test_round_records_describe_workflow(self, topo2):
        config = FastTConfig(
            profiling_steps=1, max_rounds=3, min_rounds=1,
            measure_steps=1, search=SearchOptions(max_candidate_ops=1),
        )
        report = _setup(topo2, config).run()
        assert isinstance(report, CalculationReport)
        assert report.rounds[0].strategy_label == "data-parallel"
        assert any(r.activated or r.stable for r in report.rounds)

    def test_restart_overhead_counted_per_activation(self, topo2):
        config = FastTConfig(
            profiling_steps=1, max_rounds=3, min_rounds=1,
            measure_steps=1, search=SearchOptions(max_candidate_ops=1),
            restart_overhead_seconds=7.0,
        )
        report = _setup(topo2, config).run()
        events = sum(1 for r in report.rounds if r.activated or r.rolled_back)
        assert report.simulated_restart_seconds == pytest.approx(7.0 * events)
