"""Integration tests for the strategy calculator workflow and FastTSession."""

import pytest

from repro.cluster import single_server
from repro.core import (
    FastTConfig,
    FastTSession,
    SearchOptions,
    Strategy,
    StrategyCalculator,
    fits_on_single_device,
)
from repro.graph import (
    build_data_parallel_training_graph,
    build_single_device_training_graph,
    data_parallel_placement,
)
from repro.hardware import PerfModel

from tests.util import build_mlp


def big_mlp(graph, prefix, batch):
    """An MLP too large for one 16 GB GPU (forces the model-parallel path)."""
    return build_mlp(graph, prefix, batch, hidden=32768, layers=3)


@pytest.fixture
def quick_config():
    return FastTConfig(
        profiling_steps=1, max_rounds=3, min_rounds=1, measure_steps=2,
        search=SearchOptions(max_candidate_ops=2),
    )


class TestFitsOnSingleDevice:
    def test_small_model_fits(self, topo2):
        graph = build_single_device_training_graph(build_mlp, 16)
        assert fits_on_single_device(graph, topo2)

    def test_large_model_does_not_fit(self, topo2):
        graph = build_single_device_training_graph(big_mlp, 4096)
        assert not fits_on_single_device(graph, topo2)


class TestInputGraphSelection:
    def test_small_model_gets_dp_input(self, topo4):
        session = FastTSession(build_mlp, topo4, 64)
        assert session.initial_strategy.label == "data-parallel"
        assert any(op.name.startswith("replica_3/") for op in session.input_graph.ops)

    def test_large_model_gets_model_parallel_input(self, topo2):
        session = FastTSession(big_mlp, topo2, 4096)
        assert session.initial_strategy.label == "model-parallel"
        assert len(set(session.initial_strategy.placement.values())) == 2

    def test_single_gpu_trivial(self):
        topo = single_server(1)
        session = FastTSession(build_mlp, topo, 32)
        assert session.initial_strategy.label == "single-gpu"
        assert set(session.initial_strategy.placement.values()) == {
            topo.device_names[0]
        }


class TestCalculatorWorkflow:
    def _calculator(self, topo, config):
        graph, _ = build_data_parallel_training_graph(build_mlp, 2, 64)
        strategy = Strategy(
            placement=data_parallel_placement(graph, topo.device_names),
            label="data-parallel",
        )
        perf = PerfModel(topo, noise_sigma=0.01, seed=2)
        return StrategyCalculator(graph, strategy, topo, perf, config=config)

    def test_report_has_rounds_and_measurement(self, topo2, quick_config):
        report = self._calculator(topo2, quick_config).run()
        assert report.rounds
        assert report.measured_time > 0
        assert report.initial_measured_time > 0
        assert report.strategy.placement

    def test_final_never_worse_than_initial(self, topo2, quick_config):
        """The rollback rule: FastT keeps whatever measured fastest."""
        report = self._calculator(topo2, quick_config).run()
        assert report.measured_time <= report.initial_measured_time * 1.10

    def test_cost_models_populated(self, topo2, quick_config):
        calculator = self._calculator(topo2, quick_config)
        calculator.run()
        assert calculator.computation.num_entries > 0
        assert calculator.communication.num_pairs > 0

    def test_search_time_accounted(self, topo2, quick_config):
        report = self._calculator(topo2, quick_config).run()
        assert report.algorithm_seconds > 0
        assert report.total_search_seconds >= report.algorithm_seconds

    def test_splitting_disabled_produces_no_splits(self, topo2):
        config = FastTConfig(
            profiling_steps=1, max_rounds=2, min_rounds=1,
            measure_steps=1, search=SearchOptions(enable_splitting=False),
        )
        report = self._calculator(topo2, config).run()
        assert report.strategy.split_list == []


class TestSessionEndToEnd:
    def test_optimize_and_run(self, topo2, quick_config):
        session = FastTSession(
            build_mlp, topo2, 64,
            perf_model=PerfModel(topo2, noise_sigma=0.01, seed=8),
            config=quick_config,
        )
        report = session.optimize()
        assert session.strategy is report.strategy
        traces = session.run(num_steps=2)
        assert len(traces) == 2
        assert all(t.makespan > 0 for t in traces)

    def test_training_speed_consistent(self, topo2, quick_config):
        session = FastTSession(
            build_mlp, topo2, 64,
            perf_model=PerfModel(topo2, noise_sigma=0.01, seed=8),
            config=quick_config,
        )
        assert session.training_speed() == pytest.approx(
            64 / session.iteration_time()
        )

    def test_optimize_cached_until_forced(self, topo2, quick_config):
        session = FastTSession(
            build_mlp, topo2, 64,
            perf_model=PerfModel(topo2, noise_sigma=0.01, seed=8),
            config=quick_config,
        )
        first = session.optimize()
        assert session.optimize() is first
        assert session.optimize(force=True) is not first

    def test_large_model_session_spreads_memory(self, topo2, quick_config):
        """Table 3's mechanism: a model that OOMs on one GPU trains on two."""
        session = FastTSession(
            big_mlp, topo2, 4096,
            perf_model=PerfModel(topo2, noise_sigma=0.01, seed=8),
            config=quick_config,
        )
        report = session.optimize()
        assert report.measured_time > 0
        assert len(set(report.strategy.placement.values())) == 2


class TestSimulatorReuse:
    @pytest.mark.parametrize("model_name", ["lenet", "alexnet"])
    def test_one_plan_per_graph_version(self, monkeypatch, model_name):
        """Every profile of one graph revision shares one execution plan."""
        from repro.cluster import cluster_for
        from repro.models import get_model
        from repro.sim import runner

        spec = get_model(model_name, preset="bench")
        topo = cluster_for(4)
        session = FastTSession(
            spec.builder, topo, spec.global_batch,
            perf_model=PerfModel(topo, noise_sigma=0.02, seed=1),
            config=FastTConfig(max_rounds=3, min_rounds=2),
        )
        built, steps = [], []
        plan_init = runner._GraphPlan.__init__
        run_step = runner.ExecutionSimulator.run_step

        def counting_plan_init(plan, graph, perf):
            built.append((graph, graph.version))  # keeps each graph alive
            plan_init(plan, graph, perf)

        def counting_run_step(sim, *args, **kwargs):
            steps.append(sim)
            return run_step(sim, *args, **kwargs)

        monkeypatch.setattr(runner._GraphPlan, "__init__", counting_plan_init)
        monkeypatch.setattr(
            runner.ExecutionSimulator, "run_step", counting_run_step
        )
        session.optimize()
        keys = [(id(graph), version) for graph, version in built]
        assert len(keys) == len(set(keys))
        assert len(steps) > len(built)  # some plans served several steps

    def test_no_split_search_reuses_the_input_plan(self, monkeypatch):
        """A coarse search that commits no split returns its input graph,
        so the final measurement reuses the profiling simulator: one
        execution plan and one full ``Graph.validate`` per optimize."""
        from repro.cluster import cluster_for
        from repro.graph import Graph
        from repro.models.layers import LayerHelper
        from repro.sim import runner

        def mlp(graph, prefix, batch):
            net = LayerHelper(graph, prefix)
            x = net.placeholder("x", (batch, 64))
            for i in range(60):
                x = net.dense(x, f"fc{i}", 64, relu=True)
            return net.softmax_loss(x)

        topo = cluster_for(4)
        session = FastTSession(
            mlp, topo, 2,
            perf_model=PerfModel(topo, noise_sigma=0.02, seed=1),
            config=FastTConfig(
                profiling_steps=1, max_rounds=1, min_rounds=1, measure_steps=1,
                search=SearchOptions(
                    coarsen_threshold=500, max_candidate_ops=2, split_counts=[2]
                ),
            ),
        )
        plans, full_checks = [], []
        plan_init = runner._GraphPlan.__init__
        validate = Graph.validate

        def counting_plan_init(plan, graph, perf):
            plans.append(graph)
            plan_init(plan, graph, perf)

        def counting_validate(graph):
            if graph._validated_version != graph.version:
                full_checks.append(graph)
            validate(graph)

        monkeypatch.setattr(runner._GraphPlan, "__init__", counting_plan_init)
        monkeypatch.setattr(Graph, "validate", counting_validate)
        report = session.optimize()
        assert session.input_graph.num_ops >= 500  # the coarse path ran
        assert report.metrics["search.splits_committed"] == 0
        assert report.graph is session.input_graph
        assert plans == [session.input_graph]
        assert full_checks == [session.input_graph]
