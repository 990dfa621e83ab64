"""Tests for OS-DPOS (Alg. 2): critical-path operation splitting."""

import pytest

from repro.core import DPOS, OSDPOS, SearchOptions, default_split_counts
from repro.costmodel import (
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import Graph, build_data_parallel_training_graph
from repro.hardware import PerfModel

from tests.util import build_mlp


def heavy_matmul_graph(m=2048, k=2048, n=2048):
    """One dominant matmul in a chain — the canonical split candidate."""
    g = Graph("heavy")
    a = g.create_op("Placeholder", "a", attrs={"shape": (m, k)}).outputs[0]
    b = g.create_op("Variable", "b", attrs={"shape": (k, n)}).outputs[0]
    mm = g.create_op("MatMul", "mm", [a, b]).outputs[0]
    g.create_op("Relu", "relu", [mm])
    return g


def lstm_graph(batch=16, hidden=64, steps=4):
    """A chain of LSTM cells: nothing splittable."""
    g = Graph("lstm")
    w = g.create_op(
        "Variable", "w", attrs={"shape": (2 * hidden, 4 * hidden)}
    ).outputs[0]
    b = g.create_op("Variable", "b", attrs={"shape": (4 * hidden,)}).outputs[0]
    h = g.create_op("Const", "h0", attrs={"shape": (batch, hidden)}).outputs[0]
    c = g.create_op("Const", "c0", attrs={"shape": (batch, hidden)}).outputs[0]
    for t in range(steps):
        x = g.create_op(
            "Placeholder", f"x{t}", attrs={"shape": (batch, hidden)}
        ).outputs[0]
        cell = g.create_op("LSTMCell", f"cell{t}", [x, h, c, w, b])
        h, c = cell.outputs
    return g


def _oracle(topo):
    perf = PerfModel(topo)
    return OracleComputationModel(perf), OracleCommunicationModel(perf)


class TestDefaultSplitCounts:
    def test_two_devices(self):
        assert default_split_counts(2) == [2]

    def test_eight_devices(self):
        assert default_split_counts(8) == [2, 4, 8]

    def test_single_device(self):
        assert default_split_counts(1) == []

    def test_odd_count_included(self):
        assert default_split_counts(6) == [2, 4, 6]


class TestSearchOptionsValidation:
    @pytest.mark.parametrize("options, error", [
        ({"split_counts": "2"}, TypeError),
        ({"split_counts": 2}, TypeError),
        ({"split_counts": [2.5]}, TypeError),
        ({"split_counts": [True]}, TypeError),
        ({"split_counts": [0]}, ValueError),
        ({"split_counts": [1]}, ValueError),
        ({"split_counts": [2, -2]}, ValueError),
        ({"max_candidate_ops": -1}, ValueError),
        ({"max_candidate_ops": 1.5}, TypeError),
        ({"max_candidate_ops": False}, TypeError),
    ])
    def test_malformed_values_rejected(self, options, error):
        with pytest.raises(error):
            SearchOptions(**options)

    def test_edge_values_accepted(self):
        SearchOptions(split_counts=[], max_candidate_ops=0)
        SearchOptions(split_counts=(2, 3), max_candidate_ops=None)


class TestSplitSearch:
    def test_dominant_matmul_gets_split(self, topo4):
        g = heavy_matmul_graph()
        comp, comm = _oracle(topo4)
        result = OSDPOS(DPOS(topo4, comp, comm)).run(g)
        assert result.split_list, "the dominant matmul should be split"
        assert result.split_list[0].op_name == "mm"
        assert result.candidates_evaluated > 0

    def test_split_improves_finish_time(self, topo4):
        g = heavy_matmul_graph()
        comp, comm = _oracle(topo4)
        dpos = DPOS(topo4, comp, comm)
        baseline = dpos.run(g.copy()).finish_time
        result = OSDPOS(dpos).run(g)
        assert result.finish_time < baseline

    def test_input_graph_not_mutated(self, topo4):
        g = heavy_matmul_graph()
        names_before = {op.name for op in g.ops}
        comp, comm = _oracle(topo4)
        OSDPOS(DPOS(topo4, comp, comm)).run(g)
        assert {op.name for op in g.ops} == names_before

    def test_strategy_covers_rewritten_graph(self, topo4):
        g = heavy_matmul_graph()
        comp, comm = _oracle(topo4)
        result = OSDPOS(DPOS(topo4, comp, comm)).run(g)
        result.strategy.validate_against(result.graph)

    def test_lstm_graph_never_split(self, topo4):
        g = lstm_graph()
        comp, comm = _oracle(topo4)
        result = OSDPOS(DPOS(topo4, comp, comm)).run(g)
        assert result.split_list == []
        assert result.strategy.label == "dpos"

    def test_no_split_counts_degenerates_to_dpos(self, topo4):
        g = heavy_matmul_graph()
        comp, comm = _oracle(topo4)
        dpos = DPOS(topo4, comp, comm)
        options = SearchOptions(max_candidate_ops=None, split_counts=[])
        result = OSDPOS(dpos, options=options).run(g)
        assert result.split_list == []
        assert result.finish_time == pytest.approx(
            dpos.run(g.copy()).finish_time
        )

    def test_max_candidate_ops_limits_search(self, topo4):
        g = heavy_matmul_graph()
        comp, comm = _oracle(topo4)
        limited = OSDPOS(
            DPOS(topo4, comp, comm), options=SearchOptions(max_candidate_ops=0)
        ).run(g)
        assert limited.split_list == []

    def test_materialize_reproduces_rewritten_graph(self, topo4):
        g = heavy_matmul_graph()
        comp, comm = _oracle(topo4)
        result = OSDPOS(DPOS(topo4, comp, comm)).run(g)
        rebuilt = result.strategy.materialize(g)
        assert {op.name for op in rebuilt.ops} == {
            op.name for op in result.graph.ops
        }


class TestOnTrainingGraphs:
    def test_runs_on_dp_graph_and_is_executable(self, topo2):
        graph, _ = build_data_parallel_training_graph(build_mlp, 2, 32)
        perf = PerfModel(topo2)
        comp = OracleComputationModel(perf)
        comm = OracleCommunicationModel(perf)
        result = OSDPOS(
            DPOS(topo2, comp, comm), options=SearchOptions(max_candidate_ops=3)
        ).run(graph)
        from repro.sim import ExecutionSimulator

        trace = ExecutionSimulator(result.graph, topo2, perf).run_step(
            result.strategy.placement,
            order=result.strategy.order,
        )
        assert trace.makespan > 0
        assert len(trace.op_records) == result.graph.num_ops
