"""Tests for upward ranks, critical path, and the placement sequence."""

import pytest

from repro.graph import Graph

from tests.core.reference_dpos import compute_ranks, critical_path, rank_order
from tests.util import chain_graph, diamond_graph


def _weights(values):
    return lambda op: values[op.name]


def _comm(value=0.0):
    return lambda src, dst: value


class TestComputeRanks:
    def test_chain_ranks_accumulate(self):
        g = chain_graph(3)
        ranks = compute_ranks(g, _weights({"op0": 1, "op1": 2, "op2": 3}), _comm())
        assert ranks["op2"] == 3
        assert ranks["op1"] == 5
        assert ranks["op0"] == 6

    def test_diamond_takes_max_branch(self):
        g = diamond_graph()
        ranks = compute_ranks(
            g, _weights({"a": 1, "b": 2, "c": 10, "d": 1}), _comm()
        )
        assert ranks["d"] == 1
        assert ranks["b"] == 3
        assert ranks["c"] == 11
        assert ranks["a"] == 12

    def test_comm_cost_included(self):
        g = chain_graph(2)
        ranks = compute_ranks(g, _weights({"op0": 1, "op1": 1}), _comm(5.0))
        assert ranks["op0"] == 7  # 1 + (5 comm + 1)

    def test_parent_rank_at_least_child(self):
        g = diamond_graph()
        ranks = compute_ranks(
            g, _weights({"a": 0, "b": 0, "c": 0, "d": 0}), _comm()
        )
        for op in g.ops:
            for succ in g.successors(op):
                assert ranks[op.name] >= ranks[succ.name]


class TestCriticalPath:
    def test_follows_max_rank_chain(self):
        g = diamond_graph()
        ranks = compute_ranks(
            g, _weights({"a": 1, "b": 2, "c": 10, "d": 1}), _comm()
        )
        path = [op.name for op in critical_path(g, ranks)]
        assert path == ["a", "c", "d"]

    def test_single_op(self):
        g = chain_graph(1)
        ranks = compute_ranks(g, _weights({"op0": 1}), _comm())
        assert [op.name for op in critical_path(g, ranks)] == ["op0"]

    def test_multiple_entries_start_from_max_rank(self):
        g = Graph("multi")
        e1 = g.create_op("Generic", "small", attrs={"output_shapes": [(2,)]})
        e2 = g.create_op("Generic", "large", attrs={"output_shapes": [(2,)]})
        g.create_op(
            "Generic", "sink", [e1.outputs[0], e2.outputs[0]],
            attrs={"output_shapes": [(2,)]},
        )
        ranks = compute_ranks(
            g, _weights({"small": 1, "large": 9, "sink": 1}), _comm()
        )
        path = [op.name for op in critical_path(g, ranks)]
        assert path == ["large", "sink"]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            critical_path(Graph("empty"), {})


class TestRankOrder:
    def test_decreasing_rank(self):
        g = diamond_graph()
        ranks = compute_ranks(
            g, _weights({"a": 1, "b": 2, "c": 10, "d": 1}), _comm()
        )
        order = rank_order(g, ranks)
        assert order[0] == "a"
        assert order.index("c") < order.index("b")

    def test_zero_weight_ties_respect_topology(self):
        """With all-zero costs (the explore regime) parents still precede
        children in the placement sequence."""
        g = diamond_graph()
        ranks = compute_ranks(
            g, _weights({"a": 0, "b": 0, "c": 0, "d": 0}), _comm()
        )
        order = rank_order(g, ranks)
        position = {name: i for i, name in enumerate(order)}
        for op in g.ops:
            for succ in g.successors(op):
                assert position[op.name] < position[succ.name]
