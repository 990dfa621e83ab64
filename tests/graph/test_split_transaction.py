"""SplitTransaction apply/undo: the graph must round-trip exactly.

The incremental OS-DPOS search relies on rollback restoring the working
graph *byte-for-byte* — op iteration order, consumer-list order, tensor
tables, and object identity — because the strategies it returns are
frozen byte for byte in ``tests/core/golden/``.
"""

import pytest

from repro.graph import (
    Graph,
    GraphError,
    SplitError,
    SplitTransaction,
    split_operation,
)


def _mlp_graph():
    g = Graph("txn")
    x = g.create_op("Placeholder", "x", attrs={"shape": (32, 64)})
    w1 = g.create_op("Variable", "w1", attrs={"shape": (64, 128)})
    h = g.create_op("MatMul", "h", [x.outputs[0], w1.outputs[0]])
    w2 = g.create_op("Variable", "w2", attrs={"shape": (128, 16)})
    g.create_op("MatMul", "y", [h.outputs[0], w2.outputs[0]])
    g.create_op("Relu", "r", [h.outputs[0]])
    return g


def _snapshot(g):
    return {
        "ops": [
            (
                op.name,
                op.op_type,
                [t.name for t in op.inputs],
                [t.name for t in op.outputs],
                dict(op.attrs),
                op.colocation_group,
            )
            for op in g.ops
        ],
        "consumers": {
            t.name: [(c.name, i) for c, i in g.consumers(t)]
            for op in g.ops
            for t in op.outputs
        },
    }


class TestApplyUndoRoundTrip:
    def test_undo_restores_graph_exactly(self):
        g = _mlp_graph()
        before = _snapshot(g)
        identities = {op.name: op for op in g.ops}

        txn = SplitTransaction(g, g.get_op("h"), "row", 2)
        sub_ops = txn.apply()
        assert len(sub_ops) == 2
        assert "h" not in g
        assert "h/part0" in g and "h/part1" in g
        assert g.in_transaction

        touched = txn.undo()
        assert not g.in_transaction
        assert _snapshot(g) == before
        # Identity, not just structural equality: cached DPOS state maps
        # op names to the very same Operation objects.
        for name, op in identities.items():
            assert g.get_op(name) is op
        # The split point, its producers, and its consumers were touched.
        assert "h" in touched
        assert {"x", "w1", "y", "r"} <= touched
        g.validate()

    def test_undo_round_trips_repeatedly_with_identical_names(self):
        g = _mlp_graph()
        first = None
        for _ in range(3):
            txn = SplitTransaction(g, g.get_op("h"), "row", 2)
            names = sorted(op.name for op in txn.apply())
            if first is None:
                first = names
            assert names == first
            txn.undo()
        # Re-applying after undos must match a fresh graph's names too.
        fresh = _mlp_graph()
        fresh_names = sorted(
            op.name for op in split_operation(fresh, fresh.get_op("h"), "row", 2)
        )
        assert first == fresh_names

    def test_commit_keeps_the_split(self):
        g = _mlp_graph()
        txn = SplitTransaction(g, g.get_op("h"), "row", 4)
        txn.apply()
        touched = txn.commit()
        assert not g.in_transaction
        assert "h" not in g
        assert all(f"h/part{i}" in g for i in range(4))
        assert "h" in touched
        g.validate()

    def test_failed_apply_rolls_back(self):
        g = _mlp_graph()
        before = _snapshot(g)
        txn = SplitTransaction(g, g.get_op("h"), "row", 64)  # batch is 32
        with pytest.raises(SplitError):
            txn.apply()
        assert not g.in_transaction
        assert _snapshot(g) == before
        g.validate()

    def test_decision_matches_parameters(self):
        g = _mlp_graph()
        txn = SplitTransaction(g, g.get_op("h"), "row", 2)
        decision = txn.decision
        assert (decision.op_name, decision.dim, decision.num_splits) == (
            "h", "row", 2,
        )

    def test_undo_without_apply_raises(self):
        g = _mlp_graph()
        txn = SplitTransaction(g, g.get_op("h"), "row", 2)
        with pytest.raises(RuntimeError):
            txn.undo()
        with pytest.raises(RuntimeError):
            txn.commit()


class TestTransactionDiscipline:
    def test_no_nested_transactions(self):
        g = _mlp_graph()
        g.begin_transaction()
        with pytest.raises(GraphError):
            g.begin_transaction()
        g.rollback_transaction()

    def test_commit_and_rollback_require_open_transaction(self):
        g = _mlp_graph()
        with pytest.raises(GraphError):
            g.commit_transaction()
        with pytest.raises(GraphError):
            g.rollback_transaction()
        with pytest.raises(GraphError):
            g.transaction_touched()

    def test_mutations_outside_transactions_are_unjournaled(self):
        g = _mlp_graph()
        split_operation(g, g.get_op("h"), "row", 2)
        assert not g.in_transaction
        g.validate()
