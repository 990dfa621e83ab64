"""Tests for the structural backward-pass builder."""

import pytest

from repro.graph import (
    Graph,
    GraphError,
    build_single_device_training_graph,
    build_training_graph,
    gradients,
    prune_dangling,
    trainable_variables,
)

from repro.models import get_model, model_names
from tests.util import build_mlp, build_small_cnn


@pytest.fixture
def mlp_graph():
    g = Graph("mlp")
    loss = build_mlp(g, "", batch=8)
    return g, loss


class TestGradients:
    def test_every_variable_gets_a_gradient(self, mlp_graph):
        g, loss = mlp_graph
        grad_of = gradients(g, loss)
        for var in trainable_variables(g):
            grad = grad_of[var.outputs[0].name]
            assert grad.shape == var.outputs[0].shape

    def test_gradient_shapes_match_forward(self, mlp_graph):
        g, loss = mlp_graph
        grad_of = gradients(g, loss)
        for name, grad in grad_of.items():
            if name == loss.name:
                continue
            assert grad.shape == g.get_tensor(name).shape

    def test_matmul_grads_are_matmuls(self, mlp_graph):
        g, loss = mlp_graph
        gradients(g, loss)
        grad_mms = [
            op for op in g.ops if op.op_type == "MatMul" and "_grad_" in op.name
        ]
        assert grad_mms, "MatMul backward must be expressed as MatMul ops"

    def test_conv_grads_are_conv_backprops(self):
        g = Graph("cnn")
        loss = build_small_cnn(g, "", batch=4)
        gradients(g, loss)
        types = {op.op_type for op in g.ops}
        assert "Conv2DBackpropInput" in types
        assert "Conv2DBackpropFilter" in types
        assert "MaxPoolGrad" in types

    def test_fan_out_accumulates_with_addn(self):
        g = Graph("fanout")
        x = g.create_op("Placeholder", "x", attrs={"shape": (4, 8)}).outputs[0]
        w = g.create_op("Variable", "w", attrs={"shape": (8, 8)}).outputs[0]
        h = g.create_op("MatMul", "fc", [x, w]).outputs[0]
        # w's output is consumed twice more -> 3 gradient contributions.
        h2 = g.create_op("MatMul", "fc2", [h, w]).outputs[0]
        labels = g.create_op(
            "Placeholder", "labels", attrs={"shape": (4,), "dtype": "int32"}
        ).outputs[0]
        loss = g.create_op("CrossEntropyLoss", "loss", [h2, labels]).outputs[0]
        grad_of = gradients(g, loss)
        grad = grad_of[w.name]
        assert grad.producer.op_type == "AddN"

    def test_non_scalar_loss_rejected(self):
        g = Graph("bad")
        x = g.create_op("Placeholder", "x", attrs={"shape": (4, 8)}).outputs[0]
        with pytest.raises(GraphError, match="scalar"):
            gradients(g, x)

    def test_loss_from_other_graph_rejected(self, mlp_graph):
        g, _ = mlp_graph
        other = Graph("other")
        loss2 = other.create_op(
            "Generic", "l", attrs={"output_shapes": [(1,)]}
        ).outputs[0]
        with pytest.raises(GraphError):
            gradients(g, loss2)


class TestBuildTrainingGraph:
    def test_apply_ops_created_and_colocated(self, mlp_graph):
        g, loss = mlp_graph
        build_training_graph(g, loss)
        applies = [op for op in g.ops if op.op_type == "ApplyGradient"]
        variables = trainable_variables(g)
        assert len(applies) == len(variables)
        for apply_op in applies:
            var = apply_op.inputs[0].producer
            assert apply_op.colocation_group == var.colocation_group

    def test_graph_validates_after_training_build(self, mlp_graph):
        g, loss = mlp_graph
        build_training_graph(g, loss)
        g.validate()

    def test_dangling_gradients_pruned(self, mlp_graph):
        g, loss = mlp_graph
        build_training_graph(g, loss)
        allowed_exits = {"ApplyGradient", "CrossEntropyLoss"}
        for op in g.exit_ops():
            assert op.op_type in allowed_exits, f"dangling op {op.name}"

    def test_no_variables_rejected(self):
        g = Graph("novars")
        x = g.create_op("Placeholder", "x", attrs={"shape": (4, 2)}).outputs[0]
        labels = g.create_op(
            "Placeholder", "labels", attrs={"shape": (4,), "dtype": "int32"}
        ).outputs[0]
        loss = g.create_op("CrossEntropyLoss", "loss", [x, labels]).outputs[0]
        with pytest.raises(GraphError, match="no trainable variable"):
            build_training_graph(g, loss)


class TestPruneDangling:
    def test_removes_unconsumed_chains(self):
        g = Graph("p")
        a = g.create_op("Placeholder", "a", attrs={"shape": (2,)})
        keepme = g.create_op("Relu", "keep", [a.outputs[0]])
        dead1 = g.create_op("Relu", "dead1", [a.outputs[0]])
        g.create_op("Relu", "dead2", [dead1.outputs[0]])
        removed = prune_dangling(g, keep={"keep"})
        assert removed == 2
        assert "dead1" not in g and "dead2" not in g
        assert "keep" in g and "a" in g

    def test_keeps_everything_reachable(self):
        g = Graph("p")
        a = g.create_op("Placeholder", "a", attrs={"shape": (2,)})
        b = g.create_op("Relu", "b", [a.outputs[0]])
        assert prune_dangling(g, keep={"b"}) == 0
        assert len(g) == 2


def _reference_prune(graph, keep):
    """The fixpoint scan prune_dangling replaced: rescan every op until
    a pass removes none."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for op in list(graph.ops):
            if op.name in keep:
                continue
            if not graph.successors(op):
                graph.remove_op(op)
                removed += 1
                changed = True
    return removed


@pytest.mark.parametrize("model_name", model_names())
def test_prune_matches_the_fixpoint_scan(model_name, monkeypatch):
    import repro.graph.autodiff as autodiff

    spec = get_model(model_name, preset="bench")
    results = []

    def build(prune):
        def recording(graph, keep):
            results.append((prune(graph, keep), graph))
            return results[-1][0]

        monkeypatch.setattr(autodiff, "prune_dangling", recording)
        build_single_device_training_graph(spec.builder, spec.global_batch)

    build(_reference_prune)
    build(prune_dangling)
    (expected, reference), (removed, graph) = results
    assert removed == expected > 0
    assert [op.name for op in graph.ops] == [op.name for op in reference.ops]
    for op in graph.ops:
        for t in op.outputs:
            assert [(c.name, i) for c, i in graph.consumers(t)] == [
                (c.name, i) for c, i in reference.consumers(t)
            ]
