"""Tests for the numpy reference executor against direct numpy math."""

import numpy as np
import pytest

from repro.graph import Graph, GraphError
from tests.graph.numeric import UnsupportedOpError, execute


@pytest.fixture
def g():
    return Graph("numeric")


def _ph(g, name, shape, dtype="float32"):
    return g.create_op(
        "Placeholder", name, attrs={"shape": shape, "dtype": dtype}
    ).outputs[0]


RNG = np.random.default_rng(42)


class TestElementwise:
    def test_relu(self, g):
        x = _ph(g, "x", (3, 3))
        g.create_op("Relu", "y", [x])
        data = RNG.normal(size=(3, 3)).astype(np.float32)
        out = execute(g, {"x": data}, fetch=["y:0"])["y:0"]
        np.testing.assert_array_equal(out, np.maximum(data, 0))

    def test_tanh_sigmoid(self, g):
        x = _ph(g, "x", (4,))
        g.create_op("Tanh", "t", [x])
        g.create_op("Sigmoid", "s", [x])
        data = np.linspace(-2, 2, 4).astype(np.float32)
        res = execute(g, {"x": data}, fetch=["t:0", "s:0"])
        np.testing.assert_allclose(res["t:0"], np.tanh(data), rtol=1e-6)
        np.testing.assert_allclose(res["s:0"], 1 / (1 + np.exp(-data)), rtol=1e-6)

    def test_add_mul_addn(self, g):
        a, b = _ph(g, "a", (2, 2)), _ph(g, "b", (2, 2))
        g.create_op("Add", "sum", [a, b])
        g.create_op("Mul", "prod", [a, b])
        g.create_op("AddN", "acc", [a, b, b])
        av = np.ones((2, 2), np.float32)
        bv = np.full((2, 2), 3.0, np.float32)
        res = execute(g, {"a": av, "b": bv}, fetch=["sum:0", "prod:0", "acc:0"])
        np.testing.assert_array_equal(res["sum:0"], av + bv)
        np.testing.assert_array_equal(res["prod:0"], av * bv)
        np.testing.assert_array_equal(res["acc:0"], av + 2 * bv)


class TestShapeOps:
    def test_reshape_transpose(self, g):
        x = _ph(g, "x", (2, 6))
        g.create_op("Reshape", "r", [x], attrs={"shape": (3, 4)})
        g.create_op("Transpose", "t", [x], attrs={"perm": (1, 0)})
        data = np.arange(12, dtype=np.float32).reshape(2, 6)
        res = execute(g, {"x": data}, fetch=["r:0", "t:0"])
        np.testing.assert_array_equal(res["r:0"], data.reshape(3, 4))
        np.testing.assert_array_equal(res["t:0"], data.T)

    def test_concat_split_roundtrip(self, g):
        x = _ph(g, "x", (9, 2))
        split = g.create_op("SplitN", "s", [x], attrs={"axis": 0, "num_splits": 3})
        g.create_op("Concat", "c", list(split.outputs), attrs={"axis": 0})
        data = RNG.normal(size=(9, 2)).astype(np.float32)
        out = execute(g, {"x": data}, fetch=["c:0"])["c:0"]
        np.testing.assert_array_equal(out, data)

    def test_reduce_sum_mean(self, g):
        x = _ph(g, "x", (3, 5))
        g.create_op("ReduceSum", "rs", [x], attrs={"axis": 0})
        g.create_op("ReduceMean", "rm", [x], attrs={"axis": 1})
        data = RNG.normal(size=(3, 5)).astype(np.float32)
        res = execute(g, {"x": data}, fetch=["rs:0", "rm:0"])
        np.testing.assert_allclose(res["rs:0"], data.sum(axis=0), rtol=1e-5)
        np.testing.assert_allclose(res["rm:0"], data.mean(axis=1), rtol=1e-5)


class TestLinearAlgebra:
    def test_matmul_plain(self, g):
        a, b = _ph(g, "a", (3, 4)), _ph(g, "b", (4, 5))
        g.create_op("MatMul", "m", [a, b])
        av = RNG.normal(size=(3, 4)).astype(np.float32)
        bv = RNG.normal(size=(4, 5)).astype(np.float32)
        out = execute(g, {"a": av, "b": bv}, fetch=["m:0"])["m:0"]
        np.testing.assert_allclose(out, av @ bv, rtol=1e-5)

    def test_matmul_transposed(self, g):
        a, b = _ph(g, "a", (4, 3)), _ph(g, "b", (5, 4))
        g.create_op(
            "MatMul", "m", [a, b],
            attrs={"transpose_a": True, "transpose_b": True},
        )
        av = RNG.normal(size=(4, 3)).astype(np.float32)
        bv = RNG.normal(size=(5, 4)).astype(np.float32)
        out = execute(g, {"a": av, "b": bv}, fetch=["m:0"])["m:0"]
        np.testing.assert_allclose(out, av.T @ bv.T, rtol=1e-5)

    def test_batched_matmul(self, g):
        a, b = _ph(g, "a", (2, 3, 4)), _ph(g, "b", (2, 4, 5))
        g.create_op("MatMul", "m", [a, b])
        av = RNG.normal(size=(2, 3, 4)).astype(np.float32)
        bv = RNG.normal(size=(2, 4, 5)).astype(np.float32)
        out = execute(g, {"a": av, "b": bv}, fetch=["m:0"])["m:0"]
        np.testing.assert_allclose(out, av @ bv, rtol=1e-5)

    def test_biasadd(self, g):
        x, b = _ph(g, "x", (2, 3)), _ph(g, "b", (3,))
        g.create_op("BiasAdd", "y", [x, b])
        xv = RNG.normal(size=(2, 3)).astype(np.float32)
        bv = RNG.normal(size=(3,)).astype(np.float32)
        out = execute(g, {"x": xv, "b": bv}, fetch=["y:0"])["y:0"]
        np.testing.assert_allclose(out, xv + bv, rtol=1e-6)


class TestConvAndPool:
    def test_conv2d_valid_against_manual(self, g):
        x = _ph(g, "x", (1, 4, 4, 1))
        w = _ph(g, "w", (2, 2, 1, 1))
        g.create_op("Conv2D", "c", [x, w], attrs={"stride": 1, "padding": "VALID"})
        xv = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        wv = np.ones((2, 2, 1, 1), np.float32)
        out = execute(g, {"x": xv, "w": wv}, fetch=["c:0"])["c:0"]
        manual = np.zeros((1, 3, 3, 1), np.float32)
        for i in range(3):
            for j in range(3):
                manual[0, i, j, 0] = xv[0, i : i + 2, j : j + 2, 0].sum()
        np.testing.assert_allclose(out, manual)

    def test_maxpool(self, g):
        x = _ph(g, "x", (1, 4, 4, 1))
        g.create_op("MaxPool", "p", [x], attrs={"ksize": 2})
        xv = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = execute(g, {"x": xv}, fetch=["p:0"])["p:0"]
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_avgpool(self, g):
        x = _ph(g, "x", (1, 2, 2, 1))
        g.create_op("AvgPool", "p", [x], attrs={"ksize": 2})
        xv = np.array([[1, 2], [3, 4]], np.float32).reshape(1, 2, 2, 1)
        out = execute(g, {"x": xv}, fetch=["p:0"])["p:0"]
        assert out[0, 0, 0, 0] == pytest.approx(2.5)


class TestSoftmaxAndLoss:
    def test_softmax_rows_sum_to_one(self, g):
        x = _ph(g, "x", (4, 7))
        g.create_op("Softmax", "s", [x])
        data = RNG.normal(size=(4, 7)).astype(np.float32)
        out = execute(g, {"x": data}, fetch=["s:0"])["s:0"]
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), rtol=1e-5)

    def test_cross_entropy_perfect_prediction_near_zero(self, g):
        logits = _ph(g, "logits", (2, 3))
        labels = _ph(g, "labels", (2,), dtype="int32")
        g.create_op("CrossEntropyLoss", "loss", [logits, labels])
        strong = np.array([[50, 0, 0], [0, 50, 0]], np.float32)
        out = execute(
            g, {"logits": strong, "labels": np.array([0, 1])}, fetch=["loss:0"]
        )["loss:0"]
        assert out[0] < 1e-4

    def test_embedding_lookup(self, g):
        table = _ph(g, "table", (5, 2))
        ids = _ph(g, "ids", (2, 2), dtype="int32")
        g.create_op("Embedding", "e", [table, ids])
        tv = np.arange(10, dtype=np.float32).reshape(5, 2)
        iv = np.array([[0, 4], [2, 2]], np.int32)
        out = execute(g, {"table": tv, "ids": iv}, fetch=["e:0"])["e:0"]
        np.testing.assert_array_equal(out, tv[iv])


class TestExecutorContract:
    def test_missing_feed_defaults_to_zeros(self, g):
        x = _ph(g, "x", (2, 2))
        g.create_op("Relu", "y", [x])
        out = execute(g, {}, fetch=["y:0"])["y:0"]
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_wrong_feed_shape_rejected(self, g):
        _ph(g, "x", (2, 2))
        with pytest.raises(GraphError, match="feed"):
            execute(g, {"x": np.zeros((3, 3))})

    def test_unsupported_op(self, g):
        x = _ph(g, "x", (2, 4, 4, 1))
        gamma = _ph(g, "gm", (1,))
        beta = _ph(g, "bt", (1,))
        g.create_op("BatchNorm", "bn", [x, gamma, beta])
        with pytest.raises(UnsupportedOpError):
            execute(g, {})
