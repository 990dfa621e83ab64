"""Tests for the SplitOperation graph rewrite (Alg. 2's core mechanism)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, SplitDecision, SplitError, apply_split_list, split_operation
from tests.graph.numeric import execute
from repro.graph.rewrite import sub_op_names


def conv_graph(batch=8, channels=6):
    g = Graph("conv")
    x = g.create_op(
        "Placeholder", "x", attrs={"shape": (batch, 10, 10, 3)}
    ).outputs[0]
    w = g.create_op(
        "Variable", "w", attrs={"shape": (3, 3, 3, channels)}
    ).outputs[0]
    conv = g.create_op(
        "Conv2D", "conv", [x, w], attrs={"stride": 1, "padding": "SAME"}
    )
    g.create_op("Relu", "relu", [conv.outputs[0]])
    return g


def matmul_graph(m=8, k=6, n=10):
    g = Graph("mm")
    a = g.create_op("Placeholder", "a", attrs={"shape": (m, k)}).outputs[0]
    b = g.create_op("Variable", "b", attrs={"shape": (k, n)}).outputs[0]
    mm = g.create_op("MatMul", "mm", [a, b])
    g.create_op("Relu", "relu", [mm.outputs[0]])
    return g


class TestSplitStructure:
    def test_batch_split_creates_expected_nodes(self):
        g = conv_graph()
        subs = split_operation(g, g.get_op("conv"), "batch", 2)
        g.validate()
        assert [s.name for s in subs] == sub_op_names("conv", 2)
        assert "conv" not in g
        types = [op.op_type for op in g.ops]
        assert types.count("SplitN") == 1, "only x is sliced; w broadcasts"
        assert types.count("Concat") == 1

    def test_channel_split_slices_the_filter(self):
        g = conv_graph(channels=6)
        subs = split_operation(g, g.get_op("conv"), "channel", 3)
        for sub in subs:
            assert sub.inputs[0].name == "x:0", "input broadcast under channel split"
            assert sub.inputs[1].shape == (3, 3, 3, 2)
            assert sub.outputs[0].shape[-1] == 2

    def test_consumers_rewired_to_concat(self):
        g = conv_graph()
        split_operation(g, g.get_op("conv"), "batch", 2)
        relu = g.get_op("relu")
        assert relu.inputs[0].producer.op_type == "Concat"
        assert relu.inputs[0].shape == (8, 10, 10, 6)

    def test_sub_op_provenance_attrs(self):
        g = conv_graph()
        subs = split_operation(g, g.get_op("conv"), "batch", 4)
        for sub in subs:
            assert sub.attrs["split_parent"] == "conv"
            assert sub.attrs["split_num"] == 4
        assert pytest.approx(sum(s.attrs["split_fraction"] for s in subs)) == 1.0

    def test_uneven_split_fractions(self):
        g = conv_graph(batch=10)
        subs = split_operation(g, g.get_op("conv"), "batch", 4)
        fractions = [s.attrs["split_fraction"] for s in subs]
        assert fractions == [0.3, 0.3, 0.2, 0.2]

    def test_flops_preserved_by_split(self):
        g = conv_graph()
        original = g.get_op("conv").flops
        subs = split_operation(g, g.get_op("conv"), "batch", 2)
        assert sum(s.flops for s in subs) == pytest.approx(original)


class TestSplitErrors:
    def test_unknown_dimension(self):
        g = conv_graph()
        with pytest.raises(SplitError, match="no splittable dimension"):
            split_operation(g, g.get_op("conv"), "depth", 2)

    def test_unsplittable_op(self):
        g = conv_graph()
        with pytest.raises(SplitError):
            split_operation(g, g.get_op("relu"), "batch", 2)

    def test_count_below_two(self):
        g = conv_graph()
        with pytest.raises(SplitError, match=">= 2"):
            split_operation(g, g.get_op("conv"), "batch", 1)

    def test_extent_too_small(self):
        g = conv_graph(batch=2)
        with pytest.raises(SplitError, match="extent"):
            split_operation(g, g.get_op("conv"), "batch", 4)


class TestBackpropSplit:
    def test_backprop_input_shape_attr_tracks_pieces(self):
        g = Graph("bp")
        f = g.create_op("Variable", "f", attrs={"shape": (3, 3, 3, 8)}).outputs[0]
        gy = g.create_op(
            "Placeholder", "gy", attrs={"shape": (8, 16, 16, 8)}
        ).outputs[0]
        bp = g.create_op(
            "Conv2DBackpropInput", "bp", [f, gy],
            attrs={"stride": 1, "padding": "SAME", "input_shape": (8, 16, 16, 3)},
        )
        g.create_op("Relu", "sink", [bp.outputs[0]])
        subs = split_operation(g, g.get_op("bp"), "batch", 2)
        g.validate()
        for sub in subs:
            assert tuple(sub.attrs["input_shape"]) == (4, 16, 16, 3)
            assert sub.outputs[0].shape == (4, 16, 16, 3)


class TestApplySplitList:
    def test_applies_in_order(self):
        g = conv_graph()
        decisions = [SplitDecision("conv", "batch", 2)]
        apply_split_list(g, decisions)
        assert "conv" not in g
        assert "conv/part0" in g

    def test_identical_decisions_reproducible_on_copies(self):
        g1 = conv_graph()
        g2 = g1.copy()
        apply_split_list(g1, [SplitDecision("conv", "batch", 2)])
        apply_split_list(g2, [SplitDecision("conv", "batch", 2)])
        assert {op.name for op in g1.ops} == {op.name for op in g2.ops}


class TestSemanticsPreservation:
    """The paper: splitting does not change training semantics."""

    def _feeds(self, g, rng):
        feeds = {}
        for op in g.ops:
            if op.op_type in ("Placeholder", "Variable") and op.outputs[0].dtype == "float32":
                feeds[op.name] = rng.normal(size=op.outputs[0].shape).astype(
                    np.float32
                )
        return feeds

    @pytest.mark.parametrize(
        "dim,n", [("batch", 2), ("batch", 4), ("channel", 2), ("channel", 3)]
    )
    def test_conv_split_output_identical(self, dim, n):
        rng = np.random.default_rng(1)
        g = conv_graph()
        feeds = self._feeds(g, rng)
        before = execute(g, feeds, fetch=["relu:0"])["relu:0"]
        split_operation(g, g.get_op("conv"), dim, n)
        after = execute(g, feeds, fetch=["relu:0"])["relu:0"]
        np.testing.assert_allclose(before, after, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("dim,n", [("row", 2), ("row", 4), ("column", 2), ("column", 5)])
    def test_matmul_split_output_identical(self, dim, n):
        rng = np.random.default_rng(2)
        g = matmul_graph()
        feeds = self._feeds(g, rng)
        before = execute(g, feeds, fetch=["relu:0"])["relu:0"]
        split_operation(g, g.get_op("mm"), dim, n)
        after = execute(g, feeds, fetch=["relu:0"])["relu:0"]
        np.testing.assert_allclose(before, after, rtol=1e-5, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(2, 12),
        n=st.integers(2, 6),
        dim=st.sampled_from(["batch", "channel"]),
    )
    def test_conv_split_property(self, batch, n, dim):
        extent = batch if dim == "batch" else 6
        rng = np.random.default_rng(batch * 31 + n)
        g = conv_graph(batch=batch)
        feeds = self._feeds(g, rng)
        before = execute(g, feeds, fetch=["relu:0"])["relu:0"]
        if extent < n:
            with pytest.raises(SplitError):
                split_operation(g, g.get_op("conv"), dim, n)
            return
        split_operation(g, g.get_op("conv"), dim, n)
        g.validate()
        after = execute(g, feeds, fetch=["relu:0"])["relu:0"]
        np.testing.assert_allclose(before, after, rtol=1e-5, atol=1e-4)
