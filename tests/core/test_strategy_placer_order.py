"""Tests for Strategy and the device placer."""

import pytest

from repro.core import (
    PlacementError,
    Strategy,
    apply_placement,
)
from repro.core.placer import model_parallel_placement
from repro.graph import Graph, SplitDecision

from tests.util import build_mlp, chain_graph, diamond_graph


class TestStrategy:
    def test_devices_used(self):
        strategy = Strategy(placement={"a": "d1", "b": "d0", "c": "d1"})
        assert strategy.devices_used() == ["d0", "d1"]

    def test_validate_against_complete(self):
        g = diamond_graph()
        strategy = Strategy(
            placement={op.name: "d0" for op in g.ops},
            order=[op.name for op in g.ops],
        )
        strategy.validate_against(g)

    def test_validate_missing_op(self):
        g = diamond_graph()
        strategy = Strategy(placement={"a": "d0"})
        with pytest.raises(ValueError, match="misses"):
            strategy.validate_against(g)

    def test_validate_unknown_order_entry(self):
        g = diamond_graph()
        strategy = Strategy(
            placement={op.name: "d0" for op in g.ops}, order=["ghost"]
        )
        with pytest.raises(ValueError, match="unknown"):
            strategy.validate_against(g)

    def test_materialize_applies_splits(self):
        g = Graph("m")
        a = g.create_op("Placeholder", "a", attrs={"shape": (8, 8)}).outputs[0]
        b = g.create_op("Variable", "b", attrs={"shape": (8, 8)}).outputs[0]
        mm = g.create_op("MatMul", "mm", [a, b])
        g.create_op("Relu", "r", [mm.outputs[0]])
        strategy = Strategy(
            placement={}, split_list=[SplitDecision("mm", "row", 2)]
        )
        rewritten = strategy.materialize(g)
        assert "mm" not in rewritten and "mm/part0" in rewritten
        assert "mm" in g, "materialize must not mutate the base graph"


class TestApplyPlacement:
    def test_valid_placement_passthrough(self, topo2):
        g = diamond_graph()
        placement = {op.name: topo2.device_names[0] for op in g.ops}
        assert apply_placement(g, placement, topo2) == placement

    def test_missing_op_rejected(self, topo2):
        g = diamond_graph()
        with pytest.raises(PlacementError, match="misses"):
            apply_placement(g, {"a": topo2.device_names[0]}, topo2)

    def test_unknown_device_rejected(self, topo2):
        g = diamond_graph()
        placement = {op.name: "/gpu:42" for op in g.ops}
        with pytest.raises(PlacementError, match="unknown device"):
            apply_placement(g, placement, topo2)

    def test_colocation_repaired(self, topo2):
        g = Graph("c")
        g.create_op("Generic", "v", attrs={"output_shapes": [(1,)]},
                    colocation_group="grp")
        g.create_op("Generic", "u", attrs={"output_shapes": [(1,)]},
                    colocation_group="grp")
        d0, d1 = topo2.device_names
        repaired = apply_placement(g, {"v": d0, "u": d1}, topo2)
        assert repaired["u"] == d0, "snapped to the group leader's device"

    def test_colocation_strict_raises(self, topo2):
        g = Graph("c")
        g.create_op("Generic", "v", attrs={"output_shapes": [(1,)]},
                    colocation_group="grp")
        g.create_op("Generic", "u", attrs={"output_shapes": [(1,)]},
                    colocation_group="grp")
        d0, d1 = topo2.device_names
        with pytest.raises(PlacementError, match="colocation"):
            apply_placement(g, {"v": d0, "u": d1}, topo2, strict_colocation=True)


class TestModelParallelPlacement:
    def test_contiguous_stages(self, topo2):
        g = chain_graph(8, flops=10.0)
        placement = model_parallel_placement(g, topo2)
        devices_in_order = [
            placement[op.name] for op in g.topological_order()
        ]
        # Once we move to the next device we never go back.
        switches = sum(
            1 for a, b in zip(devices_in_order, devices_in_order[1:]) if a != b
        )
        assert switches == 1

    def test_balanced_by_flops(self, topo2):
        g = chain_graph(10, flops=10.0)
        placement = model_parallel_placement(g, topo2)
        from collections import Counter

        counts = Counter(placement.values())
        assert max(counts.values()) - min(counts.values()) <= 2

    def test_training_graph_respects_colocation(self, topo4):
        g = Graph("train")
        from repro.graph import build_training_graph

        loss = build_mlp(g, "", 16)
        build_training_graph(g, loss)
        placement = model_parallel_placement(g, topo4)
        for group, members in g.colocation_groups().items():
            devices = {placement[m.name] for m in members}
            assert len(devices) == 1, f"group {group} split: {devices}"

