"""Tests for data-parallel training-graph construction."""

import pytest

from repro.graph import (
    GraphError,
    build_data_parallel_training_graph,
    build_single_device_training_graph,
    data_parallel_placement,
    replica_index_of,
    replica_prefix,
)

from tests.util import build_mlp


class TestReplicaNaming:
    def test_prefix_format(self):
        assert replica_prefix(3) == "replica_3/"

    def test_index_roundtrip(self):
        assert replica_index_of("replica_2/conv1") == 2

    def test_shared_ops_have_no_index(self):
        assert replica_index_of("grad_agg/w1") is None
        assert replica_index_of("loss") is None


class TestSingleDevice:
    def test_builds_training_graph(self):
        g = build_single_device_training_graph(build_mlp, 16)
        g.validate()
        assert any(op.op_type == "ApplyGradient" for op in g.ops)


class TestSharedVariableReplication:
    @pytest.fixture
    def dp(self):
        return build_data_parallel_training_graph(build_mlp, 4, 64, name="dp")

    def test_tower_batches_partition_global(self, dp):
        _, info = dp
        assert info.tower_batches == [16, 16, 16, 16]
        assert sum(info.tower_batches) == info.global_batch

    def test_one_variable_instance_per_weight(self, dp):
        graph, _ = dp
        variables = [op for op in graph.ops if op.op_type == "Variable"]
        # All variables live under the tower-0 prefix (shared).
        assert all(v.name.startswith("replica_0/") for v in variables)
        single = build_single_device_training_graph(build_mlp, 16)
        single_vars = [op for op in single.ops if op.op_type == "Variable"]
        assert len(variables) == len(single_vars)

    def test_one_aggregation_per_variable(self, dp):
        graph, info = dp
        variables = [op for op in graph.ops if op.op_type == "Variable"]
        assert len(info.aggregation_ops) == len(variables)
        for agg_name in info.aggregation_ops:
            agg = graph.get_op(agg_name)
            assert agg.op_type == "AddN"
            assert len(agg.inputs) == info.num_replicas

    def test_one_apply_per_variable(self, dp):
        graph, _ = dp
        applies = [op for op in graph.ops if op.op_type == "ApplyGradient"]
        variables = [op for op in graph.ops if op.op_type == "Variable"]
        assert len(applies) == len(variables)

    def test_losses_per_tower(self, dp):
        graph, info = dp
        assert len(info.losses) == 4
        for name in info.losses:
            graph.get_tensor(name)

    def test_graph_validates(self, dp):
        graph, _ = dp
        graph.validate()

    def test_uneven_batch_partition(self):
        _, info = build_data_parallel_training_graph(build_mlp, 3, 64)
        assert sum(info.tower_batches) == 64
        assert max(info.tower_batches) - min(info.tower_batches) <= 1


class TestDegenerateCases:
    def test_single_replica_has_no_aggregation(self):
        graph, info = build_data_parallel_training_graph(build_mlp, 1, 16)
        assert info.aggregation_ops == []
        graph.validate()

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            build_data_parallel_training_graph(build_mlp, 0, 16)

    def test_batch_smaller_than_replicas_rejected(self):
        with pytest.raises(ValueError):
            build_data_parallel_training_graph(build_mlp, 8, 4)


class TestDefaultPlacement:
    def test_towers_map_to_devices(self, topo4):
        graph, _ = build_data_parallel_training_graph(build_mlp, 4, 64)
        placement = data_parallel_placement(graph, topo4.device_names)
        for op in graph.ops:
            idx = replica_index_of(op.name)
            expected = topo4.device_names[idx if idx is not None else 0]
            assert placement[op.name] == expected

    def test_too_few_devices_rejected(self, topo2):
        graph, _ = build_data_parallel_training_graph(build_mlp, 4, 64)
        with pytest.raises(GraphError):
            data_parallel_placement(graph, topo2.device_names)
