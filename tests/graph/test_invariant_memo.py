"""Graph invariants computed once must equal a from-scratch recomputation.

``Tensor`` sizes are fixed at creation, ``Operation.bytes_accessed`` and
``flops`` are memoized per op, and ``Graph.topological_order`` /
``Graph.validate`` / ``Graph.index`` are memoized per ``Graph.version``.
These tests recompute every one of them independently and compare, on
the zoo training graphs and across split transactions, and pin that
every structural mutation invalidates the cached order and index.
``Graph.copy`` is checked against a ``create_op``-based reference copy.
"""

import dataclasses
import heapq
import math
import sys
from collections import deque

import pytest

from repro.graph import (
    DTYPE_SIZES,
    Graph,
    GraphError,
    SplitError,
    SplitTransaction,
    build_data_parallel_training_graph,
    build_single_device_training_graph,
    contract_graph,
)
from repro.models import get_model, model_names

from tests.graph.test_coarsen_properties import coarse_order

ZOO = tuple(model_names())


def _training_graph(model_name):
    spec = get_model(model_name, preset="bench")
    return build_single_device_training_graph(
        spec.builder, spec.global_batch, name=f"{model_name}_memo"
    )


# ----------------------------------------------------------------------
# From-scratch references
# ----------------------------------------------------------------------
def _reference_order(graph, canonical):
    """Kahn's algorithm over predecessors()/successors(), nothing cached."""
    indegree = {op.name: len(graph.predecessors(op)) for op in graph}
    order = []
    if canonical:
        heap = [name for name, d in indegree.items() if d == 0]
        heapq.heapify(heap)
        while heap:
            op = graph.get_op(heapq.heappop(heap))
            order.append(op.name)
            for succ in graph.successors(op):
                indegree[succ.name] -= 1
                if indegree[succ.name] == 0:
                    heapq.heappush(heap, succ.name)
    else:
        ready = deque(op for op in graph if indegree[op.name] == 0)
        while ready:
            op = ready.popleft()
            order.append(op.name)
            for succ in graph.successors(op):
                indegree[succ.name] -= 1
                if indegree[succ.name] == 0:
                    ready.append(succ)
    return order


def _reference_valid(graph):
    """The structural checks of ``validate``, recomputed from scratch."""
    if len(_reference_order(graph, canonical=False)) != graph.num_ops:
        return False
    for op in graph:
        for t in op.outputs:
            if graph.get_tensor(t.name) is not t:
                return False
        for idx, t in enumerate(op.inputs):
            if not any(c is op and i == idx for c, i in graph.consumers(t)):
                return False
    return True


def _reference_index(graph):
    """Everything ``Graph.index()`` holds, by name, from the graph API."""
    position = {op.name: i for i, op in enumerate(graph.ops)}

    def by_position(names):
        return sorted(set(names), key=position.__getitem__)

    return {
        "ops": [op.name for op in graph.ops],
        "tensors": [
            (t.name, t.size_bytes, op.name) for op in graph.ops for t in op.outputs
        ],
        "outputs": [[t.name for t in op.outputs] for op in graph.ops],
        "inputs": [
            list(dict.fromkeys(t.name for t in op.inputs)) for op in graph.ops
        ],
        "consumers": [
            by_position(c.name for c, _ in graph.consumers(t))
            for op in graph.ops
            for t in op.outputs
        ],
        "preds": [
            [(p.name, graph.edge_bytes(p, op)) for p in graph.predecessors(op)]
            for op in graph.ops
        ],
        "succs": [
            [
                (name, graph.edge_bytes(op, graph.get_op(name)))
                for name in by_position(s.name for s in graph.successors(op))
            ]
            for op in graph.ops
        ],
        "canonical": _reference_order(graph, canonical=True),
    }


def _index_view(index):
    """``index`` read back into the names of :func:`_reference_index`."""
    names, tensors = index.names, index.tensor_names

    def rows(ptr, ids, n):
        return [list(ids[ptr[i]:ptr[i + 1]]) for i in range(n)]

    n, num_tensors = len(index.ops), len(tensors)
    preds = rows(index.pred_ptr, index.preds, n)
    pred_bytes = rows(index.pred_ptr, index.pred_bytes, n)
    succ_ptr, succ_ids, succ_sent = index.successors()
    succs = rows(succ_ptr, succ_ids, n)
    succ_bytes = rows(succ_ptr, succ_sent, n)
    return {
        "ops": [op.name for op in index.ops],
        "tensors": [
            (tensors[t], index.tensor_bytes[t], names[index.producers[t]])
            for t in range(num_tensors)
        ],
        "outputs": [
            [tensors[t] for t in range(index.out_ptr[i], index.out_ptr[i + 1])]
            for i in range(n)
        ],
        "inputs": [
            [tensors[t] for t in row]
            for row in rows(index.in_ptr, index.in_ids, n)
        ],
        "consumers": [
            [names[i] for i in row]
            for row in rows(index.cons_ptr, index.cons_ids, num_tensors)
        ],
        "preds": [
            [(names[p], b) for p, b in zip(row, sent)]
            for row, sent in zip(preds, pred_bytes)
        ],
        "succs": [
            [(names[s], b) for s, b in zip(row, sent)]
            for row, sent in zip(succs, succ_bytes)
        ],
        "canonical": [names[i] for i in index.canonical_order()],
    }


def _assert_memos_match(graph):
    for op in graph:
        for t in op.inputs + op.outputs:
            assert t.num_elements == math.prod(t.shape)
            assert t.size_bytes == math.prod(t.shape) * DTYPE_SIZES[t.dtype]
        assert op.bytes_accessed == op.spec.bytes_accessed(op), op.name
        assert op.flops == float(op.spec.flops(op)), op.name
    for canonical in (False, True):
        got = [op.name for op in graph.topological_order(canonical=canonical)]
        assert got == _reference_order(graph, canonical)
    assert _reference_valid(graph)
    graph.validate()
    index = graph.index()
    assert index.version == graph.version
    assert index.names == [op.name for op in index.ops]
    assert _index_view(index) == _reference_index(graph)


def _first_split(graph):
    """A SplitTransaction on the first op that splits cleanly in two."""
    for op in graph.topological_order():
        for dim in op.split_dims:
            txn = SplitTransaction(graph, op, dim, 2)
            try:
                txn.apply()
            except SplitError:
                continue
            return txn
    pytest.skip(f"no splittable op in {graph.name}")


# ----------------------------------------------------------------------
# Memos equal recomputation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ZOO)
def test_memos_match_recomputation(model_name):
    _assert_memos_match(_training_graph(model_name))


@pytest.mark.parametrize("model_name", ZOO)
def test_memos_match_after_split_undo_and_commit(model_name):
    graph = _training_graph(model_name)
    # Warm every memo first so a stale value would show.
    _assert_memos_match(graph)
    txn = _first_split(graph)
    _assert_memos_match(graph)
    txn.undo()
    _assert_memos_match(graph)
    txn = _first_split(graph)
    txn.commit()
    _assert_memos_match(graph)


def test_memos_match_on_data_parallel_graph():
    # Replication rewires consumers (replace_input) and removes ops.
    spec = get_model("alexnet", preset="bench")
    graph, _ = build_data_parallel_training_graph(
        spec.builder, num_replicas=2, global_batch=spec.global_batch
    )
    _assert_memos_match(graph)


# ----------------------------------------------------------------------
# Topological-order cache
# ----------------------------------------------------------------------
def _chain(n):
    g = Graph("chain")
    x = g.create_op("Placeholder", "op0", attrs={"shape": (4, 4)}).outputs[0]
    for i in range(1, n):
        x = g.create_op("Relu", f"op{i}", [x]).outputs[0]
    return g


def _names(ops):
    return [op.name for op in ops]


@pytest.mark.parametrize("canonical", [False, True])
def test_returned_order_is_a_fresh_list(canonical):
    g = _chain(5)
    first = g.topological_order(canonical=canonical)
    expected = _names(first)
    first.reverse()
    first.append(first[0])
    assert _names(g.topological_order(canonical=canonical)) == expected
    assert g.topological_order(canonical=canonical) is not g.topological_order(
        canonical=canonical
    )


@pytest.mark.parametrize("canonical", [False, True])
def test_create_op_invalidates_order(canonical):
    g = _chain(3)
    assert _names(g.topological_order(canonical=canonical)) == ["op0", "op1", "op2"]
    g.create_op("Relu", "op3", [g.get_tensor("op2:0")])
    assert _names(g.topological_order(canonical=canonical)) == [
        "op0", "op1", "op2", "op3",
    ]


@pytest.mark.parametrize("canonical", [False, True])
def test_replace_input_invalidates_order(canonical):
    g = Graph("rewire")
    a = g.create_op("Placeholder", "a", attrs={"shape": (4, 4)})
    b = g.create_op("Relu", "b", [a.outputs[0]])
    z = g.create_op("Placeholder", "z", attrs={"shape": (4, 4)})
    c = g.create_op("Relu", "c", [z.outputs[0]])
    assert _names(g.topological_order(canonical=canonical)) == _reference_order(
        g, canonical
    )
    # c now consumes b: it must come after b in every fresh order.
    g.replace_input(c, 0, b.outputs[0])
    order = _names(g.topological_order(canonical=canonical))
    assert order == _reference_order(g, canonical)
    assert order.index("b") < order.index("c")


@pytest.mark.parametrize("canonical", [False, True])
def test_remove_op_invalidates_order(canonical):
    g = _chain(3)
    g.topological_order(canonical=canonical)
    g.remove_op(g.get_op("op2"))
    assert _names(g.topological_order(canonical=canonical)) == ["op0", "op1"]


@pytest.mark.parametrize("canonical", [False, True])
def test_rollback_invalidates_order(canonical):
    g = _chain(3)
    g.begin_transaction()
    g.create_op("Relu", "extra", [g.get_tensor("op2:0")])
    assert "extra" in _names(g.topological_order(canonical=canonical))
    g.rollback_transaction()
    assert _names(g.topological_order(canonical=canonical)) == ["op0", "op1", "op2"]


def test_rewiring_resets_op_memos():
    g = Graph("resize")
    small = g.create_op("Placeholder", "small", attrs={"shape": (4, 4)})
    big = g.create_op("Placeholder", "big", attrs={"shape": (8, 8)})
    relu = g.create_op("Relu", "relu", [small.outputs[0]])
    before = (relu.bytes_accessed, relu.flops)
    g.begin_transaction()
    g.replace_input(relu, 0, big.outputs[0])
    assert relu.bytes_accessed == relu.spec.bytes_accessed(relu) != before[0]
    assert relu.flops == float(relu.spec.flops(relu))
    g.rollback_transaction()
    assert (relu.bytes_accessed, relu.flops) == before


# ----------------------------------------------------------------------
# Graph.index: one object per version
# ----------------------------------------------------------------------
def test_unchanged_version_returns_the_same_index():
    g = _chain(4)
    index = g.index()
    g.validate()
    g.topological_order(canonical=True)
    g.begin_transaction()  # journaling alone mutates nothing
    assert g.index() is index
    g.commit_transaction()
    assert g.index() is index
    assert g.index().canonical_order() is index.canonical_order()


@pytest.mark.parametrize("mutation", ["create", "replace", "remove", "rollback"])
def test_every_mutation_kind_yields_a_new_index(mutation):
    g = Graph("mutate")
    a = g.create_op("Placeholder", "a", attrs={"shape": (4, 4)})
    b = g.create_op("Relu", "b", [a.outputs[0]])
    z = g.create_op("Placeholder", "z", attrs={"shape": (4, 4)})
    c = g.create_op("Relu", "c", [z.outputs[0]])
    if mutation == "rollback":
        g.begin_transaction()
        g.create_op("Relu", "d", [b.outputs[0]])
    before = g.index()
    if mutation == "create":
        g.create_op("Relu", "d", [c.outputs[0]])
    elif mutation == "replace":
        g.replace_input(c, 0, b.outputs[0])
    elif mutation == "remove":
        g.remove_op(c)
    else:
        g.rollback_transaction()
    after = g.index()
    assert after is not before
    assert after.version == g.version
    assert _index_view(after) == _reference_index(g)


def test_validate_is_rechecked_after_mutation():
    g = _chain(3)
    g.validate()
    g.create_op("Relu", "op3", [g.get_tensor("op2:0")])
    # Corrupt the tensor table behind the graph's back; the version bump
    # from create_op above means validate must look again.
    del g._tensors["op3:0"]
    with pytest.raises(GraphError, match="missing from tensor table"):
        g.validate()


# ----------------------------------------------------------------------
# Graph.copy
# ----------------------------------------------------------------------
def _reference_copy(graph):
    """A copy made the slow way: create_op per op, shapes re-inferred."""
    clone = Graph(graph.name)
    for op in graph.topological_order():
        clone.create_op(
            op.op_type,
            op.name,
            [clone.get_tensor(t.name) for t in op.inputs],
            attrs=dict(op.attrs),
            colocation_group=op.colocation_group,
        )
    return clone


def _structure(graph):
    return {
        "version": graph.version,
        "ops": [
            (
                op.name,
                op.op_type,
                [t.name for t in op.inputs],
                [(t.name, t.shape, t.dtype, t.output_index) for t in op.outputs],
                dict(op.attrs),
                op.colocation_group,
            )
            for op in graph.ops
        ],
        "consumers": {
            t.name: [(c.name, i) for c, i in graph.consumers(t)]
            for op in graph.ops
            for t in op.outputs
        },
    }


@pytest.mark.parametrize("model_name", ZOO)
def test_copy_matches_create_op_reference(model_name):
    graph = _training_graph(model_name)
    # A committed split reorders consumer lists relative to creation.
    _first_split(graph).commit()
    clone = graph.copy()
    assert _structure(clone) == _structure(_reference_copy(graph))
    # New objects throughout, each tensor produced by its own clone op.
    for op in clone.ops:
        assert op is not graph.get_op(op.name)
        for t in op.outputs:
            assert t.producer is op
            assert clone.get_tensor(t.name) is t
    _assert_memos_match(clone)


# ----------------------------------------------------------------------
# Tensor immutability (the precondition of the size memo)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field, value", [("shape", (2, 2)), ("dtype", "float16"), ("producer", None)]
)
def test_tensor_fields_are_read_only(field, value):
    g = _chain(2)
    t = g.get_tensor("op1:0")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(t, field, value)
    assert t.shape == (4, 4) and t.size_bytes == 64


# ----------------------------------------------------------------------
# Deep graphs under the default recursion limit
# ----------------------------------------------------------------------
def test_deep_chain_under_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = _chain(5000)
        expected = [f"op{i}" for i in range(5000)]
        clone = g.copy()
        clone.validate()
        assert _names(clone.topological_order()) == expected
        assert _names(clone.topological_order(canonical=True)) == expected
        plan = contract_graph(clone, target=64)
        assert 1 <= plan.num_ops <= 64
        assert plan.expand_order(coarse_order(plan)) == expected
    finally:
        sys.setrecursionlimit(limit)
