"""Graph coarsening: lossless contraction with exact aggregate costs.

``contract_graph`` shrinks the search graph, never the executed one:
every fine op maps to exactly one coarse node, aggregate compute/memory
costs are exact member sums, and the expand mapping reproduces a
complete fine placement and a valid fine topological order.  The coarse
search built on top must leave ``coarsen=False`` byte-identical to the
flat engine and keep the expanded strategy's simulated makespan in the
same ballpark as the exact search's.

``golden/coarse_plans.json`` freezes whole :class:`CoarsePlan` objects
(members, the expand map, the node times under a fixed cost model, and
every slot of a cost cache filled from the plan) for every zoo model and
a 5k-op MLP.  Regenerate (only when a contraction change is intended)
with::

    PYTHONPATH=src:. python tests/graph/test_coarsen.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.cluster import cluster_for, topology_from
from repro.core import DPOS, OSDPOS
from repro.core.os_dpos import SearchOptions
from repro.costmodel import (
    CostCache,
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import (
    SplitError,
    SplitTransaction,
    SuperComputationModel,
    build_single_device_training_graph,
    contract_graph,
)
from repro.hardware import PerfModel
from repro.models import get_model, model_names
from repro.models.layers import LayerHelper
from repro.sim import ExecutionSimulator

from tests.graph.test_coarsen_properties import assert_lossless

ZOO = tuple(model_names())
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "coarse_plans.json"
)
#: Zoo graphs contract to this target; the MLP uses the default (256).
ZOO_TARGET = 64
#: 455 dense layers: a 5,008-op training graph.
MLP_LAYERS = 455


def _training_graph(model_name):
    spec = get_model(model_name, preset="bench")
    return build_single_device_training_graph(
        spec.builder, spec.global_batch, name=f"{model_name}_coarsen"
    )


def _engine(topo, perf, **search_kwargs):
    return OSDPOS(
        DPOS(topo, OracleComputationModel(perf), OracleCommunicationModel(perf)),
        options=SearchOptions(max_candidate_ops=4, **search_kwargs),
    )


def _fingerprint(result):
    s = result.strategy
    return (
        sorted(s.placement.items()),
        list(s.order),
        [(d.op_name, d.dim, d.num_splits) for d in s.split_list],
        s.estimated_time,
        result.finish_time,
    )


# ---------------------------------------------------------------------------
# Round-trip: expand(contract(g)) loses nothing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ZOO)
def test_contract_round_trips(model_name):
    graph = _training_graph(model_name)
    plan = contract_graph(graph, target=64)
    assert plan.num_ops <= 64
    assert_lossless(graph, plan)


@pytest.mark.parametrize("model_name", ["inception_v3", "resnet200"])
def test_aggregate_costs_are_exact(model_name):
    graph = _training_graph(model_name)
    plan = contract_graph(graph, target=64)
    fine_persistent = sum(op.persistent_bytes for op in graph.ops)
    assert sum(plan.persistent) == fine_persistent
    fine_ops = plan.fine_index.ops
    for ids, persistent in zip(plan.member_ids, plan.persistent):
        assert persistent == sum(fine_ops[i].persistent_bytes for i in ids)


def test_super_time_is_member_sum():
    graph = _training_graph("alexnet")
    plan = contract_graph(graph, target=32)
    topo = cluster_for(2)
    perf = PerfModel(topo)
    base = OracleComputationModel(perf)
    model = SuperComputationModel(base, plan)
    devices = topo.device_names
    rows = model.rows(devices)
    fine_ops = plan.fine_index.ops
    checked = 0
    for node, ids in enumerate(plan.member_ids):
        for d, device in enumerate(devices):
            expected = sum(base.time(fine_ops[i], device) for i in ids)
            assert rows[node][d] == pytest.approx(expected)
        if len(ids) > 1:
            checked += 1
    assert checked > 0
    # A second pricing hits the (fingerprint, device) memo.
    assert model.rows(devices) == rows


class _CountingModel:
    """A computation model that counts the member times it computes."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def time(self, op, device):
        self.calls += 1
        return self.base.time(op, device)


def _node_of(plan, op_name):
    i = plan.fine_index.names.index(op_name)
    return next(n for n, ids in enumerate(plan.member_ids) if i in ids)


def test_super_op_memo_key_tracks_member_structure():
    graph = _training_graph("alexnet")
    topo = cluster_for(2)
    base = _CountingModel(OracleComputationModel(PerfModel(topo)))
    device = topo.device_names[0]
    memo = {}

    def super_op_of(member_name):
        plan = contract_graph(graph, target=16)
        node = _node_of(plan, member_name)
        model = SuperComputationModel(base, plan, memo)
        calls = base.calls
        times = model.member_times(node, device)
        computed = base.calls > calls
        fine_ops = plan.fine_index.ops
        assert times == [
            base.base.time(fine_ops[i], device) for i in plan.member_ids[node]
        ]
        assert model.rows([device])[node] == [sum(times)]
        return plan.fingerprints[node], computed

    # A member of a super-op that reads a tensor another source can stand
    # in for (a source cannot close a cycle).
    plan = contract_graph(graph, target=16)
    fine_ops = plan.fine_index.ops
    member = next(
        fine_ops[i]
        for ids in plan.member_ids if len(ids) > 1
        for i in ids
        if fine_ops[i].op_type == "Relu"
    )
    other = next(
        op.outputs[0]
        for op in graph
        if not op.inputs and op.outputs[0] is not member.inputs[0]
    )

    key, computed = super_op_of(member.name)
    assert key is not None and computed
    # An unchanged graph contracts to the same key and hits the memo.
    assert super_op_of(member.name) == (key, False)

    graph.begin_transaction()
    graph.replace_input(member, 0, other)
    rewired, computed = super_op_of(member.name)
    assert rewired != key and computed
    graph.rollback_transaction()
    restored, computed = super_op_of(member.name)
    assert restored not in (key, rewired) and computed


def test_colocation_groups_are_preserved_coarsely():
    graph = _training_graph("lenet")
    plan = contract_graph(graph, target=16)
    groups = graph.colocation_groups()
    assert groups
    for members in groups.values():
        lifted = {plan.groups[_node_of(plan, op.name)] for op in members}
        # Every node touching one fine group shares one coarse group, so
        # colocated fine ops can never be pulled apart by a coarse
        # placement.
        assert len(lifted) == 1
        assert None not in lifted


def test_contract_target_validation():
    graph = _training_graph("lenet")
    with pytest.raises(ValueError):
        contract_graph(graph, target=0)


# ---------------------------------------------------------------------------
# Search equivalence: coarsen=False is byte-identical to the flat engine
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ZOO)
def test_coarsen_off_is_byte_identical(model_name):
    topo = cluster_for(4)
    perf = PerfModel(topo)
    flat = _engine(topo, perf, coarsen=False).run(_training_graph(model_name))
    # "auto" below the threshold must take the exact path too.
    auto = _engine(topo, perf).run(_training_graph(model_name))
    assert _fingerprint(auto) == _fingerprint(flat)


def test_auto_threshold_switches_modes():
    topo = cluster_for(2)
    perf = PerfModel(topo)
    graph = _training_graph("lenet")
    # A threshold at the op count flips "auto" onto the coarse path:
    # byte-identical to forcing coarsen=True with the same target.
    auto_low = _engine(
        topo, perf, coarsen_threshold=graph.num_ops, coarsen_target=16
    ).run(graph)
    forced = _engine(topo, perf, coarsen=True, coarsen_target=16).run(
        _training_graph("lenet")
    )
    assert _fingerprint(auto_low) == _fingerprint(forced)


def test_search_options_validate_coarsen():
    with pytest.raises(ValueError):
        SearchOptions(coarsen="maybe")
    with pytest.raises(ValueError):
        SearchOptions(coarsen_threshold=0)
    with pytest.raises(ValueError):
        SearchOptions(coarsen_target=0)
    for field in ("coarsen_threshold", "coarsen_target"):
        for value in (2.5, True, 1e9, "64", None):
            with pytest.raises(TypeError, match=field):
                SearchOptions(**{field: value})


# ---------------------------------------------------------------------------
# Coarse search quality: complete strategies, bounded regression
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ["lenet", "alexnet", "inception_v3"])
def test_coarse_strategy_simulates_within_tolerance(model_name):
    topo = cluster_for(4)
    perf = PerfModel(topo)

    def simulate(result):
        sim = ExecutionSimulator(result.graph, topo, perf)
        trace = sim.run_step(
            result.strategy.placement,
            order=result.strategy.order,
        )
        return trace.makespan

    exact = _engine(topo, perf, coarsen=False).run(_training_graph(model_name))
    coarse = _engine(topo, perf, coarsen=True).run(_training_graph(model_name))

    # The coarse strategy is complete and executable...
    assert set(coarse.strategy.placement) == {
        op.name for op in coarse.graph.ops
    }
    exact_makespan = simulate(exact)
    coarse_makespan = simulate(coarse)
    # ...and lands within the coarse/exact quality envelope: clustering
    # serializes members, so some slowdown is expected, but the strategy
    # must stay the same order of magnitude as the exact search's.
    assert coarse_makespan <= 2.5 * exact_makespan
    # The coarse finish estimate prices the expanded schedule it emits.
    assert coarse.finish_time == pytest.approx(coarse_makespan, rel=0.5)


# ---------------------------------------------------------------------------
# Frozen CoarsePlans
# ---------------------------------------------------------------------------
def _mlp_graph(layers=MLP_LAYERS, hidden=64, batch=2):
    def build(graph, prefix, batch):
        net = LayerHelper(graph, prefix)
        x = net.placeholder("x", (batch, hidden))
        for i in range(layers):
            x = net.dense(x, f"fc{i}", hidden, relu=True)
        return net.softmax_loss(x)

    return build_single_device_training_graph(build, batch, name="mlp_coarsen")


def _split_graph():
    """inception_v3 after committed splits rewired its consumer lists."""
    graph = _training_graph("inception_v3")
    splittable = [op for op in graph.topological_order() if op.split_dims]
    for op in splittable[:: len(splittable) // 4][:4]:
        txn = SplitTransaction(graph, op, sorted(op.split_dims)[0], 2)
        try:
            txn.apply()
        except SplitError:
            continue
        txn.commit()
    return graph


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_slots(plan):
    """The slots of a cost cache filled from ``plan`` over ``pcie:4``."""
    # Imported here: that module imports this one.
    from tests.costmodel.test_coarse_cache import _slots

    topo = topology_from("pcie:4")
    perf = PerfModel(topo)
    return _slots(CostCache(
        plan, SuperComputationModel(OracleComputationModel(perf), plan),
        OracleCommunicationModel(perf), topo.device_names,
    ))


def _plan_record(graph, target):
    """Every observable part of a CoarsePlan, as sha256 digests per part.

    The name-keyed maps (members, the fine op -> node map, the members of
    multi-member nodes) are derived from the plan's lists here; the plan
    stores only the lists.
    """
    plan = contract_graph(graph, target=target)
    topo = cluster_for(2, 1, "pcie")
    model = SuperComputationModel(OracleComputationModel(PerfModel(topo)), plan)
    fine_names = plan.fine_index.names
    members = {
        name: [fine_names[i] for i in ids]
        for name, ids in zip(plan.names, plan.member_ids)
    }
    op_to_coarse = {
        member: name for name, names in members.items() for member in names
    }
    times = {
        name: [repr(time) for time in row]
        for name, row in zip(plan.names, model.rows(topo.device_names))
    }
    # JSON round trip: tuples and lists compare alike.
    return {
        "coarse_ops": plan.num_ops,
        "members_sha256": _sha256(members),
        "op_to_coarse_sha256": _sha256(op_to_coarse),
        "member_ops_sha256": _sha256(
            {name: names for name, names in members.items() if len(names) > 1}
        ),
        "times_sha256": _sha256(times),
        "slots_sha256": _sha256(_plan_slots(plan)),
    }


PLAN_CASES = {
    **{
        f"{model}/{ZOO_TARGET}": (
            lambda model=model: _plan_record(_training_graph(model), ZOO_TARGET)
        )
        for model in ZOO
    },
    "mlp5k/256": lambda: _plan_record(_mlp_graph(), 256),
    "inception_v3-split/64": lambda: _plan_record(_split_graph(), ZOO_TARGET),
}


def _load_plans():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_coarse_plan_matches_golden(case):
    assert PLAN_CASES[case]() == _load_plans()[case]


def test_coarse_plan_golden_covers_every_case():
    assert set(_load_plans()) == set(PLAN_CASES)


def _write_plans() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    document = {
        "schema": 1,
        "cases": {name: PLAN_CASES[name]() for name in sorted(PLAN_CASES)},
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_coarsen.py --write")
    _write_plans()
