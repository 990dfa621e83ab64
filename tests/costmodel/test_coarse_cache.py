"""A cost cache filled from a CoarsePlan's lists equals the frozen fill
over the contracted graph.

The coarse search fills its cost cache from the lists the contraction
recorded (names, producer rows, persistent bytes, lifted groups) and
prices each multi-member node as the sum of its members' times.  The
contracted ``Graph`` this was once checked against is gone; its fill,
slot by slot with ``repr``-exact floats, is frozen as ``slots_sha256``
in ``tests/graph/golden/coarse_plans.json`` (recorded while both fills
ran side by side and matched), for every zoo model at target 64 and the
5,008-op MLP of ``tests/graph/test_coarsen.py``.
"""

import pytest

from repro.cluster import topology_from
from repro.costmodel import CostCache, OracleCommunicationModel, OracleComputationModel
from repro.graph import SuperComputationModel, contract_graph
from repro.hardware import PerfModel
from repro.models import model_names

from tests.graph.test_coarsen import (
    ZOO_TARGET,
    _load_plans,
    _mlp_graph,
    _sha256,
    _training_graph,
)

CASES = [(model, ZOO_TARGET) for model in model_names()] + [("mlp5k", 256)]


def _graph(model):
    return _mlp_graph() if model == "mlp5k" else _training_graph(model)


def _slots(cache):
    order = cache.topological_order()
    return {
        "names": list(cache.names),
        "order": list(order),
        # repr: bit-identical floats, not merely equal ones.
        "times": [repr(row) for row in cache.times],
        "weights": [repr(w) for w in cache.weights],
        "persistent": list(cache.persistent),
        "groups": list(cache.groups),
        "preds": list(cache.preds),
        "pred_bytes": list(cache.pred_bytes),
        "succs": list(cache.succs),
        "succ_comm": [repr(row) for row in cache.succ_comm],
    }


@pytest.mark.parametrize("model,target", CASES)
def test_plan_fill_matches_coarse_graph_fill(model, target):
    topo = topology_from("pcie:4")
    perf = PerfModel(topo)
    base = OracleComputationModel(perf)
    communication = OracleCommunicationModel(perf)
    devices = topo.device_names
    plan = contract_graph(_graph(model), target=target)

    from_plan = SuperComputationModel(base, plan)
    lists = _slots(CostCache(plan, from_plan, communication, devices))
    assert _sha256(lists) == _load_plans()[f"{model}/{target}"]["slots_sha256"]
    assert lists["names"] == plan.names

    # The member times a node's sum added are the base model's.
    ops = plan.fine_index.ops
    for node, ids in enumerate(plan.member_ids):
        for device in devices:
            assert from_plan.member_times(node, device) == [
                base.time(ops[i], device) for i in ids
            ]
