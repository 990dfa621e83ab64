"""Frozen DPOS / OS-DPOS strategies: any change to the scheduler's output fails.

``golden/dpos_strategies.json`` records, per case, a sha256 over the
strategy (placement, execution order, split list) and ``repr`` of the
estimated finish time, so a rewrite of the list scheduler must return
byte-identical strategies and bit-identical finish times.  Beyond the
OS-DPOS matrix (fast zoo models x four interconnects) it pins:

* every zoo model on the 2-, 4- and 8-GPU default clusters, each with
  the number of candidates the search scored (frozen from the retired
  copy-per-candidate reference search, which returned the same
  strategies);
* two hierarchical (coarse) searches on pcie:4;
* one provenance-recording DPOS run, hashing every decision's reason,
  device, start/finish and per-device alternative scores;
* one OS-DPOS run with idle-slot insertion disabled;
* one DPOS run whose planning memory is small enough that some ops
  overflow (``memory-overflow`` decisions).

Regenerate (only when a strategy change is intended) with::

    PYTHONPATH=src python tests/core/test_golden_dpos.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.cluster import cluster_for
from repro.core import DPOS, OSDPOS, SearchOptions
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model, model_names
from repro.obs import Observability

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "dpos_strategies.json"
)
MODELS = ("lenet", "alexnet", "vgg19", "rnnlm", "bert_large")
#: name -> (num_gpus, num_servers, interconnect) for cluster_for.
CLUSTERS = {
    "two_tier": (4, 2, "default"),
    "pcie": (4, 1, "pcie"),
    "dgx": (4, 1, "dgx"),
    "mixed": (4, 1, "mixed"),
}
ZOO_GPU_COUNTS = (2, 4, 8)
#: model -> coarsen_target of the coarse-search cases on pcie:4.
COARSE_CASES = {"alexnet": 64, "rnnlm": 16}
MAX_CANDIDATE_OPS = 4
OVERFLOW_MEMORY_FRACTION = 0.05


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _dpos(cluster, **kwargs):
    return _dpos_on(cluster_for(*CLUSTERS[cluster]), **kwargs)


def _dpos_on(topo, **kwargs):
    perf = PerfModel(topo)
    return DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf),
        **kwargs,
    )


def _graph(model_name):
    spec = get_model(model_name, preset="bench")
    return build_single_device_training_graph(
        spec.builder, spec.global_batch, name=f"{model_name}_golden"
    )


def _strategy_record(strategy, finish_time):
    return {
        "strategy_sha256": _sha256([
            sorted(strategy.placement.items()),
            list(strategy.order),
            [(d.op_name, d.dim, d.num_splits) for d in strategy.split_list],
        ]),
        "finish_time": repr(finish_time),
    }


def _decisions_record(decisions):
    record = {
        "decisions_sha256": _sha256(
            {name: d.to_json() for name, d in decisions.items()}
        ),
        "reasons": {},
    }
    for decision in decisions.values():
        record["reasons"][decision.reason] = (
            record["reasons"].get(decision.reason, 0) + 1
        )
    return record


def _osdpos_case(model_name, cluster, **dpos_kwargs):
    dpos = _dpos(cluster, **dpos_kwargs)
    options = SearchOptions(max_candidate_ops=MAX_CANDIDATE_OPS)
    result = OSDPOS(dpos, options=options).run(_graph(model_name))
    return _strategy_record(result.strategy, result.finish_time)


def _search_case(model_name, topo, **options):
    options = SearchOptions(max_candidate_ops=MAX_CANDIDATE_OPS, **options)
    result = OSDPOS(_dpos_on(topo), options=options).run(_graph(model_name))
    record = _strategy_record(result.strategy, result.finish_time)
    record["candidates_evaluated"] = result.candidates_evaluated
    return record


def _dpos_case(model_name, cluster, **dpos_kwargs):
    obs = Observability(provenance=True)
    result = _dpos(cluster, obs=obs, **dpos_kwargs).run(_graph(model_name))
    record = _strategy_record(result.strategy, result.finish_time)
    record.update(_decisions_record(result.decisions))
    return record


CASES = {
    **{
        f"osdpos/{model}/{cluster}": (
            lambda model=model, cluster=cluster: _osdpos_case(model, cluster)
        )
        for model in MODELS
        for cluster in CLUSTERS
    },
    **{
        f"osdpos-zoo/{model}/{gpus}gpu": (
            lambda model=model, gpus=gpus: _search_case(
                model, cluster_for(gpus)
            )
        )
        for model in model_names()
        for gpus in ZOO_GPU_COUNTS
    },
    **{
        f"osdpos-coarse/{model}/pcie": (
            lambda model=model, target=target: _search_case(
                model, cluster_for(4, 1, "pcie"),
                coarsen=True, coarsen_target=target,
            )
        )
        for model, target in COARSE_CASES.items()
    },
    "osdpos-no-insertion/alexnet/pcie": lambda: _osdpos_case(
        "alexnet", "pcie", insertion_scheduling=False
    ),
    "dpos-provenance/alexnet/two_tier": lambda: _dpos_case(
        "alexnet", "two_tier"
    ),
    "dpos-memory-overflow/alexnet/pcie": lambda: _dpos_case(
        "alexnet", "pcie", memory_fraction=OVERFLOW_MEMORY_FRACTION
    ),
}


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_strategy_matches_golden(case):
    assert CASES[case]() == _load_golden()[case]


def test_golden_covers_every_case():
    assert set(_load_golden()) == set(CASES)


def test_memory_case_exercises_overflow():
    reasons = _load_golden()["dpos-memory-overflow/alexnet/pcie"]["reasons"]
    assert reasons.get("memory-overflow", 0) >= 1
    assert reasons.get("min-eft", 0) >= 1


def _write_golden() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    document = {
        "schema": 1,
        "cases": {name: CASES[name]() for name in sorted(CASES)},
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_dpos.py --write")
    _write_golden()
