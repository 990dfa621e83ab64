"""Frozen provenance journals: any change to what a search journals fails.

``golden/provenance_journals.json`` holds, per case, the sha256 of
``json.dumps(journal.to_json(), sort_keys=True)``: every search record's
mode, candidate ops, initial/final finish times, split rounds with their
candidates and verdicts, placement decisions and super-op map.  The
cases cover every way a search reaches the journal:

* the heavy-matmul incremental search, which commits a split;
* an MLP whose only round is rejected;
* a ~5k-op MLP through the coarse search;
* a warm start that replays a committed split, and one whose safety
  valve falls back to the cold search (still journaled as ``warm``);
* the calculator with splitting disabled (``dpos`` records);
* ``repro.optimize`` of lenet and vgg19 on ``pcie:4``.

Regenerate (only when a change to the journal is intended) with::

    PYTHONPATH=src python tests/obs/test_provenance_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

import repro
from repro.cluster import single_server
from repro.core import DPOS, OSDPOS, FastTConfig, SearchOptions
from repro.core.context import WarmStartSeed
from repro.costmodel import OracleCommunicationModel, OracleComputationModel
from repro.graph import build_single_device_training_graph
from repro.graph.rewrite import SplitDecision
from repro.hardware import PerfModel
from repro.models.layers import LayerHelper
from repro.obs import Observability

if __name__ == "__main__":
    # Run as a script: make ``tests`` importable from the repo root.
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
from tests.obs.test_provenance import heavy_matmul_graph, mlp_graph  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden",
    "provenance_journals.json",
)
#: 455 dense layers: a 5,008-op training graph.
MLP5K_LAYERS = 455


def _journal_sha256(obs) -> str:
    text = json.dumps(obs.provenance.journal.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _mlp5k_graph():
    def build(graph, prefix, batch):
        net = LayerHelper(graph, prefix)
        x = net.placeholder("x", (batch, 64))
        for i in range(MLP5K_LAYERS):
            x = net.dense(x, f"fc{i}", 64, relu=True)
        return net.softmax_loss(x)

    return build_single_device_training_graph(build, 2, name="mlp5k")


def _engine(topo, obs, **options):
    perf = PerfModel(topo)
    dpos = DPOS(
        topo, OracleComputationModel(perf), OracleCommunicationModel(perf),
        obs=obs,
    )
    return OSDPOS(
        dpos, options=SearchOptions(max_candidate_ops=None, **options), obs=obs
    )


def _search(topo, graph, **options):
    obs = Observability(provenance=True)
    _engine(topo, obs, **options).run(graph)
    return _journal_sha256(obs)


def _warm(reference_makespan):
    topo = single_server(4)
    seed = WarmStartSeed(
        split_list=[SplitDecision("mm", "row", 2)],
        reference_makespan=reference_makespan,
    )
    obs = Observability(provenance=True)
    result = _engine(topo, obs).run(heavy_matmul_graph(), warm_start=seed)
    fell_back = result.metrics.get("search.warm_fallbacks", 0) == 1
    assert fell_back == (reference_makespan < 1e-6)
    return _journal_sha256(obs)


def _optimize(model, topology, config=None):
    obs = Observability(provenance=True)
    repro.optimize(model, topology, config=config, obs=obs, run_dir=False)
    return _journal_sha256(obs)


CASES = {
    "heavy-incremental": lambda: _search(single_server(4), heavy_matmul_graph()),
    "mlp-rejected": lambda: _search(single_server(2), mlp_graph()),
    "mlp5k-coarse": lambda: _search(
        single_server(2), _mlp5k_graph(), coarsen=True
    ),
    "warm-commit": lambda: _warm(reference_makespan=1.0),
    "warm-fallback": lambda: _warm(reference_makespan=1e-9),
    "dpos-no-splitting": lambda: _optimize(
        "lenet", "pcie:2",
        FastTConfig(search=SearchOptions(enable_splitting=False)),
    ),
    "optimize-lenet-pcie4": lambda: _optimize("lenet", "pcie:4"),
    "optimize-vgg19-pcie4": lambda: _optimize("vgg19", "pcie:4"),
}


def _load():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["cases"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_journal_matches_golden(case):
    assert CASES[case]() == _load()[case]


def test_golden_covers_every_case():
    assert set(_load()) == set(CASES)


def _write() -> None:
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
        sys.exit("usage: test_provenance_golden.py --write")
    _write()
