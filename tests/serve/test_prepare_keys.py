"""The prepare stage's two graph keys are byte-identical to their
definitions.

:func:`repro.serve.worker.prepare` computes the input graph's
fingerprint (the store key) and its per-op signature (the warm-start
index) from one ``repr`` per op.  Both must equal what the functions
below give, which hash each op's tuple on its own: store keys and
persisted fingerprint memos depend on them.
"""

import hashlib

import pytest

from repro.core import FastTConfig
from repro.graph.delta import graph_signature, op_signature
from repro.models import model_names
from repro.obs.runs import graph_fingerprint
from repro.serve import worker
from repro.serve.service import normalize_request


def reference_fingerprint(graph) -> str:
    h = hashlib.sha1()
    for op in graph.topological_order():
        h.update(repr((
            op.name,
            op.op_type,
            sorted((k, repr(v)) for k, v in op.attrs.items()),
            [(t.name, t.shape, t.dtype) for t in op.inputs],
            [(t.shape, t.dtype) for t in op.outputs],
        )).encode())
    return h.hexdigest()


def reference_signature(graph):
    def digest(op):
        h = hashlib.sha1()
        h.update(repr((
            op.op_type,
            sorted((k, repr(v)) for k, v in op.attrs.items()),
            [(t.name, t.shape, t.dtype) for t in op.inputs],
            [(t.shape, t.dtype) for t in op.outputs],
        )).encode())
        return h.hexdigest()[:16]

    return {op.name: digest(op) for op in graph.ops}


@pytest.mark.parametrize("topology", ["pcie:2", "pcie:4"])
@pytest.mark.parametrize("model", model_names())
def test_prepare_keys_match_their_definitions(model, topology):
    document = normalize_request({"model": model, "topology": topology})
    session, prepared = worker.prepare(document, FastTConfig())
    graph = session.input_graph
    expected = reference_signature(graph)
    assert prepared.graph_fp == reference_fingerprint(graph)
    assert prepared.signature == expected
    assert list(prepared.signature) == list(expected)
    # The public functions, called on their own, agree too.
    assert graph_fingerprint(graph) == prepared.graph_fp
    assert graph_signature(graph) == expected
    op = graph.ops[-1]
    assert op_signature(op) == expected[op.name]
