"""Graph-edit deltas: detect when one training graph is a small edit of
another.

The strategy service (:mod:`repro.serve`) keys its cache on exact graph
fingerprints, but a near-miss is still valuable: a model with one layer
added, one removed, or the batch size changed is *almost* the problem a
cached strategy already solved, and seeding OS-DPOS from that strategy
(a :class:`~repro.core.WarmStartSeed`) skips most of the split search.

This module provides the matching half of that story:

* :func:`graph_signature` — per-op content digests (``{op name:
  digest}``), cheap to store alongside a cached strategy;
* :func:`diff_signatures` / :func:`diff_graphs` — a
  :class:`GraphDelta` classifying ops as added / removed / changed /
  unchanged between two graphs;
* :meth:`GraphDelta.is_warm_startable` — the gate the service applies
  before re-using a cached split list.

The warm-start criterion is deliberately *structural*: ops that exist in
both graphs but changed shape (the batch-resize case) rewrite every
signature yet leave the split list's op names valid, so only
added/removed ops count against the budget.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Default ceiling on the structural-edit ratio (added + removed ops
#: over the larger graph) below which a cached strategy is considered a
#: useful warm-start seed.  Above it, too much of the split list refers
#: to ops that no longer exist and cold search wins.
DEFAULT_WARM_RATIO = 0.25


def op_content(op) -> str:
    """``repr`` of one op's content: type, attrs, and input/output shapes.

    Deliberately *excludes* graph-wide context (predecessor digests), so
    an inserted layer perturbs only its own and its consumers' rewired
    input tuples — keeping a one-layer edit a local delta rather than an
    avalanche.  :func:`op_signature` digests it, and
    :func:`repro.obs.runs.graph_fingerprint` hashes it behind the op's
    name.
    """
    return repr((
        op.op_type,
        sorted((k, repr(v)) for k, v in op.attrs.items()),
        [(t.name, t.shape, t.dtype) for t in op.inputs],
        [(t.shape, t.dtype) for t in op.outputs],
    ))


def _digest(content: str) -> str:
    return hashlib.sha1(content.encode()).hexdigest()[:16]


def op_signature(op) -> str:
    """Content digest of one op (see :func:`op_content`)."""
    return _digest(op_content(op))


def graph_contents(graph) -> Dict[str, str]:
    """:func:`op_content` of every op, keyed by op name in graph order."""
    return {op.name: op_content(op) for op in graph.ops}


def graph_signature(
    graph, contents: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """Per-op digests keyed by op name, in no particular order.

    ``contents`` is the graph's :func:`graph_contents`, for a caller that
    already has it.
    """
    if contents is None:
        contents = graph_contents(graph)
    return {name: _digest(content) for name, content in contents.items()}


@dataclass
class GraphDelta:
    """Classification of ops between a *base* graph and a *target* graph.

    ``added``/``removed`` are structural edits (op exists in only one
    side); ``changed`` are ops present in both whose signatures differ
    (shape/attr edits, e.g. a batch-size change); ``unchanged`` are
    byte-identical.
    """

    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    unchanged: List[str] = field(default_factory=list)

    @property
    def base_size(self) -> int:
        return len(self.removed) + len(self.changed) + len(self.unchanged)

    @property
    def target_size(self) -> int:
        return len(self.added) + len(self.changed) + len(self.unchanged)

    @property
    def identical(self) -> bool:
        return not (self.added or self.removed or self.changed)

    @property
    def structural_edits(self) -> int:
        """Ops that exist on only one side (added + removed)."""
        return len(self.added) + len(self.removed)

    @property
    def structural_ratio(self) -> float:
        """Structural edits relative to the larger graph (0.0 = same
        op set, possibly reshaped)."""
        denom = max(self.base_size, self.target_size)
        if denom == 0:
            return 0.0
        return self.structural_edits / denom

    def is_warm_startable(self, max_ratio: float = DEFAULT_WARM_RATIO) -> bool:
        """Should a strategy for the base graph seed search on the target?

        True when both graphs are non-empty and the structural-edit
        ratio stays under ``max_ratio``.  Pure reshape deltas (batch
        changed: everything ``changed``, nothing added/removed) pass at
        ratio 0.0 — the cached split list's op names all still resolve.
        """
        if self.base_size == 0 or self.target_size == 0:
            return False
        return self.structural_ratio <= max_ratio

    def summary(self) -> str:
        return (
            f"+{len(self.added)} -{len(self.removed)} "
            f"~{len(self.changed)} ={len(self.unchanged)} "
            f"(structural ratio {self.structural_ratio:.2f})"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "changed": list(self.changed),
            "unchanged": len(self.unchanged),
            "structural_ratio": self.structural_ratio,
        }


def diff_signatures(
    base: Dict[str, str], target: Dict[str, str]
) -> GraphDelta:
    """Delta between two :func:`graph_signature` maps.

    This is the form the strategy store uses: cached entries persist
    their signature map, so a candidate request diffs against every
    stored entry without materializing any historical graph.
    """
    delta = GraphDelta()
    for name, digest in target.items():
        have = base.get(name)
        if have is None:
            delta.added.append(name)
        elif have == digest:
            delta.unchanged.append(name)
        else:
            delta.changed.append(name)
    for name in base:
        if name not in target:
            delta.removed.append(name)
    delta.added.sort()
    delta.removed.sort()
    delta.changed.sort()
    delta.unchanged.sort()
    return delta


def diff_graphs(base, target) -> GraphDelta:
    """Delta between two live graphs (convenience over signatures)."""
    return diff_signatures(graph_signature(base), graph_signature(target))
