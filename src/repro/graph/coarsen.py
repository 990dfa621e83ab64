"""Graph coarsening: contract clusters of ops into super-ops for search.

Transformer-scale graphs (100k+ ops) make the per-op DPOS sweep and the
per-candidate OS-DPOS evaluations the wall.  Following the
contraction-based placement literature (Tarnawski et al.; PaSE's
repeated-block exploitation), this module shrinks the *search* graph —
never the executed one — by contracting clusters of operations into
single ``SuperOp`` nodes whose aggregate costs are exact:

* compute: a super-op's time on a device is the **sum** of its members'
  times there (members are colocated and run serially on the device),
  served by :class:`SuperComputationModel` with a fingerprint-keyed memo;
* memory: ``persistent_bytes`` of the super-op equals the sum of member
  ``persistent_bytes`` exactly (the spec's ``param_bytes`` compensates
  for the boundary outputs the coarse node exposes);
* transfer: coarse edges carry the fine boundary tensors with their
  original shapes/dtypes, so coarse ``edge_bytes`` prices exactly the
  distinct tensor volume crossing the cut.

Contraction is lossless: :class:`CoarsePlan` maps every fine op to its
coarse node, so a coarse placement expands to a complete fine placement
(members inherit the super-op's device) and coarse provenance decisions
expand to per-op explanations.

Cycle safety
------------
Clusters are grown in three provably acyclic stages:

1. **Safe merge** (topo order): op ``v`` joins cluster ``C`` iff *every*
   predecessor of ``v`` is already in ``C``.  Any path into ``v`` then
   enters through ``C``, so contracting cannot create a cycle.  A
   corollary used below: every cross-cluster edge enters its target
   cluster at the cluster's *root* (first member), so sorting clusters
   by root topological index is a topological order of the condensation.
2. **Source absorption**: a singleton cluster holding a zero-in-degree
   op (``Variable``/``Placeholder`` feeds) is absorbed into the single
   cluster that consumes all of it.  This removes cross edges and adds
   none, and absorbed sources have no cross-cluster out-edges, so the
   root-index order stays valid.
3. **Interval packing**: consecutive runs of the condensation
   topological order are packed into at most ``target`` intervals.
   Cross-interval edges only point forward in that order, so the packed
   graph is acyclic by construction.  This is what actually compresses
   training graphs: forward/backward pairs of one layer can never share
   a stage-1 cluster (that would close a condensation cycle through the
   loss), but as consecutive intervals they pack freely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Graph
from .ops import Operation, OpSpec, UnknownOpTypeError, get_spec, register_op

SUPER_OP_TYPE = "SuperOp"

#: Coarse nodes are named ``super:<root member>`` — deterministic and
#: collision-free because fine op names never contain ``super:``-prefixed
#: duplicates of themselves and the root member is unique per cluster.
_SUPER_PREFIX = "super:"


class SuperOpSpec(OpSpec):
    """Spec of a contracted cluster; all behaviour is attrs-driven.

    Attrs (written by :func:`contract_graph`):
        ``_super_output_shapes`` / ``_super_output_dtypes``: the boundary
            tensors, preserving fine shapes so coarse edges price exactly.
        ``_super_flops`` / ``_super_bytes_accessed``: exact member sums.
        ``_super_param_bytes``: member ``persistent_bytes`` sum minus the
            boundary output bytes, so the coarse node's
            ``persistent_bytes`` (param + outputs) equals the member sum.
        ``_super_members``: member fine-op names in topological order.
        ``_super_fingerprint``: content hash keying aggregate-cost memos.
    """

    type_name = SUPER_OP_TYPE

    def infer_shapes(self, inputs, attrs):
        return [tuple(int(d) for d in s) for s in attrs["_super_output_shapes"]]

    def output_dtypes(self, inputs, attrs):
        return list(attrs["_super_output_dtypes"])

    def flops(self, op):
        return float(op.attrs.get("_super_flops", 0.0))

    def bytes_accessed(self, op):
        return int(op.attrs.get("_super_bytes_accessed", 0))

    def param_bytes(self, op):
        return int(op.attrs.get("_super_param_bytes", 0))


# The registry refuses duplicates; reloading this module (or a second
# import path) must not blow up.
try:
    get_spec(SUPER_OP_TYPE)
except UnknownOpTypeError:
    register_op(SuperOpSpec)


@dataclass
class CoarsePlan:
    """A contraction of ``fine`` into ``coarse`` with its expand mapping."""

    fine: Graph
    coarse: Graph
    #: Coarse op name -> fine member names in fine topological order.
    #: Singleton clusters appear too (their coarse op keeps the fine name).
    members: Dict[str, List[str]]
    #: Fine op name -> coarse op name (total over the fine graph).
    op_to_coarse: Dict[str, str]
    #: Coarse SuperOp name -> member Operation objects (cost aggregation).
    member_ops: Dict[str, List[Operation]] = field(default_factory=dict)

    @property
    def super_ops(self) -> Dict[str, List[str]]:
        """Only the genuinely contracted (multi-member) clusters."""
        return {
            name: list(m) for name, m in self.members.items() if len(m) > 1
        }

    def expand_placement(
        self, coarse_placement: Dict[str, str]
    ) -> Dict[str, str]:
        """Fine placement: every member inherits its super-op's device."""
        return {
            op_name: coarse_placement[coarse_name]
            for op_name, coarse_name in self.op_to_coarse.items()
        }

    def expand_order(self, coarse_order: Sequence[str]) -> List[str]:
        """Fine execution order: coarse order with members expanded.

        Members are emitted in fine topological order, which is
        dependency-consistent because intra-cluster edges follow it and
        cross-cluster edges respect the coarse order.
        """
        out: List[str] = []
        for coarse_name in coarse_order:
            out.extend(self.members[coarse_name])
        return out


def _fingerprint(member_ops: Sequence[Operation]) -> str:
    """Content hash of a cluster, keying aggregate-cost memoization.

    Includes member names: two clusters with identical structure but
    different members are distinct memo entries, so a memo can be shared
    across re-contractions of the same (frozen-cost-model) search.
    """
    h = hashlib.sha1()
    for op in member_ops:
        h.update(repr((
            op.name,
            op.op_type,
            sorted((k, repr(v)) for k, v in op.attrs.items()),
            [(t.name, t.shape, t.dtype) for t in op.inputs],
            [(t.shape, t.dtype) for t in op.outputs],
        )).encode())
    return h.hexdigest()


def _safe_merge(
    order: Sequence[Operation], graph: Graph
) -> Tuple[Dict[str, int], List[List[Operation]]]:
    """Stage 1+2: greedy predecessor-closure merge, then source absorption.

    Returns ``(cluster_of, clusters)`` where clusters are in condensation
    topological order (root topological index order) and each cluster
    lists members in fine topological order.
    """
    cluster_of: Dict[str, int] = {}
    clusters: List[List[Operation]] = []
    for op in order:
        preds = graph.predecessors(op)
        if preds:
            pred_clusters = {cluster_of[p.name] for p in preds}
            if len(pred_clusters) == 1:
                cid = next(iter(pred_clusters))
                cluster_of[op.name] = cid
                clusters[cid].append(op)
                continue
        cluster_of[op.name] = len(clusters)
        clusters.append([op])

    # Source absorption: a singleton zero-in-degree cluster whose
    # consumers all live in one cluster joins it.  Sources have no
    # in-edges and, once absorbed, no cross-cluster out-edges, so the
    # condensation order of the remaining roots is untouched.
    topo_index = {op.name: i for i, op in enumerate(order)}
    for cid, members in enumerate(clusters):
        if len(members) != 1 or members[0].inputs:
            continue
        src = members[0]
        consumer_clusters = {
            cluster_of[succ.name] for succ in graph.successors(src)
        }
        if len(consumer_clusters) == 1:
            target = next(iter(consumer_clusters))
            if target != cid:
                cluster_of[src.name] = target
                clusters[target].append(src)
                clusters[cid] = []
    merged = [
        sorted(c, key=lambda o: topo_index[o.name]) for c in clusters if c
    ]
    cluster_of = {
        op.name: i for i, c in enumerate(merged) for op in c
    }
    return cluster_of, merged


def _pack_intervals(
    clusters: List[List[Operation]], target: int
) -> List[List[Operation]]:
    """Stage 3: pack consecutive clusters into at most ``target`` intervals,
    balancing fine-op counts."""
    if len(clusters) <= target:
        return clusters
    total = sum(len(c) for c in clusters)
    goal = total / target
    packed: List[List[Operation]] = []
    current: List[Operation] = []
    remaining_clusters = len(clusters)
    for cluster in clusters:
        remaining_slots = target - len(packed) - 1
        # Never leave fewer clusters than open slots behind.
        if current and (
            len(current) >= goal or remaining_clusters <= remaining_slots
        ):
            packed.append(current)
            current = []
        current.extend(cluster)
        remaining_clusters -= 1
    if current:
        packed.append(current)
    return packed


def contract_graph(
    graph: Graph, target: int = 256, events=None
) -> CoarsePlan:
    """Contract ``graph`` into at most roughly ``target`` coarse nodes.

    The fine graph is never mutated.  Singleton clusters are rebuilt
    verbatim (same name, type, attrs); multi-member clusters become
    ``SuperOp`` nodes named ``super:<root member>`` whose aggregate
    attrs are exact (see module docstring).  Colocation constraints are
    lifted conservatively: clusters touching the same fine colocation
    group share a coarse group, which can over-constrain but never
    violates a fine constraint.

    ``events`` optionally takes an :class:`~repro.obs.events.EventBus`;
    an enabled bus receives one ``graph.coarsen`` span whose finish
    carries the cluster counts after merging (``merged``) and packing
    (``packed``) and the ``coarse_ops`` count (contraction never
    changes).
    """
    if target < 1:
        raise ValueError("coarsen target must be >= 1")
    if events is None:
        # Imported here: repro.obs imports the graph package.
        from ..obs.events import NULL_EVENTS as events
    with events.span(
        "graph.coarsen", graph=graph.name, ops=graph.num_ops, target=target
    ) as span:
        plan = _contract(graph, target, span)
        span.set(coarse_ops=plan.coarse.num_ops)
    return plan


def _contract(graph: Graph, target: int, span) -> CoarsePlan:
    order = graph.topological_order(canonical=True)
    topo_index = {op.name: i for i, op in enumerate(order)}
    _, clusters = _safe_merge(order, graph)
    span.set(merged=len(clusters))
    clusters = _pack_intervals(clusters, target)
    span.set(packed=len(clusters))
    for c in clusters:
        c.sort(key=lambda o: topo_index[o.name])

    cluster_of: Dict[str, int] = {
        op.name: i for i, c in enumerate(clusters) for op in c
    }

    # Lift colocation groups: union clusters through shared fine groups.
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    group_cluster: Dict[str, int] = {}
    for op in order:
        g = op.colocation_group
        if g is None:
            continue
        cid = cluster_of[op.name]
        if g in group_cluster:
            union(group_cluster[g], cid)
        else:
            group_cluster[g] = cid
    coarse_group: Dict[int, Optional[str]] = {}
    for g, cid in sorted(group_cluster.items()):
        root = find(cid)
        # Every cluster in the union shares the lexicographically first
        # fine group name that reached the union's root.
        coarse_group.setdefault(root, g)

    coarse = Graph(f"{graph.name}:coarse")
    members: Dict[str, List[str]] = {}
    op_to_coarse: Dict[str, str] = {}
    member_ops: Dict[str, List[Operation]] = {}
    # fine tensor name -> coarse tensor (for boundary rewiring)
    tensor_map: Dict[str, object] = {}

    for cid, cluster in enumerate(clusters):
        member_names = {op.name for op in cluster}
        group = coarse_group.get(find(cid))
        if len(cluster) == 1:
            op = cluster[0]
            # Input slots verbatim (duplicates included) so shape
            # inference and edge pricing match the fine op exactly.
            inputs = [tensor_map[t.name] for t in op.inputs]
            clone = coarse.create_op(
                op.op_type, op.name,
                inputs,
                attrs=dict(op.attrs),
                colocation_group=group
                if group is not None else op.colocation_group,
            )
            for fine_t, coarse_t in zip(op.outputs, clone.outputs):
                tensor_map[fine_t.name] = coarse_t
            members[op.name] = [op.name]
            op_to_coarse[op.name] = op.name
            continue

        name = _SUPER_PREFIX + cluster[0].name
        # Boundary inputs: distinct external tensors, first-use order.
        inputs = []
        seen = set()
        for op in cluster:
            for t in op.inputs:
                prod = t.producer
                internal = prod is not None and prod.name in member_names
                if not internal and t.name not in seen:
                    seen.add(t.name)
                    inputs.append(tensor_map[t.name])
        # Boundary outputs: member tensors consumed outside the cluster,
        # producer topological order then output index.
        boundary = []
        for op in cluster:
            for t in op.outputs:
                for consumer, _ in graph.consumers(t):
                    if consumer.name not in member_names:
                        boundary.append(t)
                        break
        flops = 0.0
        bytes_accessed = 0
        persistent = 0
        for op in cluster:
            flops += op.flops
            bytes_accessed += op.bytes_accessed
            persistent += op.persistent_bytes
        boundary_bytes = sum(t.size_bytes for t in boundary)
        attrs = {
            "_super_output_shapes": [t.shape for t in boundary],
            "_super_output_dtypes": [t.dtype for t in boundary],
            "_super_flops": flops,
            "_super_bytes_accessed": bytes_accessed,
            "_super_param_bytes": persistent - boundary_bytes,
            "_super_members": [op.name for op in cluster],
            "_super_fingerprint": _fingerprint(cluster),
        }
        clone = coarse.create_op(
            SUPER_OP_TYPE, name, inputs, attrs=attrs, colocation_group=group
        )
        for fine_t, coarse_t in zip(boundary, clone.outputs):
            tensor_map[fine_t.name] = coarse_t
        members[name] = [op.name for op in cluster]
        member_ops[name] = list(cluster)
        for op in cluster:
            op_to_coarse[op.name] = name

    return CoarsePlan(
        fine=graph,
        coarse=coarse,
        members=members,
        op_to_coarse=op_to_coarse,
        member_ops=member_ops,
    )


class SuperComputationModel:
    """Computation cost model over a coarse graph.

    Super-ops cost the sum of their members' times on the device (they
    are colocated and execute serially); every other op passes through to
    the base model.  Aggregates are memoized by ``(fingerprint, device)``
    in a dict the caller may share across re-contractions of one search —
    valid because cost models are frozen while a search runs and the
    fingerprint covers member identity and structure.
    """

    def __init__(
        self,
        base,
        plan: CoarsePlan,
        memo: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> None:
        self.base = base
        self.plan = plan
        self._memo: Dict[Tuple[str, str], float] = (
            memo if memo is not None else {}
        )

    def time(self, op: Operation, device: str) -> float:
        fingerprint = op.attrs.get("_super_fingerprint")
        if fingerprint is None:
            return self.base.time(op, device)
        key = (fingerprint, device)
        value = self._memo.get(key)
        if value is None:
            value = sum(
                self.base.time(member, device)
                for member in self.plan.member_ops[op.name]
            )
            self._memo[key] = value
        return value

    def max_time(self, op: Operation, devices: Sequence[str]) -> float:
        return max(self.time(op, d) for d in devices)
