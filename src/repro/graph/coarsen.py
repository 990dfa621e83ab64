"""Graph coarsening: contract clusters of ops into super-ops for search.

Transformer-scale graphs (100k+ ops) make the per-op DPOS sweep and the
per-candidate OS-DPOS evaluations the wall.  Following the
contraction-based placement literature (Tarnawski et al.; PaSE's
repeated-block exploitation), this module shrinks the *search* graph —
never the executed one — by contracting clusters of operations into
single ``SuperOp`` nodes whose aggregate costs are exact:

* compute: a super-op's time on a device is the **sum** of its members'
  times there (members are colocated and run serially on the device),
  served by :class:`SuperComputationModel` with a memo keyed by the
  members' structure tokens;
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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Graph
from .index import GraphIndex
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
        ``_super_fingerprint``: the members' ``structure_token`` tuple,
            keying aggregate-cost memos.
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


def _safe_merge(index: GraphIndex, order: List[int]) -> List[List[int]]:
    """Stage 1+2: greedy predecessor-closure merge, then source absorption.

    Works over ``index``'s op ids; ``order`` is its canonical order.
    Returns the clusters in condensation topological order (root
    topological index order), each listing its members' positions in
    ``order``: ascending, then any absorbed source.
    """
    pred_ptr, preds = index.pred_ptr, index.preds
    cluster_of = [0] * len(order)  # by op id
    clusters: List[List[int]] = []
    for position, i in enumerate(order):
        start, stop = pred_ptr[i], pred_ptr[i + 1]
        if start < stop:
            cid = cluster_of[preds[start]]
            for k in range(start + 1, stop):
                if cluster_of[preds[k]] != cid:
                    break
            else:
                cluster_of[i] = cid
                clusters[cid].append(position)
                continue
        cluster_of[i] = len(clusters)
        clusters.append([position])

    # Source absorption: a singleton zero-in-degree cluster whose
    # consumers all live in one cluster joins it.  Sources have no
    # in-edges and, once absorbed, no cross-cluster out-edges, so the
    # condensation order of the remaining roots is untouched.
    succ_ptr, succs, _ = index.successors()
    for cid, members in enumerate(clusters):
        if len(members) != 1:
            continue
        src = order[members[0]]
        start, stop = succ_ptr[src], succ_ptr[src + 1]
        if pred_ptr[src] != pred_ptr[src + 1] or start == stop:
            continue
        target = cluster_of[succs[start]]
        if target != cid and all(
            cluster_of[succs[k]] == target for k in range(start + 1, stop)
        ):
            cluster_of[src] = target
            clusters[target].append(members[0])
            clusters[cid] = []
    return [c for c in clusters if c]


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
    index = graph.index()
    order = index.canonical_order()
    clusters = _safe_merge(index, order)
    span.set(merged=len(clusters))
    clusters = _pack_intervals(clusters, target)
    span.set(packed=len(clusters))
    # Positions -> op ids, members in topological order.
    clusters = [[order[p] for p in sorted(c)] for c in clusters]

    ops, names = index.ops, index.names
    cluster_of = [0] * len(ops)  # by op id
    for cid, c in enumerate(clusters):
        for i in c:
            cluster_of[i] = cid

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
    for i in order:
        g = ops[i].colocation_group
        if g is None:
            continue
        cid = cluster_of[i]
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
    in_ptr, in_ids, producers = index.in_ptr, index.in_ids, index.producers
    out_ptr, cons_ptr, cons_ids = index.out_ptr, index.cons_ptr, index.cons_ids
    tensor_names, tensor_bytes = index.tensor_names, index.tensor_bytes

    for cid, cluster in enumerate(clusters):
        group = coarse_group.get(find(cid))
        if len(cluster) == 1:
            op = ops[cluster[0]]
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

        name = _SUPER_PREFIX + names[cluster[0]]
        # Boundary inputs: distinct external tensors, first-use order.
        inputs = []
        seen = set()
        # Boundary outputs: member tensors consumed outside the cluster,
        # producer topological order then output index.
        boundary = []
        flops = 0.0
        bytes_accessed = 0
        # Member param bytes plus the outputs no other cluster reads: the
        # coarse node's persistent bytes then equal the member sum.
        param_bytes = 0
        for i in cluster:
            op = ops[i]
            for t in in_ids[in_ptr[i]:in_ptr[i + 1]]:
                if cluster_of[producers[t]] != cid and t not in seen:
                    seen.add(t)
                    inputs.append(tensor_map[tensor_names[t]])
            first = out_ptr[i]
            for t in range(first, out_ptr[i + 1]):
                for c in cons_ids[cons_ptr[t]:cons_ptr[t + 1]]:
                    if cluster_of[c] != cid:
                        boundary.append(op.outputs[t - first])
                        break
                else:
                    param_bytes += tensor_bytes[t]
            flops += op.flops
            bytes_accessed += op.bytes_accessed
            param_bytes += op.param_bytes
        member_names = [names[i] for i in cluster]
        attrs = {
            "_super_output_shapes": [t.shape for t in boundary],
            "_super_output_dtypes": [t.dtype for t in boundary],
            "_super_flops": flops,
            "_super_bytes_accessed": bytes_accessed,
            "_super_param_bytes": param_bytes,
            "_super_members": member_names,
            "_super_fingerprint": tuple(
                ops[i].structure_token for i in cluster
            ),
        }
        clone = coarse.create_op(
            SUPER_OP_TYPE, name, inputs, attrs=attrs, colocation_group=group
        )
        for fine_t, coarse_t in zip(boundary, clone.outputs):
            tensor_map[fine_t.name] = coarse_t
        members[name] = list(member_names)
        member_ops[name] = [ops[i] for i in cluster]
        for member in member_names:
            op_to_coarse[member] = name

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
    the base model.  Aggregates are memoized by ``(key, device)``, the
    key being the super-op's ``_super_fingerprint`` (its members'
    structure tokens), in a dict the caller may share across
    re-contractions of one search — valid because cost models are frozen
    while a search runs and a member's token changes with its identity or
    inputs.
    """

    def __init__(
        self,
        base,
        plan: CoarsePlan,
        memo: Optional[Dict[Tuple[tuple, str], float]] = None,
    ) -> None:
        self.base = base
        self.plan = plan
        self._memo: Dict[Tuple[tuple, str], float] = (
            memo if memo is not None else {}
        )

    def time(self, op: Operation, device: str) -> float:
        members = op.attrs.get("_super_fingerprint")
        if members is None:
            return self.base.time(op, device)
        key = (members, device)
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
