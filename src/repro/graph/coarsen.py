"""Graph coarsening: contract clusters of ops into coarse nodes for search.

Transformer-scale graphs (100k+ ops) make the per-op DPOS sweep and the
per-candidate OS-DPOS evaluations the wall.  Following the
contraction-based placement literature (Tarnawski et al.; PaSE's
repeated-block exploitation), this module shrinks the *search* graph —
never the executed one — by contracting clusters of operations into
coarse nodes whose aggregate costs are exact:

* compute: a multi-member node's time on a device is the **sum** of its
  members' times there (members are colocated and run serially on the
  device), served by :class:`SuperComputationModel` with a memo keyed by
  the members' structure tokens;
* memory: a node's persistent bytes are the sum of its members'
  ``persistent_bytes`` exactly;
* transfer: a node's producer rows carry the bytes of the fine boundary
  tensors crossing into it, so coarse edges price exactly the distinct
  tensor volume crossing the cut.

A :class:`CoarsePlan` is one record per coarse node, by node id: its
name, its fine member ids, their structure tokens, its lifted
colocation group, its persistent bytes and its producer rows.  The
search reads these lists directly (no coarse ``Graph`` and no boundary
``Tensor`` is built), and the plan maps every fine op to its node, so a
coarse placement expands to a complete fine placement (members inherit
their node's device) and coarse provenance decisions expand to per-op
explanations.

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
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Graph
from .index import GraphIndex, successors_of
from .ops import Operation

#: Multi-member nodes are named ``super:<root member>`` — deterministic
#: and collision-free because fine op names never contain
#: ``super:``-prefixed duplicates of themselves and the root member is
#: unique per cluster.
_SUPER_PREFIX = "super:"

#: :class:`SuperComputationModel`'s memo: (structure tokens, device) ->
#: (time, the member times it sums).
SuperMemo = Dict[Tuple[tuple, str], Tuple[float, List[float]]]


@dataclass
class CoarsePlan:
    """A contraction of a graph: one record per coarse node, by node id.

    A plan stands in for a graph where the search's cost cache and DPOS
    read one: it has its ``name``, ``num_ops`` and a fixed ``version``,
    and is its own :meth:`index` (``names``, the producer rows
    ``pred_ptr`` / ``preds`` / ``pred_bytes``, :meth:`successors` and
    :meth:`op_costs`, as in :class:`~repro.graph.index.GraphIndex`).
    """

    #: The coarse graph's name.
    name: str
    #: The fine graph's index at contraction; member ids number its ops.
    fine_index: GraphIndex
    #: By coarse node id: name (a singleton keeps its op's name), fine
    #: member ids in topological order, the members' structure tokens
    #: (``None`` for a singleton), lifted colocation group and persistent
    #: bytes (the member sum).
    names: List[str]
    member_ids: List[List[int]]
    fingerprints: List[Optional[tuple]]
    groups: List[Optional[str]]
    persistent: List[int]
    #: Distinct producer nodes in input order, with the bytes of every
    #: boundary tensor each sends, in compressed sparse rows.
    pred_ptr: List[int]
    preds: List[int]
    pred_bytes: List[int]
    _successors: Optional[Tuple[List[int], List[int], List[int]]] = field(
        default=None, init=False, repr=False
    )

    #: A plan never changes, so it has one version.
    version = 0

    @property
    def num_ops(self) -> int:
        return len(self.names)

    def index(self) -> "CoarsePlan":
        return self

    def successors(self) -> Tuple[List[int], List[int], List[int]]:
        """``(succ_ptr, succs, succ_bytes)``: each node's distinct
        consumers by ascending id, with the bytes each receives."""
        if self._successors is None:
            size = len(self.names)
            ints = list(range(max(size, len(self.preds)) + 1))
            self._successors = successors_of(
                ints, self.pred_ptr, self.preds, self.pred_bytes, size
            )
        return self._successors

    def op_costs(self, computation: "SuperComputationModel", devices):
        """Per node, in id order: ``(times, persistent bytes, colocation
        group)``, the times from ``computation`` over this plan."""
        return zip(computation.rows(devices), self.persistent, self.groups)

    def expand_placement(
        self, coarse_placement: Dict[str, str]
    ) -> Dict[str, str]:
        """Fine placement: every member inherits its node's device."""
        names = self.fine_index.names
        placement: Dict[str, str] = {}
        for name, ids in zip(self.names, self.member_ids):
            device = coarse_placement[name]
            for i in ids:
                placement[names[i]] = device
        return placement

    def expand_order(self, coarse_order: Sequence[str]) -> List[str]:
        """Fine execution order: coarse order with members expanded.

        Members are emitted in fine topological order, which is
        dependency-consistent because intra-cluster edges follow it and
        cross-cluster edges respect the coarse order.
        """
        members = dict(zip(self.names, self.member_ids))
        names = self.fine_index.names
        return [names[i] for name in coarse_order for i in members[name]]


def _safe_merge(
    index: GraphIndex, order: List[int]
) -> Tuple[List[int], List[int]]:
    """Stage 1+2: greedy predecessor-closure merge, then source absorption.

    Works over ``index``'s op ids; ``order`` is its canonical order.
    Returns ``(cluster_of, sizes)``: each op id's cluster and each
    cluster's op count.  Cluster ids run in condensation topological
    order (root topological index order); a cluster whose source was
    absorbed is left empty.  Kept in flat lists of ints: a large graph
    has tens of thousands of clusters, and a list per cluster would give
    the garbage collector as many objects to track.
    """
    pred_ptr, preds = index.pred_ptr, index.preds
    cluster_of = [0] * len(order)  # by op id
    sizes: List[int] = []
    roots: List[int] = []
    for i in order:
        start, stop = pred_ptr[i], pred_ptr[i + 1]
        if start < stop:
            cid = cluster_of[preds[start]]
            for k in range(start + 1, stop):
                if cluster_of[preds[k]] != cid:
                    break
            else:
                cluster_of[i] = cid
                sizes[cid] += 1
                continue
        cluster_of[i] = len(sizes)
        sizes.append(1)
        roots.append(i)

    # Source absorption: a singleton zero-in-degree cluster whose
    # consumers all live in one cluster joins it.  Sources have no
    # in-edges and, once absorbed, no cross-cluster out-edges, so the
    # condensation order of the remaining roots is untouched.
    # A source's consumers are its output tensors' (consecutive in
    # cons_ids, an op once per tensor it reads).
    out_ptr, cons_ptr, cons_ids = index.out_ptr, index.cons_ptr, index.cons_ids
    for cid, src in enumerate(roots):
        if sizes[cid] != 1:
            continue
        start, stop = cons_ptr[out_ptr[src]], cons_ptr[out_ptr[src + 1]]
        if pred_ptr[src] != pred_ptr[src + 1] or start == stop:
            continue
        target = cluster_of[cons_ids[start]]
        if target != cid and all(
            cluster_of[cons_ids[k]] == target for k in range(start + 1, stop)
        ):
            cluster_of[src] = target
            sizes[target] += 1
            sizes[cid] = 0
    return cluster_of, sizes


def _pack_intervals(
    sizes: List[int], target: int
) -> Tuple[List[int], int]:
    """Stage 3: pack consecutive non-empty clusters into at most
    ``target`` intervals, balancing fine-op counts.  Returns each
    cluster's interval (an empty cluster's is meaningless) and the
    number of intervals."""
    live = [cid for cid, size in enumerate(sizes) if size]
    interval = [0] * len(sizes)
    if len(live) <= target:
        for k, cid in enumerate(live):
            interval[cid] = k
        return interval, len(live)
    goal = sum(sizes) / target
    packed = current = 0
    remaining_clusters = len(live)
    for cid in live:
        remaining_slots = target - packed - 1
        # Never leave fewer clusters than open slots behind.
        if current and (
            current >= goal or remaining_clusters <= remaining_slots
        ):
            packed += 1
            current = 0
        current += sizes[cid]
        interval[cid] = packed
        remaining_clusters -= 1
    return interval, packed + 1


def contract_graph(
    graph: Graph, target: int = 256, events=None
) -> CoarsePlan:
    """Contract ``graph`` into at most roughly ``target`` coarse nodes.

    The fine graph is never mutated.  A singleton cluster's node keeps
    its op's name and input slots; a multi-member cluster's node is
    named ``super:<root member>`` and reads the distinct tensors its
    members read from other clusters (see module docstring).  Colocation
    constraints are lifted conservatively: clusters touching the same
    fine colocation group share a coarse group, which can over-constrain
    but never violates a fine constraint.

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
        span.set(coarse_ops=plan.num_ops)
    return plan


def _contract(graph: Graph, target: int, span) -> CoarsePlan:
    index = graph.index()
    order = index.canonical_order()
    merged_of, sizes = _safe_merge(index, order)
    span.set(merged=len(sizes) - sizes.count(0))
    interval, packed = _pack_intervals(sizes, target)
    span.set(packed=packed)
    cluster_of = [interval[c] for c in merged_of]  # by op id
    clusters: List[List[int]] = [[] for _ in range(packed)]
    # Members in topological order.
    for i in order:
        clusters[cluster_of[i]].append(i)

    ops, names = index.ops, index.names
    groups = _lift_groups(ops, cluster_of, len(clusters))

    # One walk records what the coarse search reads: per node its name,
    # structure tokens and producer rows.
    node_names: List[str] = []
    fingerprints: List[Optional[tuple]] = []
    pred_ptr, preds, pred_bytes = [0], [], []
    fine_ptr, fine_preds, fine_bytes = (
        index.pred_ptr, index.preds, index.pred_bytes
    )
    in_ptr, in_ids = index.in_ptr, index.in_ids
    tensor_bytes = index.tensor_bytes
    source = [cluster_of[p] for p in index.producers]  # by tensor id
    counted = [-1] * len(source)  # the node that last counted a tensor
    for cid, cluster in enumerate(clusters):
        received: Dict[int, int] = {}
        if len(cluster) == 1:
            i = cluster[0]
            name = names[i]
            # Input slots verbatim, duplicates included, as the op reads.
            for k in range(fine_ptr[i], fine_ptr[i + 1]):
                p = cluster_of[fine_preds[k]]
                received[p] = received.get(p, 0) + fine_bytes[k]
            fingerprints.append(None)
        else:
            name = _SUPER_PREFIX + names[cluster[0]]
            # Boundary inputs: distinct external tensors, first-use order.
            for i in cluster:
                for t in in_ids[in_ptr[i]:in_ptr[i + 1]]:
                    p = source[t]
                    if p != cid and counted[t] != cid:
                        counted[t] = cid
                        received[p] = received.get(p, 0) + tensor_bytes[t]
            fingerprints.append(
                tuple([ops[i].structure_token for i in cluster])
            )
        node_names.append(name)
        preds += received
        pred_bytes += received.values()
        pred_ptr.append(len(preds))
    # Persistent bytes: the members' parameters and outputs.
    persistent = [0] * len(clusters)
    for cid, size in zip(source, tensor_bytes):
        persistent[cid] += size
    for cid, op in zip(cluster_of, ops):
        persistent[cid] += op.param_bytes

    return CoarsePlan(
        name=f"{graph.name}:coarse",
        fine_index=index,
        names=node_names,
        member_ids=clusters,
        fingerprints=fingerprints,
        groups=groups,
        persistent=persistent,
        pred_ptr=pred_ptr,
        preds=preds,
        pred_bytes=pred_bytes,
    )


def _lift_groups(
    ops: List[Operation], cluster_of: List[int], num_clusters: int
) -> List[Optional[str]]:
    """Each cluster's coarse colocation group: clusters are unioned
    through shared fine groups, and every cluster of a union takes the
    lexicographically first fine group name in it.  The result does not
    depend on the order the ops are read in."""
    parent = list(range(num_clusters))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    group_cluster: Dict[str, int] = {}
    grouped = [
        (g, cid)
        for g, cid in zip(map(attrgetter("colocation_group"), ops), cluster_of)
        if g is not None
    ]
    for g, cid in grouped:
        if g in group_cluster:
            union(group_cluster[g], cid)
        else:
            group_cluster[g] = cid
    coarse_group: Dict[int, str] = {}
    for g, cid in sorted(group_cluster.items()):
        coarse_group.setdefault(find(cid), g)
    return [coarse_group.get(find(cid)) for cid in range(num_clusters)]


class SuperComputationModel:
    """Computation cost model of a plan's coarse nodes.

    A multi-member node costs the sum of its members' times on the
    device (they are colocated and execute serially), added left to
    right in member order; a singleton costs its op's time in the base
    model.  Each sum is memoized with the member times it adds, by
    ``(fingerprint, device)``, the fingerprint being the node's members'
    structure tokens, in a dict the caller may share across
    re-contractions of one search — valid because cost models are frozen
    while a search runs and a member's token changes with its identity
    or inputs.

    :meth:`rows` prices every node of the plan, and :meth:`member_times`
    returns the member times a node's sum added.
    """

    def __init__(
        self,
        base,
        plan: CoarsePlan,
        memo: Optional[SuperMemo] = None,
    ) -> None:
        self.base = base
        self.plan = plan
        self._memo: SuperMemo = memo if memo is not None else {}

    def _node(self, node: int, device: str) -> Tuple[float, List[float]]:
        """Plan node ``node``'s time on ``device`` and its members' times."""
        plan = self.plan
        ops, ids = plan.fine_index.ops, plan.member_ids[node]
        fingerprint = plan.fingerprints[node]
        if fingerprint is None:
            value = self.base.time(ops[ids[0]], device)
            return value, [value]
        key = (fingerprint, device)
        entry = self._memo.get(key)
        if entry is None:
            time = self.base.time
            times = [time(ops[i], device) for i in ids]
            entry = self._memo[key] = (sum(times), times)
        return entry

    def rows(self, devices: Sequence[str]) -> List[List[float]]:
        """Per plan node, in id order: its time on each of ``devices``."""
        return [
            [self._node(node, d)[0] for d in devices]
            for node in range(len(self.plan.names))
        ]

    def member_times(self, node: int, device: str) -> List[float]:
        """Times on ``device`` of plan node ``node``'s members, in member
        order (memoized for a multi-member node)."""
        return self._node(node, device)[1]
