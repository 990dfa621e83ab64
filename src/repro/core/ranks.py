"""Upward ranks and critical paths (Sec. 5.1, Operation Prioritization).

``rank_u(o_i) = w_i + max_{o_j in succ(o_i)} (c_ij + rank_u(o_j))``

where ``w_i`` is the op's maximal execution time over devices and
``c_ij`` the maximal transmission time of the tensor(s) from ``o_i`` to
``o_j`` over device pairs.  The rank of an exit op is its ``w``.  Ranks
drive both the placement sequence (decreasing rank) and the critical
path (greedy max-rank chain from the max-rank entry op).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from ..graph import Graph, Operation

#: (op) -> execution-time estimate used as ``w_i``.
WeightFn = Callable[[Operation], float]
#: (src op, dst op) -> communication-time estimate used as ``c_ij``.
CommFn = Callable[[Operation, Operation], float]
T = TypeVar("T")


def compute_ranks(
    graph: Graph,
    weight: WeightFn,
    comm: CommFn,
    order: Optional[Sequence[Operation]] = None,
    successors: Optional[Callable[[Operation], List[Operation]]] = None,
) -> Dict[str, float]:
    """Upward rank of every op, via one reverse-topological sweep.

    ``order`` (any topological order) and ``successors`` may be supplied
    to reuse memoized traversal state; the resulting values are identical
    either way.
    """
    if order is None:
        order = graph.topological_order()
    successors_of = successors if successors is not None else graph.successors
    ranks: Dict[str, float] = {}
    for op in reversed(order):
        tail: Optional[float] = None
        for succ in successors_of(op):
            value = comm(op, succ) + ranks[succ.name]
            if tail is None or value > tail:
                tail = value
        ranks[op.name] = weight(op) if tail is None else weight(op) + tail
    return ranks


def critical_path(
    graph: Graph,
    ranks: Dict[str, float],
    successors: Optional[Callable[[Operation], List[Operation]]] = None,
) -> List[Operation]:
    """The max-rank chain from the max-rank entry op to an exit op.

    This follows the paper: select the entry operation (the highest-rank
    one, which heads the overall critical path), then repeatedly step to
    the successor with the largest rank.  Ties break by op name, so the
    path is a pure function of the graph's content.
    """
    return max_rank_chain(
        graph.entry_ops(),
        successors if successors is not None else graph.successors,
        lambda op: (ranks[op.name], op.name),
    )


def max_rank_chain(
    entries: Sequence[T], successors: Callable[[T], Sequence[T]], key
) -> List[T]:
    """:func:`critical_path` over any node type (DPOS passes op ids).

    ``key`` orders nodes by (rank, name); the chain starts at the entry
    with the largest key and steps to the successor with the largest.
    """
    if not entries:
        raise ValueError("graph has no entry operations")
    current = max(entries, key=key)
    path = [current]
    while True:
        succs = successors(current)
        if not succs:
            return path
        current = max(succs, key=key)
        path.append(current)


def rank_order(graph: Graph, ranks: Dict[str, float]) -> List[str]:
    """Op names by decreasing rank, ties by topological index.

    A parent's rank is >= any child's (weights and comm times are
    non-negative), but equality happens whenever unexplored costs are 0;
    ties therefore break by topological index so that predecessors are
    always placed before their successors (EFT needs predecessor finish
    times).  DPOS's placement sequence differs on ties: among equal
    ranks it places the critical-path op first, then goes by canonical
    topological index.
    """
    topo_index = {op.name: i for i, op in enumerate(graph.topological_order())}
    return sorted(ranks, key=lambda name: (-ranks[name], topo_index[name]))
