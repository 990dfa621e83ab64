"""Critical paths (Sec. 5.1, Operation Prioritization).

``rank_u(o_i) = w_i + max_{o_j in succ(o_i)} (c_ij + rank_u(o_j))``

where ``w_i`` is the op's execution-time estimate and ``c_ij`` the
transmission time of the tensor(s) from ``o_i`` to ``o_j``.  The rank of
an exit op is its ``w``.  DPOS and OS-DPOS compute ranks over their own
op ids; both take the critical path as the greedy max-rank chain from
the max-rank entry op.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def max_rank_chain(
    entries: Sequence[T], successors: Callable[[T], Sequence[T]], key
) -> List[T]:
    """The max-rank chain from the max-rank entry to an exit node.

    This follows the paper: select the entry (the highest-ranked one,
    which heads the overall critical path), then repeatedly step to the
    successor with the largest rank.  ``key`` orders nodes by (rank,
    name), so ties break by name and the path is a pure function of the
    graph's content.
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
