"""Name-keyed list scheduler of Alg. 1, kept as an oracle for DPOS.

A direct transcription of DPOS's rules over op and device names:
upward ranks, the critical path, the placement sequence (decreasing
rank, critical-path op first among equals, then canonical topological
index), the critical-path device (smallest average critical-path time),
and earliest-finish-time placement that scans each device's busy
intervals one by one for the first idle slot that fits.  It leaves out
what the property tests' random DAGs never exercise: colocation groups,
planning-memory limits and provenance.  The name-keyed rank helpers
below (:func:`compute_ranks`, :func:`critical_path`, :func:`rank_order`)
are tested on their own in ``test_ranks.py``.
"""

from bisect import bisect_left, bisect_right

from repro.core.ranks import max_rank_chain


def compute_ranks(graph, weight, comm, order=None):
    """Upward rank of every op, via one reverse-topological sweep.

    ``rank_u(o_i) = w_i + max_{o_j in succ(o_i)} (c_ij + rank_u(o_j))``
    with ``weight(op)`` as ``w_i`` and ``comm(src, dst)`` as ``c_ij``;
    an exit op's rank is its weight.  ``order`` is any topological order.
    """
    if order is None:
        order = graph.topological_order()
    ranks = {}
    for op in reversed(order):
        tail = None
        for succ in graph.successors(op):
            value = comm(op, succ) + ranks[succ.name]
            if tail is None or value > tail:
                tail = value
        ranks[op.name] = weight(op) if tail is None else weight(op) + tail
    return ranks


def critical_path(graph, ranks):
    """The max-rank chain from the max-rank entry op to an exit op.

    Ties break by op name, so the path is a pure function of the graph.
    """
    return max_rank_chain(
        graph.entry_ops(), graph.successors, lambda op: (ranks[op.name], op.name)
    )


def rank_order(graph, ranks):
    """Op names by decreasing rank, ties by topological index.

    Ties break by topological index so that predecessors are placed
    before their successors.  DPOS's own placement sequence differs on
    ties: among equal ranks it places the critical-path op first.
    """
    topo_index = {op.name: i for i, op in enumerate(graph.topological_order())}
    return sorted(ranks, key=lambda name: (-ranks[name], topo_index[name]))


def _earliest_slot(starts, ends, ready, duration, insertion):
    if not starts:
        return ready
    if not insertion:
        return max(ends[-1], ready)
    est = ready
    for j in range(bisect_left(ends, ready), len(starts)):
        if est + duration <= starts[j]:
            return est
        est = max(est, ends[j])
    return est


def reference_schedule(graph, devices, computation, communication, insertion=True):
    """(placement, start times, finish times, ranks, critical path)."""
    pairs = [(a, b) for a in devices for b in devices if a != b]
    topo = graph.topological_order(canonical=True)
    ranks = compute_ranks(
        graph,
        lambda op: max(computation.time(op, d) for d in devices),
        lambda src, dst: communication.max_time(graph.edge_bytes(src, dst), pairs),
        order=topo,
    )
    path = critical_path(graph, ranks)
    on_path = {op.name for op in path}
    sequence = sorted(topo, key=lambda op: (-ranks[op.name], op.name not in on_path))

    def average(device):
        total = 0.0
        for op in path:
            total += computation.time(op, device)
        return total / len(path)

    cp_device = min(devices, key=lambda d: (average(d), devices.index(d)))
    busy = {d: ([], []) for d in devices}
    placement, start_times, finish_times = {}, {}, {}
    for op in sequence:
        best = None
        for device in [cp_device] if op.name in on_path else devices:
            ready = 0.0
            for pred in graph.predecessors(op):
                if pred.name in placement:
                    arrival = finish_times[pred.name]
                    if placement[pred.name] != device:
                        arrival += communication.time(
                            placement[pred.name], device,
                            graph.edge_bytes(pred, op),
                        )
                    ready = max(ready, arrival)
            duration = computation.time(op, device)
            est = _earliest_slot(*busy[device], ready, duration, insertion)
            if best is None or est + duration < best[0]:
                best = (est + duration, device, est)
        finish, device, start = best
        starts, ends = busy[device]
        slot = bisect_right(ends, start)
        starts.insert(slot, start)
        ends.insert(slot, finish)
        placement[op.name] = device
        start_times[op.name] = start
        finish_times[op.name] = finish
    return placement, start_times, finish_times, ranks, [op.name for op in path]
