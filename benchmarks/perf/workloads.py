"""The benchmark's workloads and the inputs each one is given.

Nothing here imports ``repro``: inputs are plain data made from the
workload name and the seed, so the same seed always yields the same
requests, and the program under test receives only those requests.

Each serve pass draws a *fixed multiset* of requests; the seed only
chooses their order, their pairing, and which draws both clients send.
Every seed therefore asks for nearly the same work, while the
order-dependent behaviour (which round coalesces, which miss finds a
warm-start neighbour, what the LRU evicts) still varies.

The serve traffic is assumed, not measured.  No log of real strategy
requests exists to derive it from, and no public source gives one, so
every traffic parameter below marked *Assumed* was chosen to make the
layers its workload names do the work, and to fit several passes into
a run.  The mixes are provisional: once a log of real traffic, as
``python -m repro.serve serve --access-log FILE`` writes it, is part of
the repository, they should be derived from it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: (model, topology preset, global batch) — one optimization request.
Request = Tuple[str, str, int]
#: What the two lock-step clients send in one round.
Round = Tuple[Request, Request]

#: Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS: Dict[str, str] = {
    "zoo-pcie4": (
        "9 zoo models through repro.optimize on pcie:4, two search rounds; "
        "fine-grained DPOS does most of the work, no coarsening"
    ),
    "mlp40k-pcie4": (
        "one 39,602-op MLP through repro.optimize; simulation, cost-model "
        "fitting, graph building and coarsening do the work, DPOS little"
    ),
    "serve-hot": (
        "repro.serve over a filled store; ASSUMED mix, not measured: "
        "Zipf(1.1) keys, 1 draw in 10 doubles its batch, 1 round in 4 shared; "
        "hits, coalescing, session builds do the work"
    ),
    "serve-churn": (
        "repro.serve on an empty disk store; ASSUMED mix, not measured: "
        "36 rounds uniform over 48 keys, 4-entry LRU; search, warm starts and "
        "the disk tier do the work"
    ),
}

OPTIMIZE_WORKLOADS = ("zoo-pcie4", "mlp40k-pcie4")
SERVE_WORKLOADS = ("serve-hot", "serve-churn")

#: The bench-preset zoo: the paper's Table 1/4 model set.
ZOO_MODELS = (
    "inception_v3", "vgg19", "resnet200", "lenet", "alexnet",
    "gnmt", "rnnlm", "transformer", "bert_large",
)
#: Two search rounds instead of the default five: the same search per
#: round in a third of the time, so a run fits several passes.
ZOO_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1,
}

#: 3600 dense+relu layers x 11 training-graph ops + 2 = 39,602 ops: far
#: past the 5000-op coarsening threshold, and small enough for several
#: passes in a run.
MLP_LAYERS = 3600
#: Still above the 5000-op coarsening threshold, so smoke runs take the
#: same coarse search path.
MLP_SMOKE_LAYERS = 500
MLP_HIDDEN = 64
#: Below the device count, so the session skips data-parallel
#: replication and optimizes the model-parallel graph.
MLP_BATCH = 2

#: FastTConfig overrides of the large-graph path (as in
#: benchmarks/bench_scale.py): one profiling round and a coarse search
#: with few split candidates.
MLP_CONFIG = {
    "profiling_steps": 1, "max_rounds": 1, "min_rounds": 1,
    "measure_steps": 1,
    "search": {"coarsen": "auto", "max_candidate_ops": 2, "split_counts": [2]},
}

#: Config every served request carries: a short two-round search.
SERVE_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 4},
}

PRESETS = ("pcie:2", "pcie:4")

#: Bench-preset global batch of each served model.  Requests always name
#: their batch, so the inputs do not move if a preset default does.
BASE_BATCH = {
    "lenet": 256, "alexnet": 256, "vgg19": 64, "rnnlm": 64,
    "bert_large": 16, "inception_v3": 64,
}

HOT_MODELS = ("lenet", "alexnet", "vgg19", "rnnlm", "bert_large", "inception_v3")
#: Assumed: 320 requests, enough for 16 beyond the 95th percentile.
HOT_ROUNDS = 160
#: Assumed: a few keys take most requests, so most answers are hits.
HOT_ZIPF = 1.1
#: Assumed: one draw in ten of a key doubles its batch (a warm-start
#: candidate); only keys drawn at least ten times get such a variant.
HOT_DOUBLE_EVERY = 10
#: Large enough that the whole working set stays in memory.
HOT_CAPACITY = 64

CHURN_MODELS = ("lenet", "alexnet", "vgg19", "rnnlm")
#: Assumed: 36 rounds send 72 requests (63 draws) over 48 keys, so about
#: three in four wait on a search and the median latency sits well inside
#: the searches; up to three passes fit a run.
CHURN_ROUNDS = 36
#: Assumed: batches of 0.5x to 3x the base in steps of 0.5x, 6 per model
#: and preset.
CHURN_BATCH_STEPS = 6
#: Assumed: 48 keys against 4 LRU entries, a working set 12x the memory
#: tier, so most lookups go to disk.
CHURN_CAPACITY = 4

#: Assumed: a quarter of the rounds send one request from both clients.
SHARED_EVERY = 4
SMOKE_ROUNDS = 10


def optimize_jobs(workload: str, smoke: bool = False) -> List[Dict[str, object]]:
    """The ``repro.optimize`` calls of one pass, one child process each."""
    if workload == "zoo-pcie4":
        models = ("lenet",) if smoke else ZOO_MODELS
        return [
            {"name": m, "model": m, "topology": "pcie:4", "config": ZOO_CONFIG}
            for m in models
        ]
    if workload == "mlp40k-pcie4":
        layers = MLP_SMOKE_LAYERS if smoke else MLP_LAYERS
        return [{
            "name": f"mlp{layers}", "mlp_layers": layers,
            "mlp_hidden": MLP_HIDDEN, "topology": "pcie:4",
            "global_batch": MLP_BATCH, "config": MLP_CONFIG,
        }]
    raise KeyError(f"not an optimize workload: {workload!r}")


def serve_keys(workload: str, smoke: bool = False) -> List[Request]:
    """Every distinct base request a serve workload can send."""
    if workload == "serve-hot":
        models = ("lenet",) if smoke else HOT_MODELS
        return [(m, p, BASE_BATCH[m]) for m in models for p in PRESETS]
    if workload == "serve-churn":
        models = ("lenet",) if smoke else CHURN_MODELS
        return [
            (m, p, BASE_BATCH[m] * step // 2)
            for m in models for p in PRESETS
            for step in range(1, CHURN_BATCH_STEPS + 1)
        ]
    raise KeyError(f"not a serve workload: {workload!r}")


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` into integers proportional to ``weights``.

    Largest remainder; ties go to the earlier weight.
    """
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def serve_rounds(
    workload: str, seed: int, pass_index: int, smoke: bool = False
) -> List[Round]:
    """The lock-step rounds of one serve pass."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    keys = serve_keys(workload, smoke)
    rounds = SMOKE_ROUNDS if smoke else (
        HOT_ROUNDS if workload == "serve-hot" else CHURN_ROUNDS
    )
    shared = rounds // SHARED_EVERY
    total = shared + 2 * (rounds - shared)

    draws: List[Request] = []
    if workload == "serve-hot":
        weights = [1.0 / rank ** HOT_ZIPF for rank in range(1, len(keys) + 1)]
        for (model, preset, batch), count in zip(keys, apportion(total, weights)):
            doubled = count // HOT_DOUBLE_EVERY
            draws += [(model, preset, 2 * batch)] * doubled
            draws += [(model, preset, batch)] * (count - doubled)
    else:
        # Uniform: the seed breaks the ties of who gets the extra draws.
        rng.shuffle(keys)
        for key, count in zip(keys, apportion(total, [1.0] * len(keys))):
            draws += [key] * count
    rng.shuffle(draws)

    paired = draws[shared:]
    out: List[Round] = [(r, r) for r in draws[:shared]]
    out += [(paired[i], paired[i + 1]) for i in range(0, len(paired), 2)]
    rng.shuffle(out)
    return out
