"""Strategy-service gate — warm-start re-optimization must beat cold.

Exercises the three answer paths of :mod:`repro.serve` end to end and
pins their ordering:

* **cold** — a fresh service searches a never-seen problem;
* **cache** — the identical repeat is answered from the strategy store
  without searching (orders of magnitude faster);
* **warm** — the *same edited problem* (batch doubled) is re-optimized
  seeded from the cached strategy, and must be faster than the same
  edit searched cold by a fresh service.

The makespan of each searched answer — the cold base request, the warm
edit and the cold edit — is pinned exactly (``step_time_pins.json``).

Each trial also scrapes the service's own Prometheus exposition: the
latency-histogram ``_count`` must equal the stats request total (the
same invariant the CI serve-smoke curls for), and the reported p50/p95
join the printed table so latency drift is visible across runs.
"""

from __future__ import annotations

import time

from conftest import StepTimePins, export_rows, models_under_test

from repro.obs.prometheus import parse_prometheus, sample_value
from repro.serve import StrategyService, StrategyStore
from repro.serve.top import LATENCY_FAMILY, quantile_from_samples

MODELS = ("lenet", "alexnet")
TOPOLOGY = "pcie:2"
BASE_BATCH = 64
EDITED_BATCH = 128
#: Runs per timed answer; the fastest counts.
REPEATS = 3
PINS = StepTimePins(__file__)

CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 4},
}


def _fresh_service() -> StrategyService:
    # Memory-only stores: each trial controls exactly what is cached.
    return StrategyService(store=StrategyStore(persist=False, capacity=16))


def _timed_submit(service, model, batch):
    start = time.perf_counter()
    response = service.submit({
        "model": model, "topology": TOPOLOGY,
        "global_batch": batch, "config": CONFIG,
    })
    return response, time.perf_counter() - start


def run_serve_trial(model):
    """Each timed answer is the fastest of ``REPEATS`` runs, each on a
    fresh service: one ~20 ms timing per side is too noisy to order
    warm against cold.  The responses, stats and exposition are the
    first run's; every run must answer the same."""
    runs = []
    for _ in range(REPEATS):
        primed = _fresh_service()
        cold_base = _timed_submit(primed, model, BASE_BATCH)
        cached = _timed_submit(primed, model, BASE_BATCH)
        warm = _timed_submit(primed, model, EDITED_BATCH)
        # The same edited problem, searched cold by a service with an
        # empty store — the baseline the warm path must beat.
        cold_edit = _timed_submit(_fresh_service(), model, EDITED_BATCH)
        runs.append((primed, cold_base, cached, warm, cold_edit))

    def fastest(side):
        answers = [run[side] for run in runs]
        first = answers[0][0]
        for response, _ in answers[1:]:
            assert (response["source"], response["makespan"]) == (
                first["source"], first["makespan"]
            ), (model, side, response, first)
        return first, min(seconds for _, seconds in answers)

    primed = runs[0][0]
    return {
        "model": model,
        "cold": fastest(1),
        "cache": fastest(2),
        "warm": fastest(3),
        "cold_edit": fastest(4),
        "stats": primed.stats,
        "exposition": primed.metrics_document(),
    }


def test_serve_warm_start_beats_cold(benchmark):
    trials = benchmark.pedantic(
        lambda: [run_serve_trial(m) for m in models_under_test(MODELS)],
        rounds=1, iterations=1,
    )
    headers = ["Model", "Cold s", "Cache s", "Warm s", "Cold-edit s",
               "Warm speedup", "Warm source", "p50 s", "p95 s"]
    rows = []
    print()
    for trial in trials:
        model = trial["model"]
        _, t_cold = trial["cold"]
        cached, t_cache = trial["cache"]
        warm, t_warm = trial["warm"]
        cold_edit, t_cold_edit = trial["cold_edit"]
        speedup = t_cold_edit / t_warm if t_warm else float("inf")

        # The service's own exposition: latency quantiles for the
        # table, and the _count == requests invariant CI curls for.
        samples = parse_prometheus(trial["exposition"])
        p50 = quantile_from_samples(samples, 0.50)
        p95 = quantile_from_samples(samples, 0.95)
        latency_count = sample_value(samples, LATENCY_FAMILY + "_count")
        requests_total = sample_value(samples, "repro_serve_requests_total")

        rows.append([
            model, round(t_cold, 3), round(t_cache, 4), round(t_warm, 3),
            round(t_cold_edit, 3), round(speedup, 2), warm["source"],
            round(p50, 4) if p50 is not None else "?",
            round(p95, 4) if p95 is not None else "?",
        ])
        print(
            f"serve gate [{model}]: cold {t_cold:.3f}s, cache "
            f"{t_cache * 1e3:.1f}ms, warm {t_warm:.3f}s vs cold-edit "
            f"{t_cold_edit:.3f}s ({speedup:.2f}x), "
            f"latency p50 {p50:.4f}s p95 {p95:.4f}s"
        )
        for name, response in (
            ("coldbase", trial["cold"][0]),
            ("warmedit", warm),
            ("coldedit", cold_edit),
        ):
            PINS.check(f"{model}_serve_{name}_2x1", response["makespan"])

        stats = trial["stats"]
        # Exposition cross-check: the unlabeled latency histogram counts
        # every request exactly once, and the mirrored request counter
        # agrees with the stats object.
        assert latency_count == stats.requests, (latency_count, stats)
        assert requests_total == stats.requests, (requests_total, stats)
        # Counter-verified behavior, not just timing:
        assert cached["source"] == "cache", cached["source"]
        assert stats.hits == 1
        assert stats.warm_starts == 1
        # The repeat never re-ran search.
        assert stats.searches == 2  # cold + warm, not the cache hit
        # Cache answers are effectively instant next to any search.
        assert t_cache < t_cold / 2
        # Warm start on a one-knob edit beats searching the edit cold
        # (identical session-build overhead on both sides).
        if warm["source"] == "warm":
            assert t_warm < t_cold_edit, (
                f"warm start slower than cold search: "
                f"{t_warm:.3f}s >= {t_cold_edit:.3f}s"
            )
        # And produces a valid finite answer either way.
        assert warm["makespan"] < float("inf")
        assert cold_edit["makespan"] < float("inf")
    PINS.assert_complete()
    export_rows("serve", headers, rows)
