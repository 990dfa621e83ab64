"""Overhead pin: telemetry must never change results, and must stay cheap.

Two properties the flight recorder promises (DESIGN.md §3.4):

1. **Byte-identical strategies.**  An enabled hook (its event bus, the
   Chrome-trace recorder on it, and a live subscriber) must not perturb
   the search: placement, execution order, and split list come out
   exactly equal to the events-off run.
2. **Bounded wall-clock overhead.**  The events-on optimize stays within
   a generous multiplicative budget of the events-off one.  The budget
   is deliberately loose (CI hosts are noisy); the real hot-loop
   guarantee is structural — engines check ``events.enabled`` before
   building payloads, and progress events are strided — and the
   strategy-identity check above would catch any behavioural leak.
"""

import time

import repro
from repro.cluster import single_server
from repro.obs import Observability


MODEL = "lenet"
DEVICES = 2

#: Events-on wall-clock may be at most this multiple of events-off.
OVERHEAD_BUDGET = 1.5


def optimize_once(obs):
    start = time.perf_counter()
    result = repro.optimize(MODEL, single_server(DEVICES), obs=obs)
    return result, time.perf_counter() - start


def strategy_tuple(result):
    strategy = result.strategy
    return (
        sorted(strategy.placement.items()),
        list(strategy.order),
        [repr(d) for d in strategy.split_list],
        strategy.label,
    )


def test_events_do_not_change_the_strategy_and_stay_cheap():
    # Warm shared caches (model registry, cost-model memos) so the two
    # timed runs see the same world.
    optimize_once(None)

    baseline, baseline_seconds = optimize_once(None)

    obs = Observability()
    counted = [0]

    def count(event):
        counted[0] += 1

    obs.events.subscribe(count)
    observed, observed_seconds = optimize_once(obs)

    # 1. the bus saw the run...
    assert counted[0] > 50
    # ...and changed nothing about the computed strategy.
    assert strategy_tuple(observed) == strategy_tuple(baseline)
    assert observed.iteration_time == baseline.iteration_time

    # 2. wall-clock overhead within budget (re-measure once on a noisy
    # host before failing).
    if observed_seconds > baseline_seconds * OVERHEAD_BUDGET:
        baseline2, baseline_seconds2 = optimize_once(None)
        observed2, observed_seconds2 = optimize_once(obs)
        assert min(observed_seconds, observed_seconds2) <= (
            max(baseline_seconds, baseline_seconds2) * OVERHEAD_BUDGET
        ), (
            f"events-on optimize took {observed_seconds:.3f}s / "
            f"{observed_seconds2:.3f}s vs events-off "
            f"{baseline_seconds:.3f}s / {baseline_seconds2:.3f}s "
            f"(budget {OVERHEAD_BUDGET}x)"
        )


def test_null_bus_costs_nothing_per_emit():
    # The disabled bus's emit is a constant-time no-op; hot loops
    # additionally skip payload construction via `events.enabled`.
    from repro.obs import NULL_EVENTS

    start = time.perf_counter()
    for i in range(100_000):
        NULL_EVENTS.emit("noop", index=i)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0  # ~microseconds each, generous CI margin
