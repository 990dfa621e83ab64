"""Checks of the benchmark itself, on the ``--smoke`` size of every workload.

Not part of the tier-1 suite; run it explicitly (about 30 s)::

    PYTHONPATH=src python3 -m pytest benchmarks/perf/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import job  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WORKLOADS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_declared_metrics(workload, trace):
    result = smoke_run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    # Self times of the traced pass: never negative, never above the parent.
    trace_file = HERE / "out" / f"{workload}.trace.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events
    by_id = {(e["pid"], e["args"]["id"]): e for e in events}
    covered = Counter()
    for event in events:
        if event["args"]["parent"] is not None:
            covered[(event["pid"], event["args"]["parent"])] += event["dur"]
    for key, event in by_id.items():
        own = event["dur"] - covered[key]
        assert own >= 0, event
        parent = event["args"]["parent"]
        if parent is not None:
            assert own <= by_id[(event["pid"], parent)]["dur"], event


@pytest.mark.parametrize("workload", workloads.SERVE_WORKLOADS)
@pytest.mark.parametrize("smoke", [True, False])
def test_seed_fixes_the_request_sequence(workload, smoke):
    first = workloads.serve_rounds(workload, 7, 0, smoke)
    assert first == workloads.serve_rounds(workload, 7, 0, smoke)
    other = workloads.serve_rounds(workload, 8, 0, smoke)
    assert first != other
    assert first != workloads.serve_rounds(workload, 7, 1, smoke)
    # Another seed asks for the same keys, in another order.
    assert {r for pair in first for r in pair} == {r for pair in other for r in pair}


def test_layer_totals_subtract_children():
    def span(i, parent, name, start, dur):
        return {"name": name, "pid": 1, "ts": start, "dur": dur,
                "args": {"id": i, "parent": parent, "job": "j"}}

    events = [
        span(0, None, "calculator.run", 0, 100),
        span(1, 0, "sim.step", 10, 30),
        span(2, 0, "search.dpos", 50, 20),
        span(3, 2, "sim.step", 55, 5),
    ]
    totals = layers.layer_totals(events)
    assert totals["calculator.run"] == {"calls": 1, "total_s": 1e-4, "self_s": 5e-5}
    assert totals["search.dpos"]["self_s"] == pytest.approx(15e-6)
    assert totals["sim.step"]["calls"] == 2
    assert totals["sim.step"]["self_s"] == pytest.approx(35e-6)


def test_strategy_checks_catch_broken_results():
    import repro

    result = repro.optimize("lenet", "pcie:2")
    assert job.check_result(result) == []

    def broken(**changes):
        strategy = SimpleNamespace(
            placement=dict(result.strategy.placement),
            order=list(result.strategy.order),
        )
        fields = dict(
            graph=result.graph, topology=result.topology,
            iteration_time=result.iteration_time, strategy=strategy,
        )
        fields.update(changes)
        return SimpleNamespace(**fields)

    placement = dict(result.strategy.placement)
    placement.pop(next(iter(placement)))
    assert job.check_result(broken(strategy=SimpleNamespace(placement=placement, order=[])))
    moved = {op: "/gpu:99" for op in result.strategy.placement}
    assert job.check_result(broken(strategy=SimpleNamespace(placement=moved, order=[])))
    backwards = [op.name for op in result.graph.topological_order()][::-1]
    assert job.check_result(broken(strategy=SimpleNamespace(
        placement=result.strategy.placement, order=backwards,
    )))
    assert job.check_result(broken(iteration_time=float("inf")))


def test_serve_checks_catch_inconsistent_answers():
    from repro.obs.prometheus import parse_prometheus

    def response(key, makespan, source):
        return {"status": "ok", "key": key, "makespan": makespan,
                "training_speed": 1.0, "source": source, "request_id": key}

    def scraped(requests):
        return parse_prometheus(
            f"repro_serve_requests_total {requests}\n"
            "repro_serve_request_latency_seconds_count 2\n"
        )

    scrape = scraped(2)
    good = run.Pass()
    run.check_responses(good, [
        (0, 0, 0.1, response("k", 1.0, "search"), None),
        (1, 0, 0.01, response("k", 1.0, "cache"), None),
    ], 2, scrape, {})
    assert good.errors == [] and good.hit_jobs == {"k"}

    stale = run.Pass()
    run.check_responses(stale, [
        (0, 0, 0.1, response("k", 1.0, "search"), None),
        (1, 0, 0.01, response("k", 2.0, "cache"), None),
    ], 2, scrape, {})
    assert len(stale.errors) == 1

    unstored = run.Pass()
    run.check_responses(unstored, [
        (0, 0, 0.01, response("k", 1.0, "cache"), None),
    ], 2, scraped(1), {})
    assert len(unstored.errors) == 2


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [12.0] * 4, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [8.0] * 4, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, [10.05] * 4, "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, [8.0] * 4, "higher", 0.1)[0] == "worse"
    noisy = [5.0, 10.0, 15.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
