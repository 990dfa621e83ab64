"""Reentrancy contract of the SearchContext-based core.

The refactor's promise: N concurrent ``optimize()`` calls on distinct
contexts of one session produce byte-identical strategies to running
them one at a time — no shared mutable state leaks between requests.
"""

import threading

from repro.core import FastTConfig, FastTSession, SearchContext, SearchOptions

from tests.util import build_mlp


def _fast_config():
    return FastTConfig(
        profiling_steps=1, max_rounds=2, min_rounds=1, measure_steps=1,
        search=SearchOptions(max_candidate_ops=2),
    )


def _session(topo):
    return FastTSession(
        build_mlp, topo, global_batch=64, config=_fast_config(),
        model_name="ctx-mlp",
    )


def _essence(report):
    """The byte-comparable core of a calculation report."""
    return (
        sorted(report.strategy.placement.items()),
        list(report.strategy.order),
        [(d.op_name, d.dim, d.num_splits) for d in report.strategy.split_list],
        report.measured_time,
        report.strategy.label,
    )


class TestContextIsolation:
    def test_contexts_do_not_share_mutable_state(self, topo2):
        session = _session(topo2)
        a = session.new_context()
        b = session.new_context()
        assert a.computation is not b.computation
        assert a.communication is not b.communication
        assert a.perf_model is not b.perf_model
        assert a.predictions is not b.predictions
        # Same seed, own RNG stream: the replicas draw identically.
        assert a.perf_model.seed == b.perf_model.seed


class TestParallelEquivalence:
    def test_parallel_contexts_byte_identical_to_serial(self, topo2):
        session = _session(topo2)
        serial = session.optimize(context=session.new_context())
        baseline = _essence(serial)

        results = [None] * 4
        errors = []

        def worker(i):
            try:
                report = session.optimize(context=session.new_context())
                results[i] = _essence(report)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for essence in results:
            assert essence == baseline

    def test_repeated_context_runs_identical(self, topo2):
        session = _session(topo2)
        first = _essence(session.optimize(context=session.new_context()))
        second = _essence(session.optimize(context=session.new_context()))
        assert first == second

    def test_legacy_path_still_memoizes(self, topo2):
        session = _session(topo2)
        assert session.optimize() is session.optimize()

    def test_context_path_does_not_clobber_first_report(self, topo2):
        session = _session(topo2)
        legacy = session.optimize()
        # A later context run may legitimately differ (own RNG stream)
        # but must never replace the session's adopted report.
        session.optimize(context=session.new_context())
        assert session.optimize() is legacy


class TestContextCreation:
    def test_create_defaults(self, topo2):
        context = SearchContext.create(topo2)
        assert context.config is not None
        assert context.perf_model.topology is topo2
        assert context.warm_start is None

    def test_create_keeps_perf_model_instance(self, topo2, perf2):
        config = _fast_config()
        context = SearchContext.create(topo2, perf_model=perf2, config=config)
        assert context.perf_model is perf2
        assert context.config is config
