"""Public API surface: every ``__all__`` name resolves, and the
one-call :func:`repro.optimize` facade works end-to-end on a tiny model.
"""

import warnings

import pytest

import repro
from repro import (
    FastTConfig,
    MetricsSnapshot,
    Observability,
    OptimizeResult,
    SearchOptions,
    optimize,
    single_server,
)


class TestSurface:
    def test_every_all_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_key_entry_points_exported(self):
        for name in (
            "optimize",
            "OptimizeResult",
            "SearchOptions",
            "OSDPOSResult",
            "Observability",
            "MetricsSnapshot",
            "NULL_OBS",
            "FastTSession",
            "FastTConfig",
        ):
            assert name in repro.__all__, name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


def tiny_config():
    return FastTConfig(
        max_rounds=1,
        min_rounds=1,
        profiling_steps=1,
        search=SearchOptions(max_candidate_ops=2, split_counts=[2]),
    )


class TestOptimize:
    def test_by_model_name(self):
        result = optimize("lenet", single_server(2), config=tiny_config())
        assert isinstance(result, OptimizeResult)
        assert result.model_name == "lenet"
        assert result.num_devices == 2
        assert result.iteration_time > 0
        assert result.training_speed > 0
        assert set(result.strategy.placement.values()) <= set(
            single_server(2).device_names
        )
        assert "iteration" in result.summary()

    def test_metrics_come_from_obs_when_enabled(self):
        obs = Observability()
        result = optimize(
            "lenet", single_server(2), config=tiny_config(), obs=obs
        )
        assert isinstance(result.metrics, MetricsSnapshot)
        assert result.metrics.get("search.runs", 0) >= 1
        assert len(obs.trace.events) > 0

    def test_unknown_model_name_raises(self):
        with pytest.raises(KeyError):
            optimize("no-such-model", single_server(2))

    def test_callable_requires_global_batch(self):
        with pytest.raises(TypeError):
            optimize(lambda: None, single_server(2))


class TestConfigDeprecations:
    """The search knobs live only on ``FastTConfig.search``."""

    def test_flat_search_knobs_are_gone(self):
        with pytest.raises(TypeError):
            FastTConfig(naive_search=True)
        assert not hasattr(FastTConfig(), "max_candidate_ops")

    def test_new_style_config_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = FastTConfig(search=SearchOptions(coarsen=True))
            assert config.search.coarsen is True

    @pytest.mark.parametrize("option", [{"naive": True}, {"prune": False}])
    def test_removed_search_options_raise(self, option):
        with pytest.raises(TypeError):
            SearchOptions(**option)

    def test_search_options_rejects_positional_args(self):
        with pytest.raises(TypeError):
            SearchOptions(False)


class TestConfigChecks:
    """``FastTConfig`` checks its fields when it is built, on every path."""

    @pytest.mark.parametrize("option, error, message", [
        ({"profiling_steps": "abc"}, TypeError, "'profiling_steps' must be a int"),
        ({"max_rounds": 2.0}, TypeError, "'max_rounds' must be a int"),
        ({"measure_steps": True}, TypeError, "'measure_steps' must be a int"),
        ({"memory_fraction": "0.9"}, TypeError, "'memory_fraction' must be a float"),
        ({"enable_rollback": "no"}, TypeError, "'enable_rollback' must be a bool"),
        ({"enable_rollback": 1}, TypeError, "'enable_rollback' must be a bool"),
        ({"stability_tolerance": -1.0}, ValueError, "must be positive"),
        ({"stability_tolerance": 0}, ValueError, "must be positive"),
    ])
    def test_bad_field_fails_at_construction(self, option, error, message):
        with pytest.raises(error, match=message):
            FastTConfig(**option)

    def test_int_fills_a_float_field(self):
        assert FastTConfig(restart_overhead_seconds=1).restart_overhead_seconds == 1

    def test_replace_checks_too(self):
        import dataclasses

        with pytest.raises(TypeError, match="'max_rounds'"):
            dataclasses.replace(FastTConfig(), max_rounds="5")

    def test_bad_config_never_reaches_optimize(self):
        with pytest.raises(TypeError, match="'profiling_steps'"):
            optimize(
                "lenet", single_server(2),
                config=FastTConfig(profiling_steps="abc"),
            )


class TestObservabilitySurface:
    """``Observability`` takes only ``enabled``, ``metrics`` and ``provenance``."""

    @pytest.mark.parametrize("knob", [{"events": True}, {"tracer": None}])
    def test_removed_knobs_raise(self, knob):
        with pytest.raises(TypeError):
            Observability(**knob)

    def test_tracer_is_gone(self):
        import repro.obs

        for name in ("Tracer", "NullTracer", "NULL_TRACER", "export_tracer"):
            assert not hasattr(repro.obs, name), name
