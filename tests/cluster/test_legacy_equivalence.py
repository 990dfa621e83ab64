"""Regression: the link-graph refactor preserves the two-tier world.

A bare device list, ``Topology(devices)``, builds a hub-and-spoke
two-tier link graph; these tests pin its equivalence to the presets —
same ``LinkSpec``s field for field, same uncontended transfer times, and
byte-identical strategies and simulated step times end-to-end.
"""

import pytest

from repro import FastTConfig, SearchOptions, optimize
from repro.cluster import (
    ETHERNET,
    NVLINK,
    Topology,
    make_devices,
    single_server,
    two_servers,
    two_tier_spec,
)


def _legacy(shape):
    """The pre-refactor spelling (defaults, so no deprecation warning)."""
    return Topology(make_devices(shape))


def _all_pairs(topo):
    for src in topo.device_names:
        for dst in topo.device_names:
            yield src, dst


@pytest.mark.parametrize(
    "shape,preset",
    [
        ([2], single_server(2)),
        ([4], single_server(4)),
        ([2, 2], two_servers(2)),
        ([4, 4], two_servers(4)),
    ],
    ids=["1x2", "1x4", "2x2", "2x4"],
)
class TestLinkEquivalence:
    def test_links_identical(self, shape, preset):
        legacy = _legacy(shape)
        for src, dst in _all_pairs(legacy):
            assert legacy.link(src, dst) == preset.link(src, dst)

    def test_transfer_times_identical(self, shape, preset):
        legacy = _legacy(shape)
        for src, dst in _all_pairs(legacy):
            for num_bytes in (1, 4096, 25_000_000):
                assert legacy.transfer_time(
                    src, dst, num_bytes
                ) == preset.transfer_time(src, dst, num_bytes)

    def test_pair_classes_partition_like_two_tiers(self, shape, preset):
        legacy = _legacy(shape)
        for src, dst in _all_pairs(legacy):
            a, b = legacy.device(src), legacy.device(dst)
            expected = (
                "local" if src == dst
                else NVLINK[0] if a.server == b.server
                else ETHERNET[0]
            )
            assert legacy.pair_class(src, dst) == expected
            assert preset.pair_class(src, dst) == expected


class TestExplicitTierValues:
    def test_custom_tier_tuples_resolve_exactly(self):
        intra = ("nvlink", 20e9, 4e-6)
        inter = ("ethernet", 5e9, 50e-6)
        topo = Topology(two_tier_spec(make_devices([2, 2]), intra, inter))
        same = topo.link("/server:0/gpu:0", "/server:0/gpu:1")
        assert (same.name, same.bandwidth, same.latency) == intra
        assert same.shared_channel == "nvlink:/server:0/gpu:0->*"
        cross = topo.link("/server:0/gpu:0", "/server:1/gpu:1")
        assert (cross.name, cross.bandwidth, cross.latency) == inter
        assert cross.shared_channel == "ethernet:s0->s1"


def _tiny_config():
    return FastTConfig(
        max_rounds=1,
        min_rounds=1,
        profiling_steps=1,
        search=SearchOptions(max_candidate_ops=2, split_counts=[2]),
    )


class TestEndToEndEquivalence:
    """Old-style topologies yield byte-identical optimization results."""

    def test_strategy_and_step_time_identical(self):
        old = optimize("lenet", _legacy([2]), config=_tiny_config())
        new = optimize("lenet", single_server(2), config=_tiny_config())
        assert old.strategy.placement == new.strategy.placement
        assert old.strategy.split_list == new.strategy.split_list
        assert old.iteration_time == new.iteration_time  # bit-exact
        assert old.training_speed == new.training_speed

    def test_two_server_strategy_identical(self):
        old = optimize("lenet", _legacy([2, 2]), config=_tiny_config())
        new = optimize("lenet", two_servers(2), config=_tiny_config())
        assert old.strategy.placement == new.strategy.placement
        assert old.iteration_time == new.iteration_time
