"""Tests for the link-graph cluster model: specs, routes, presets.

Covers ClusterSpec validation and dict/JSON round-trips, route
resolution over every preset family, and hypothesis property tests
(route consistency, monotonicity of transfer time in bytes).
"""

import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    PCIE,
    ClusterSpec,
    LinkDef,
    Topology,
    WIRE,
    WIRE_BANDWIDTH,
    dgx,
    make_devices,
    mixed_server,
    multi_server,
    pcie_server,
    topology_from,
)


def _line(n=3):
    """A hand-written spec: n devices chained left-to-right and back."""
    devices = make_devices([n])
    links = []
    for i in range(n - 1):
        a, b = devices[i].name, devices[i + 1].name
        links.append(LinkDef(a, b, "pcie", 12e9, 1e-6))
        links.append(LinkDef(b, a, "pcie", 12e9, 1e-6))
    return ClusterSpec(devices=devices, links=links, name="line")


class TestLinkDef:
    def test_default_channel_is_per_edge(self):
        link = LinkDef("a", "b", "pcie", 12e9)
        assert link.resolved_channel == "pcie:a->b"

    def test_explicit_channel_wins(self):
        link = LinkDef("a", "b", "pcie", 12e9, channel="bridge")
        assert link.resolved_channel == "bridge"

    def test_wires_are_uncontended(self):
        assert not LinkDef("a", "b", WIRE, WIRE_BANDWIDTH).contended
        assert LinkDef("a", "b", "pcie", 12e9).contended


class TestValidation:
    def test_empty_devices_rejected(self):
        with pytest.raises(ValueError, match="at least one device"):
            ClusterSpec(devices=[]).validate()

    def test_duplicate_device_names_rejected(self):
        spec = ClusterSpec(devices=make_devices([1]) * 2)
        with pytest.raises(ValueError, match="unique"):
            spec.validate()

    def test_switch_device_name_collision_rejected(self):
        devices = make_devices([1])
        spec = ClusterSpec(devices=devices, switches=[devices[0].name])
        with pytest.raises(ValueError, match="collide"):
            spec.validate()

    def test_unknown_link_endpoint_rejected(self):
        devices = make_devices([1])
        spec = ClusterSpec(
            devices=devices,
            links=[LinkDef(devices[0].name, "ghost", "pcie", 12e9)],
        )
        with pytest.raises(ValueError, match="unknown"):
            spec.validate()

    def test_non_positive_bandwidth_rejected(self):
        devices = make_devices([2])
        spec = ClusterSpec(
            devices=devices,
            links=[LinkDef(devices[0].name, devices[1].name, "pcie", 0.0)],
        )
        with pytest.raises(ValueError, match="bandwidth"):
            spec.validate()

    def test_disconnected_cluster_rejected(self):
        spec = ClusterSpec(devices=make_devices([2]))  # no links at all
        with pytest.raises(ValueError, match="not connected"):
            spec.validate()

    def test_unreachable_pair_named_in_error(self):
        devices = make_devices([2])
        a, b = devices[0].name, devices[1].name
        spec = ClusterSpec(  # one-way street: b can never reach a
            devices=devices, links=[LinkDef(a, b, "pcie", 12e9)]
        )
        with pytest.raises(ValueError, match="not connected"):
            spec.validate()


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = pcie_server(3).spec
        clone = ClusterSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert [d.name for d in clone.devices] == [
            d.name for d in spec.devices
        ]

    def test_json_round_trip_through_topology_from(self):
        spec = mixed_server(2, 1).spec
        topo = topology_from(json.dumps(spec.to_dict()))
        assert topo.device_names == [d.name for d in spec.devices]
        assert topo.channels() == Topology(spec).channels()
        assert not topo.is_homogeneous

    def test_wire_bandwidth_survives_json(self):
        spec = multi_server(2, 2).spec
        clone = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        wires = [link for link in clone.links if link.kind == WIRE]
        assert wires and all(
            link.bandwidth == WIRE_BANDWIDTH for link in wires
        )

    def test_compute_scale_survives_round_trip(self):
        spec = mixed_server(1, 1).spec
        clone = ClusterSpec.from_dict(spec.to_dict())
        assert Topology(clone).relative_compute_scales() == Topology(
            spec
        ).relative_compute_scales()

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match="devices"):
            ClusterSpec.from_dict({"links": []})


class TestRoutes:
    def test_local_route_is_empty(self):
        topo = Topology(_line())
        dev = topo.device_names[0]
        route = topo.route(dev, dev)
        assert route.num_hops == 0
        assert route.time(10**9) == 0.0

    def test_line_route_crosses_every_intermediate(self):
        topo = Topology(_line(4))
        names = topo.device_names
        route = topo.route(names[0], names[3])
        assert route.num_hops == 3
        assert route.kind == "pcie"

    def test_pcie_box_routes_through_bridge(self):
        topo = pcie_server(4)
        a, b = topo.device_names[:2]
        route = topo.route(a, b)
        assert [link.name for link in route.links] == [
            "pcie", "pcie-bridge", "pcie",
        ]
        # Store-and-forward at 48/24/48 GB/s is exactly the flat PCIE
        # preset's 12 GB/s effective rate and 10us latency.
        expected = PCIE[2] + 12_000_000 / PCIE[1]
        assert route.time(12_000_000) == pytest.approx(expected, abs=1e-15)

    def test_all_pcie_pairs_share_the_bridge(self):
        topo = pcie_server(4)
        bridges = {
            topo.route(a, b).links[1].shared_channel
            for a in topo.device_names
            for b in topo.device_names
            if a != b
        }
        assert bridges == {"pcie-bridge:host:0"}

    def test_dgx_neighbours_use_dedicated_nvlink(self):
        topo = dgx(8)
        names = topo.device_names
        route = topo.route(names[0], names[1])
        assert route.num_hops == 1
        assert route.links[0].name == "nvlink"
        # Per-pair channels: 0->1 and 1->2 are different resources.
        assert (
            topo.route(names[0], names[1]).links[0].shared_channel
            != topo.route(names[1], names[2]).links[0].shared_channel
        )

    def test_dgx_distant_pairs_fall_back_to_pcie(self):
        topo = dgx(8)
        names = topo.device_names
        route = topo.route(names[0], names[4])
        assert "pcie-bridge" in {link.name for link in route.links}

    def test_multi_server_crosses_three_channels(self):
        topo = multi_server(4, 2)
        src = topo.device_names[0]
        dst = topo.device_names[-1]
        route = topo.route(src, dst)
        assert [link.name for link in route.channels] == [
            "nvlink", "ethernet", "ethernet",
        ]
        assert route.kind == "nvlink>ethernet"

    def test_multi_server_shares_uplink_across_destinations(self):
        topo = multi_server(3, 2)
        src = topo.device_names[0]
        uplinks = {
            topo.route(src, dst).channels[1].shared_channel
            for dst in topo.device_names
            if topo.device(dst).server != 0
        }
        assert uplinks == {"ethernet:s0->core"}

    def test_mixed_server_scales(self):
        topo = mixed_server(2, 2)
        scales = topo.relative_compute_scales()
        values = sorted(set(scales.values()), reverse=True)
        assert values[0] == 1.0 and len(values) == 2
        assert not topo.is_homogeneous

    def test_route_to_unknown_device_raises(self):
        topo = Topology(_line())
        with pytest.raises(KeyError):
            topo.route(topo.device_names[0], "/server:9/gpu:9")


class TestLegacyShim:
    def test_bare_device_list_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Topology(make_devices([2, 2]))

    def test_preset_string_dispatch(self):
        assert topology_from("pcie:4").spec.name == "pcie-server-4"
        assert topology_from("servers:3x2").num_servers == 3
        assert len(topology_from("mixed:2+2").devices) == 4

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown topology preset"):
            topology_from("hypercube:16")

    def test_malformed_preset_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            topology_from("pcie:lots")


# ----------------------------------------------------------------------
# Property tests over randomly generated two-tier and line clusters.

@st.composite
def random_topologies(draw):
    shape = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
    )
    family = draw(st.sampled_from(["two-tier", "pcie", "multi"]))
    if family == "pcie":
        return pcie_server(sum(shape))
    if family == "multi":
        return multi_server(len(shape), max(shape))
    return Topology(make_devices(shape))


@given(topo=random_topologies())
@settings(max_examples=40, deadline=None)
def test_route_consistency(topo):
    """Every resolved route is well-formed and matches the link graph."""
    for src in topo.device_names:
        for dst in topo.device_names:
            route = topo.route(src, dst)
            if src == dst:
                assert route.links == ()
                continue
            # Channels are exactly the contended links, in hop order.
            assert route.channels == tuple(
                link for link in route.links if link.contended
            )
            assert all(link.bandwidth > 0 for link in route.links)
            assert topo.pair_class(src, dst) == route.kind
            # Route channels are real cluster resources.
            known = set(topo.channels())
            assert {link.shared_channel for link in route.channels} <= known


@given(topo=random_topologies())
@settings(max_examples=40, deadline=None)
def test_route_symmetry(topo):
    """Preset interconnects are symmetric: same class and cost both ways."""
    for src in topo.device_names:
        for dst in topo.device_names:
            fwd, rev = topo.route(src, dst), topo.route(dst, src)
            assert fwd.num_hops == rev.num_hops
            assert fwd.kind == rev.kind
            assert fwd.time(4096) == pytest.approx(rev.time(4096))


@given(
    topo=random_topologies(),
    sizes=st.lists(
        st.integers(min_value=1, max_value=10**9),
        min_size=2,
        max_size=6,
        unique=True,
    ),
)
@settings(max_examples=40, deadline=None)
def test_transfer_time_monotonic_in_bytes(topo, sizes):
    sizes = sorted(sizes)
    src, dst = topo.device_names[0], topo.device_names[-1]
    times = [topo.transfer_time(src, dst, n) for n in sizes]
    if src == dst:
        assert set(times) == {0.0}
        return
    assert all(t > 0.0 for t in times)
    assert times == sorted(times)
    assert len(set(times)) == len(times)  # strictly increasing
