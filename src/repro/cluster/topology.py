"""Interconnect topology: routed links over an explicit link graph.

The communication structure is what separates the paper's same-server
and two-server experiments: NVLink inside a machine (~no congestion,
tens of GB/s), TCP/RDMA across machines (an order of magnitude slower,
higher latency, shared by all GPU pairs spanning the two hosts).  FastT
learns these differences through its per-device-pair linear regression
(Sec. 4, Cost Models); here they are the ground truth the profiler
observes.

A :class:`Topology` is built from a :class:`~repro.cluster.spec.ClusterSpec`
— a directed graph of devices, switches, and typed links — and resolves
every device pair to a :class:`Route`: the ordered sequence of links a
transfer crosses.  Contention happens per *channel*: a route may cross
several shared channels (GPU egress, PCIe host bridge, NIC) and the
simulator serializes transfers on each of them independently.

A bare device list, ``Topology(devices)``, builds the default two-tier
link graph (NVLink inside a server, Ethernet across servers); custom
tiers go through :func:`~repro.cluster.spec.two_tier_spec`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .device import Device
from .spec import ClusterSpec, two_tier_spec


@dataclass(frozen=True)
class LinkSpec:
    """One directed communication channel between a pair of nodes.

    Attributes:
        name: Channel class (``"nvlink"``, ``"pcie"``, ``"ethernet"``...).
        bandwidth: Bytes per second.
        latency: Fixed per-transfer setup time in seconds.
        shared_channel: Key identifying the physical resource transfers
            serialize on.  NVLink pairs each get their own channel; all
            cross-server transfers share the NIC channel of the
            (src server, dst server) pair.
    """

    name: str
    bandwidth: float
    latency: float
    shared_channel: str

    @property
    def contended(self) -> bool:
        return math.isfinite(self.bandwidth)

    def hop_time(self, num_bytes: int) -> float:
        """Store-and-forward duration of one hop across this link."""
        return self.latency + num_bytes / self.bandwidth


#: NVLink gen2: ~25 GB/s effective per direction per pair, sub-10us latency.
NVLINK = ("nvlink", 25e9, 5e-6)
#: PCIe 3.0 x16 effective: ~12 GB/s.
PCIE = ("pcie", 12e9, 10e-6)
#: 100 Gbps RDMA between servers: ~8 GB/s effective, 30us.
ETHERNET = ("ethernet", 8e9, 30e-6)


@dataclass(frozen=True)
class Route:
    """The resolved path of a transfer between two devices.

    Attributes:
        src: Source device name.
        dst: Destination device name.
        links: Every hop in order, wires included.
        channels: The contended hops only (finite bandwidth) — the
            resources the simulator queues the transfer on, in order.
    """

    src: str
    dst: str
    links: Tuple[LinkSpec, ...]
    channels: Tuple[LinkSpec, ...]

    @property
    def num_hops(self) -> int:
        return len(self.links)

    @property
    def latency(self) -> float:
        return sum(link.latency for link in self.links)

    @property
    def bandwidth(self) -> float:
        """Bottleneck bandwidth along the route."""
        return min(
            (link.bandwidth for link in self.links), default=float("inf")
        )

    @property
    def kind(self) -> str:
        """Link classes crossed in order, e.g. ``"pcie>pcie-bridge>pcie"``.

        Used as the communication cost model's pair-class key: pairs
        whose routes cross the same sequence of link types share one
        pooled regression.
        """
        kinds = list(dict.fromkeys(link.name for link in self.channels))
        return ">".join(kinds) if kinds else "wire"

    @property
    def bottleneck(self) -> LinkSpec:
        """The slowest link (informational; local routes have none)."""
        if not self.links:
            raise ValueError(f"local route {self.src!r} has no links")
        return min(self.links, key=lambda link: link.bandwidth)

    def time(self, num_bytes: int) -> float:
        """Uncontended store-and-forward duration of the whole route."""
        total = 0.0
        for link in self.links:
            total += link.latency + num_bytes / link.bandwidth
        return total


class Topology:
    """Resolves the route between any two devices of a cluster.

    Accepts either a :class:`ClusterSpec` (the link-graph model) or a
    bare device list, which gets the default two-tier spec
    (:data:`NVLINK` inside a server, :data:`ETHERNET` across servers).
    """

    def __init__(self, devices: Union[ClusterSpec, Sequence[Device]]) -> None:
        if isinstance(devices, ClusterSpec):
            spec = devices
        else:
            if not devices:
                raise ValueError("a topology needs at least one device")
            spec = two_tier_spec(devices, NVLINK, ETHERNET)
        spec.validate()
        self.spec = spec
        self.devices: List[Device] = list(spec.devices)
        self._by_name: Dict[str, Device] = {d.name: d for d in self.devices}
        # Adjacency over devices + switches; edge payloads are the
        # resolved LinkSpecs routes are assembled from.
        self._adjacency: Dict[str, List[Tuple[str, LinkSpec]]] = {}
        for link in spec.links:
            self._adjacency.setdefault(link.src, []).append(
                (
                    link.dst,
                    LinkSpec(
                        link.kind,
                        link.bandwidth,
                        link.latency,
                        link.resolved_channel,
                    ),
                )
            )
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._routes: Dict[str, Dict[str, Route]] = {}

    def device(self, name: str) -> Device:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown device {name!r}; cluster has {sorted(self._by_name)}"
            ) from None

    @property
    def device_names(self) -> List[str]:
        return [d.name for d in self.devices]

    @property
    def num_servers(self) -> int:
        return len({d.server for d in self.devices})

    @property
    def switches(self) -> List[str]:
        return list(self.spec.switches)

    def channels(self) -> List[str]:
        """All contended channel keys of the cluster, sorted."""
        return sorted(
            {
                link.resolved_channel
                for link in self.spec.links
                if link.contended
            }
        )

    # ------------------------------------------------------------------
    def _routes_from(self, src: str) -> Dict[str, Route]:
        """Shortest routes from ``src`` to every reachable device.

        Uniform-cost search keyed on (hops, contended hops, latency,
        node path) — the path tuple makes tie-breaking deterministic
        across runs and platforms.
        """
        cached = self._routes.get(src)
        if cached is not None:
            return cached
        seq = itertools.count()
        heap: List[tuple] = [(0, 0, 0.0, (src,), next(seq), ())]
        settled: Dict[str, bool] = {}
        routes: Dict[str, Route] = {}
        while heap:
            hops, contended, latency, path, _, links = heapq.heappop(heap)
            node = path[-1]
            if node in settled:
                continue
            settled[node] = True
            if node != src and node in self._by_name:
                routes[node] = Route(
                    src,
                    node,
                    links,
                    tuple(link for link in links if link.contended),
                )
            for nxt, link in self._adjacency.get(node, ()):
                if nxt in settled:
                    continue
                heapq.heappush(
                    heap,
                    (
                        hops + 1,
                        contended + (1 if link.contended else 0),
                        latency + link.latency,
                        path + (nxt,),
                        next(seq),
                        links + (link,),
                    ),
                )
        self._routes[src] = routes
        return routes

    def route(self, src: str, dst: str) -> Route:
        """The resolved path from device ``src`` to device ``dst``."""
        self.device(src), self.device(dst)
        if src == dst:
            return Route(src, dst, (), ())
        route = self._routes_from(src).get(dst)
        if route is None:
            raise ValueError(
                f"no route from {src!r} to {dst!r} in cluster "
                f"{self.spec.name!r}"
            )
        return route

    def link(self, src: str, dst: str) -> LinkSpec:
        """The effective directed link from ``src`` to ``dst``.

        For single-channel routes (all legacy two-tier pairs) this is
        the contended link itself.  Multi-channel routes collapse to a
        summary view — bottleneck bandwidth, total latency, the hop
        kinds joined into the name — whose ``shared_channel`` is the
        bottleneck's; per-channel contention uses :meth:`route`.
        """
        key = (src, dst)
        cached = self._links.get(key)
        if cached is not None:
            return cached
        if src == dst:
            self.device(src)
            spec = LinkSpec("local", float("inf"), 0.0, f"local:{src}")
        else:
            route = self.route(src, dst)
            free_latency = sum(
                link.latency for link in route.links if not link.contended
            )
            if len(route.channels) == 1 and free_latency == 0.0:
                spec = route.channels[0]
            else:
                bottleneck = route.bottleneck
                spec = LinkSpec(
                    route.kind,
                    route.bandwidth,
                    route.latency,
                    bottleneck.shared_channel,
                )
        self._links[key] = spec
        return spec

    def transfer_time(self, src: str, dst: str, num_bytes: int) -> float:
        """Uncontended transfer duration (the ground-truth linear model)."""
        if src == dst or num_bytes <= 0:
            return 0.0
        return self.route(src, dst).time(num_bytes)

    # ------------------------------------------------------------------
    def pair_class(self, src: str, dst: str) -> str:
        """Equivalence-class key for the communication cost model.

        Pairs whose routes cross the same sequence of link kinds behave
        alike (same bandwidths, latencies, contention structure), so
        their profiled samples pool into one regression — the
        generalization of the old intra/inter dichotomy.
        """
        if src == dst:
            return "local"
        return self.route(src, dst).kind

    def relative_compute_scales(self) -> Dict[str, float]:
        """Per-device speed relative to the fastest device (1.0 = fastest).

        Combines the spec's peak FLOPs with the per-device
        ``compute_scale`` multiplier; feeds the computation cost model's
        heterogeneous fallback.
        """
        speeds = {
            d.name: d.spec.peak_flops * d.compute_scale for d in self.devices
        }
        top = max(speeds.values())
        return {name: speed / top for name, speed in speeds.items()}

    @property
    def is_homogeneous(self) -> bool:
        first = self.devices[0]
        return all(
            d.spec == first.spec and d.compute_scale == first.compute_scale
            for d in self.devices
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.spec.name!r}: {len(self.devices)} devices over "
            f"{self.num_servers} server(s), "
            f"{len(self.channels())} channels)"
        )
