"""Link-graph cluster specification: devices, switches, and typed links.

The paper evaluates exactly two interconnect regimes — NVLink inside one
server and a datacenter network between two — and the original
``Topology`` hard-coded that two-tier world.  :class:`ClusterSpec` turns
the interconnect into *data*: a directed graph whose nodes are devices
and switches (PCIe host bridges, NIC/core switches, per-server hubs) and
whose edges are typed links.  Route resolution over this graph produces
the sequence of shared channels a transfer crosses, which is what the
simulator serializes on and what the communication cost model uses to
group device pairs into equivalence classes.

Two kinds of edges matter:

* **contended links** have finite bandwidth and a ``channel`` key — all
  transfers crossing the same channel serialize (a PCIe host bridge
  shared by 4 GPUs, one NIC per server pair, one egress engine per GPU);
* **wires** have infinite bandwidth; they only shape the graph (e.g.
  fan-out from a hub back to its devices) and never queue.

Specs round-trip through plain dicts (``from_dict``/``to_dict``), so a
cluster can live in a JSON file and be handed straight to
``repro.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from .device import DEVICE_SPECS, V100, Device, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology

#: Bandwidth marking an uncontended wire edge.
WIRE_BANDWIDTH = math.inf
#: Link kind conventionally used for uncontended wire edges.
WIRE = "wire"


@dataclass(frozen=True)
class LinkDef:
    """One directed edge of the cluster's link graph.

    Attributes:
        src: Source node (device or switch name).
        dst: Destination node.
        kind: Link class (``"nvlink"``, ``"pcie"``, ``"ethernet"``,
            ``"pcie-bridge"``, ``"wire"``...).  Feeds the communication
            cost model's pair-class keys.
        bandwidth: Bytes per second; ``inf`` makes the edge an
            uncontended wire.
        latency: Fixed per-hop setup time in seconds.
        channel: Contention key — transfers crossing links with the same
            channel serialize.  Defaults to a per-edge key; override it
            to make several edges share one physical resource (a host
            bridge, a NIC).
    """

    src: str
    dst: str
    kind: str
    bandwidth: float
    latency: float = 0.0
    channel: Optional[str] = None

    @property
    def resolved_channel(self) -> str:
        if self.channel is not None:
            return self.channel
        return f"{self.kind}:{self.src}->{self.dst}"

    @property
    def contended(self) -> bool:
        """Wires (infinite bandwidth) never queue; everything else does."""
        return math.isfinite(self.bandwidth)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "bandwidth": "inf" if math.isinf(self.bandwidth) else self.bandwidth,
        }
        if self.latency:
            data["latency"] = self.latency
        if self.channel is not None:
            data["channel"] = self.channel
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkDef":
        bandwidth = data["bandwidth"]
        if isinstance(bandwidth, str):
            bandwidth = float(bandwidth)
        return cls(
            src=str(data["src"]),
            dst=str(data["dst"]),
            kind=str(data["kind"]),
            bandwidth=float(bandwidth),
            latency=float(data.get("latency", 0.0)),
            channel=(
                str(data["channel"]) if data.get("channel") is not None else None
            ),
        )


def _spec_to_value(spec: DeviceSpec) -> Any:
    for key, known in DEVICE_SPECS.items():
        if known == spec:
            return key
    return {
        "model": spec.model,
        "memory_bytes": spec.memory_bytes,
        "peak_flops": spec.peak_flops,
        "memory_bandwidth": spec.memory_bandwidth,
        "kernel_launch_overhead": spec.kernel_launch_overhead,
    }


def _spec_from_value(value: Any) -> DeviceSpec:
    if value is None:
        return V100
    if isinstance(value, DeviceSpec):
        return value
    if isinstance(value, str):
        try:
            return DEVICE_SPECS[value]
        except KeyError:
            raise ValueError(
                f"unknown device spec {value!r}; known specs: "
                f"{sorted(DEVICE_SPECS)}"
            ) from None
    if isinstance(value, Mapping):
        return DeviceSpec(
            model=str(value.get("model", "custom")),
            memory_bytes=int(value["memory_bytes"]),
            peak_flops=float(value["peak_flops"]),
            memory_bandwidth=float(value["memory_bandwidth"]),
            kernel_launch_overhead=float(
                value.get("kernel_launch_overhead", 6e-6)
            ),
        )
    raise TypeError(f"cannot build a DeviceSpec from {type(value).__name__}")


@dataclass
class ClusterSpec:
    """A full cluster description: devices, switches, and links.

    ``devices`` keep their list order as the global device index.
    ``switches`` are routing-only nodes (host bridges, NICs, hubs);
    operations are never placed on them.  ``links`` are directed — give
    both directions explicitly (bandwidth is per direction, as on real
    interconnects).
    """

    devices: List[Device]
    links: List[LinkDef] = field(default_factory=list)
    switches: List[str] = field(default_factory=list)
    name: str = "cluster"

    def validate(self) -> None:
        if not self.devices:
            raise ValueError("a topology needs at least one device")
        names = {d.name for d in self.devices}
        if len(names) != len(self.devices):
            raise ValueError("device names must be unique")
        switch_set = set(self.switches)
        if len(switch_set) != len(self.switches):
            raise ValueError("switch names must be unique")
        overlap = names & switch_set
        if overlap:
            raise ValueError(
                f"switch names collide with device names: {sorted(overlap)}"
            )
        nodes = names | switch_set
        for link in self.links:
            for endpoint in (link.src, link.dst):
                if endpoint not in nodes:
                    raise ValueError(
                        f"link {link.src!r}->{link.dst!r} references unknown "
                        f"node {endpoint!r}"
                    )
            if link.bandwidth <= 0:
                raise ValueError(
                    f"link {link.src!r}->{link.dst!r} has non-positive "
                    f"bandwidth {link.bandwidth!r}"
                )
            if link.latency < 0:
                raise ValueError(
                    f"link {link.src!r}->{link.dst!r} has negative latency"
                )
        self._check_connected(names)

    def _check_connected(self, device_names: set) -> None:
        adjacency: Dict[str, List[str]] = {}
        for link in self.links:
            adjacency.setdefault(link.src, []).append(link.dst)
        for src in device_names:
            seen = {src}
            frontier = [src]
            while frontier:
                node = frontier.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            missing = device_names - seen
            if missing:
                raise ValueError(
                    f"cluster {self.name!r} is not connected: no route from "
                    f"{src!r} to {sorted(missing)[0]!r}"
                )

    def build(self) -> "Topology":
        """Resolve this spec into a routable :class:`Topology`."""
        from .topology import Topology

        return Topology(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "devices": [
                {
                    "name": d.name,
                    "server": d.server,
                    "spec": _spec_to_value(d.spec),
                    **(
                        {"compute_scale": d.compute_scale}
                        if d.compute_scale != 1.0
                        else {}
                    ),
                }
                for d in self.devices
            ],
            "switches": list(self.switches),
            "links": [link.to_dict() for link in self.links],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        raw_devices = data.get("devices")
        if not raw_devices:
            raise ValueError("cluster spec needs a non-empty 'devices' list")
        devices = []
        for index, entry in enumerate(raw_devices):
            if isinstance(entry, str):
                entry = {"name": entry}
            devices.append(
                Device(
                    name=str(entry["name"]),
                    index=index,
                    server=int(entry.get("server", 0)),
                    spec=_spec_from_value(entry.get("spec")),
                    compute_scale=float(entry.get("compute_scale", 1.0)),
                )
            )
        links = [LinkDef.from_dict(d) for d in data.get("links", [])]
        spec = cls(
            devices=devices,
            links=links,
            switches=[str(s) for s in data.get("switches", [])],
            name=str(data.get("name", "cluster")),
        )
        spec.validate()
        return spec


def two_tier_spec(
    devices: Sequence[Device],
    intra: Sequence,
    inter: Sequence,
    name: str = "two-tier",
) -> ClusterSpec:
    """The two-tier world (``intra`` inside a server, ``inter`` across
    servers), expressed as a link graph.

    ``intra``/``inter`` are ``(kind, bandwidth, latency)`` tuples such as
    :data:`~repro.cluster.topology.NVLINK`.  Channel strings are fixed:

    * each device's intra-server traffic leaves through one egress
      channel ``"{kind}:{device}->*"`` (a hub-and-spoke per server: a
      contended spoke into the hub, a free wire back out);
    * every cross-server pair gets a direct edge sharing the per-server-
      pair NIC channel ``"{kind}:s{a}->s{b}"``.

    Every device pair therefore resolves to one contended link carrying
    exactly the ``intra`` (same server) or ``inter`` (cross-server)
    values.
    """
    iname, ibw, ilat = intra
    ename, ebw, elat = inter
    devices = list(devices)
    servers = sorted({d.server for d in devices})
    switches = [f"hub:{s}" for s in servers]
    links: List[LinkDef] = []
    for d in devices:
        hub = f"hub:{d.server}"
        links.append(
            LinkDef(
                d.name, hub, iname, ibw, ilat, channel=f"{iname}:{d.name}->*"
            )
        )
        links.append(LinkDef(hub, d.name, WIRE, WIRE_BANDWIDTH, 0.0))
    for a in devices:
        for b in devices:
            if a.server != b.server:
                links.append(
                    LinkDef(
                        a.name,
                        b.name,
                        ename,
                        ebw,
                        elat,
                        channel=f"{ename}:s{a.server}->s{b.server}",
                    )
                )
    return ClusterSpec(devices=devices, links=links, switches=switches, name=name)
