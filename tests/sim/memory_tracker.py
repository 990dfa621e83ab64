"""Ref-counted device-memory tracker of the reference simulator.

The seed simulator's name-keyed accounting, kept next to the oracle that
uses it (:mod:`tests.sim.reference_simulator`).  Tensors are allocated
on a device when their producing op starts there (or when a transfer
delivers a remote copy) and freed once every consumer on that device has
finished; parameters (``Variable`` outputs) persist for the whole step.
``repro.sim.runner`` does the same accounting over id-indexed lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.sim import SimulationOOMError


@dataclass
class MemoryTracker:
    """Ref-counted per-device allocation accounting.

    Attributes:
        capacities: Device name -> capacity in bytes.
        enforce: When True, exceeding capacity raises
            :class:`SimulationOOMError`; when False usage is only recorded
            (useful for what-if analyses).
    """

    capacities: Dict[str, int]
    enforce: bool = True
    usage: Dict[str, int] = field(default_factory=dict)
    peak: Dict[str, int] = field(default_factory=dict)
    _live: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _refs: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _persistent: Set[Tuple[str, str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        for dev in self.capacities:
            self.usage.setdefault(dev, 0)
            self.peak.setdefault(dev, 0)

    def allocate(
        self,
        tensor_name: str,
        device: str,
        num_bytes: int,
        consumers: int,
        persistent: bool = False,
    ) -> None:
        """Allocate a tensor copy on ``device`` with ``consumers`` refs."""
        key = (tensor_name, device)
        if key in self._live:
            # A second allocation of the same copy only adds references.
            self._refs[key] += consumers
            return
        self._live[key] = num_bytes
        self._refs[key] = consumers
        if persistent:
            self._persistent.add(key)
        self.usage[device] = self.usage.get(device, 0) + num_bytes
        if self.usage[device] > self.peak.get(device, 0):
            self.peak[device] = self.usage[device]
        capacity = self.capacities.get(device)
        if self.enforce and capacity is not None and self.usage[device] > capacity:
            raise SimulationOOMError(device, self.usage[device], capacity)

    def release(self, tensor_name: str, device: str) -> None:
        """Drop one consumer reference; free the copy at zero references."""
        key = (tensor_name, device)
        if key not in self._live:
            return
        self._refs[key] -= 1
        if self._refs[key] <= 0 and key not in self._persistent:
            self.usage[device] -= self._live[key]
            del self._live[key]
            del self._refs[key]

    def live_bytes(self, device: str) -> int:
        return self.usage.get(device, 0)
