"""FastT's computation cost model (Sec. 4, Cost Models).

Keyed by ``(operation name, device)``, exactly as in the paper, and fed
only from profiled step traces.  Four lookup tiers:

1. a direct profiled average for the key;
2. for sub-operations created by Alg. 2 splits, the parent operation's
   profiled time scaled by the sub-op's work fraction (the estimate the
   strategy calculator needs to evaluate a split *before* it has ever
   run);
3. a per-device bandwidth proxy fitted over observed memory-bound ops,
   used for the split/concat glue nodes a rewrite introduces;
4. otherwise ``0.0`` — the paper's "set the cost to 0 so the algorithm
   prefers to explore the placement" rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..graph import Operation

#: Op types whose runtime is essentially memory traffic; they feed and
#: use the bandwidth proxy.
BANDWIDTH_BOUND_TYPES = frozenset(
    {
        "SplitN",
        "Concat",
        "Identity",
        "Relu",
        "ReluGrad",
        "Add",
        "AddN",
        "Mul",
        "BiasAdd",
        "BiasAddGrad",
        "Reshape",
        "Transpose",
        "Dropout",
        "DropoutGrad",
    }
)


@dataclass
class _BandwidthProxy:
    """Per-device seconds-per-byte estimate from memory-bound kernels."""

    total_bytes: float = 0.0
    total_seconds: float = 0.0

    def add(self, num_bytes: int, seconds: float) -> None:
        self.total_bytes += num_bytes
        self.total_seconds += seconds

    def estimate(self, num_bytes: int) -> Optional[float]:
        if self.total_bytes <= 0:
            return None
        return self.total_seconds / self.total_bytes * num_bytes


class ComputationCostModel:
    """(op name, device) -> expected execution time in seconds.

    Args:
        homogeneous_fallback: When True (default), a key missing for one
            device falls back to the op's mean over devices where it *was*
            profiled.  The paper's testbed GPUs are identical V100s, and
            data parallelism replicates ops across all of them, so this is
            the fast path to a complete model the paper relies on
            ("each operation is replicated to different GPUs and their
            execution time on different devices is learned").
        device_scale: Optional per-device relative speed (1.0 = fastest;
            see :meth:`Topology.relative_compute_scales`).  The
            cross-device fallback normalizes each observation by its
            device's scale and rescales on lookup, so a time profiled on
            a fast GPU predicts a proportionally longer time on a slow
            one.  With all scales at 1.0 (the homogeneous testbed) this
            is exactly the unscaled mean.
    """

    def __init__(
        self,
        homogeneous_fallback: bool = True,
        device_scale: Optional[Dict[str, float]] = None,
    ) -> None:
        self.homogeneous_fallback = homogeneous_fallback
        self.device_scale = dict(device_scale or {})
        # Running means as plain dicts of counts and means, per (op,
        # device) key and per op name: ints and floats are not tracked by
        # the garbage collector, so a fit over a large graph adds no
        # per-op object for it to scan.
        self._counts: Dict[Tuple[str, str], int] = {}
        self._means: Dict[Tuple[str, str], float] = {}
        self._name_counts: Dict[str, int] = {}
        self._name_means: Dict[str, float] = {}
        self._types: Dict[str, str] = {}
        self._bandwidth: Dict[str, _BandwidthProxy] = {}

    # ------------------------------------------------------------------
    def observe(
        self,
        op_name: str,
        op_type: str,
        device: str,
        duration: float,
        bytes_accessed: int = 0,
    ) -> None:
        """Record one profiled execution."""
        self.observe_many(
            (op_name,), (op_type,), (device,), (duration,),
            lambda _name: bytes_accessed,
        )

    def observe_many(
        self,
        op_names: Iterable[str],
        op_types: Iterable[str],
        devices: Iterable[str],
        durations: Iterable[float],
        bytes_accessed: Callable[[str], int],
    ) -> None:
        """Record profiled executions in order, in one pass.

        Parallel sequences; ``bytes_accessed(op_name)`` is asked only for
        bandwidth-bound op types.  Every running mean
        (``mean += (x - mean) / count``) and bandwidth proxy accumulates
        in sequence order; :meth:`observe` is the one-record call.
        """
        counts, means = self._counts, self._means
        name_counts, name_means = self._name_counts, self._name_means
        types = self._types
        scale_of = self.device_scale.get
        for name, op_type, device, duration in zip(
            op_names, op_types, devices, durations
        ):
            key = (name, device)
            count = counts[key] = counts.get(key, 0) + 1
            mean = means.get(key, 0.0)
            means[key] = mean + (duration - mean) / count
            # The per-name pool holds scale-normalized ("fastest device
            # equivalent") durations so heterogeneous observations mix.
            value = duration * scale_of(device, 1.0)
            count = name_counts[name] = name_counts.get(name, 0) + 1
            mean = name_means.get(name, 0.0)
            name_means[name] = mean + (value - mean) / count
            types[name] = op_type
            if op_type in BANDWIDTH_BOUND_TYPES:
                num_bytes = bytes_accessed(name)
                if num_bytes > 0:
                    self._bandwidth.setdefault(device, _BandwidthProxy()).add(
                        num_bytes, duration
                    )

    def known(self, op_name: str, device: str) -> bool:
        return (op_name, device) in self._means

    def profiled_time(self, op_name: str, device: str) -> Optional[float]:
        return self._means.get((op_name, device))

    # ------------------------------------------------------------------
    def time(self, op: Operation, device: str) -> float:
        """Expected execution time of ``op`` on ``device`` (0 = explore)."""
        direct = self._lookup(op.name, device)
        if direct is not None:
            return direct
        derived = self._derived_from_parent(op, device)
        if derived is not None:
            return derived
        if op.op_type in BANDWIDTH_BOUND_TYPES:
            proxy = self._bandwidth.get(device)
            if proxy is not None:
                estimate = proxy.estimate(op.bytes_accessed)
                if estimate is not None:
                    return estimate
        return 0.0

    def _lookup(self, op_name: str, device: str) -> Optional[float]:
        """Direct key, then (optionally) the homogeneous per-name mean.

        Runs once per op and device in every cost-cache fill, so it reads
        the dicts directly rather than through :meth:`profiled_time`.
        """
        direct = self._means.get((op_name, device))
        if direct is not None:
            return direct
        if self.homogeneous_fallback:
            mean = self._name_means.get(op_name)
            if mean is not None:
                return mean / self.device_scale.get(device, 1.0)
        return None

    def _derived_from_parent(self, op: Operation, device: str) -> Optional[float]:
        parent = op.attrs.get("split_parent")
        fraction = op.attrs.get("split_fraction")
        if parent is None:
            return None
        parent_time = self._lookup(str(parent), device)
        if parent_time is None:
            return None
        return parent_time * float(fraction if fraction else 1.0)

    def max_time(self, op: Operation, devices: Iterable[str]) -> float:
        """``w_i`` of the rank computation: max time over all devices."""
        return max((self.time(op, d) for d in devices), default=0.0)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[Tuple[str, str], float]:
        """Current means — used by the stability test of pre-training."""
        return dict(self._means)

    @property
    def num_entries(self) -> int:
        return len(self._means)
