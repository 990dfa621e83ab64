"""FastT's communication cost model (Sec. 4, Cost Models).

Transfers are grouped by (source device, destination device); for each
group a linear model ``time = slope * bytes + intercept`` is fitted with
least squares and refitted whenever new profiled samples arrive — the
paper's "tensor size vs transfer time" regression, which captures
available bandwidth and congestion along each device-device path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster import Topology

Pair = Tuple[str, str]
#: Maps a device pair to an equivalence class sharing link behaviour
#: (e.g. "intra-server" vs "inter-server").
PairClassFn = Callable[[str, str], str]


@dataclass
class _LinearModel:
    slope: float
    intercept: float

    def predict(self, num_bytes: int) -> float:
        return max(self.slope * num_bytes + self.intercept, 0.0)


def _fit_samples(samples: List[Tuple[float, float]]) -> _LinearModel:
    xs = np.array([s[0] for s in samples])
    ys = np.array([s[1] for s in samples])
    if len(samples) >= 2 and float(xs.std()) > 0.0:
        slope, intercept = np.polyfit(xs, ys, 1)
        # Bandwidth cannot be negative; degenerate fits fall back to a
        # pure rate model through the origin.
        if slope <= 0.0:
            slope = float(ys.sum() / xs.sum())
            intercept = 0.0
        return _LinearModel(float(slope), float(intercept))
    rate = float(ys.sum() / xs.sum()) if float(xs.sum()) > 0 else 0.0
    return _LinearModel(rate, 0.0)


def _keep_newest(samples: List[Tuple[float, float]], limit: int) -> None:
    """Trim a sample window to its ``limit`` newest entries, in place."""
    if len(samples) > limit:
        del samples[: len(samples) - limit]


class CommunicationCostModel:
    """(src device, dst device, tensor bytes) -> expected transfer time.

    Args:
        pair_class: Optional equivalence-class function for device pairs.
            Transfers of an unprofiled pair are estimated from the pooled
            regression of its class (all NVLink pairs behave alike; all
            cross-server paths share the NIC), mirroring how quickly the
            paper's always-on profiler covers symmetric links.
        max_samples_per_pair: Sliding-window size per pair.
        topology: Optional cluster topology.  When attached, a pair with
            no profiled samples (and no class model) is estimated from
            the topology's uncontended route time — an optimistic prior
            that keeps the planner from treating never-profiled remote
            links as free.
    """

    def __init__(
        self,
        pair_class: Optional[PairClassFn] = None,
        max_samples_per_pair: int = 512,
        topology: Optional["Topology"] = None,
    ) -> None:
        self._pair_class = pair_class
        self._topology = topology
        self._samples: Dict[Pair, List[Tuple[float, float]]] = {}
        self._class_samples: Dict[str, List[Tuple[float, float]]] = {}
        self._models: Dict[Pair, _LinearModel] = {}
        self._class_models: Dict[str, _LinearModel] = {}
        self._dirty: Dict[Pair, bool] = {}
        self._class_dirty: Dict[str, bool] = {}
        self._global: Optional[_LinearModel] = None
        self._global_dirty = False
        self._max_samples = max_samples_per_pair
        # Queries lazily refit behind dirty flags, so even read paths
        # mutate the model; a reentrant lock makes one shared model safe
        # for concurrent service requests (fits are tiny — a few dozen
        # samples — so the critical sections stay short).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def observe(self, src: str, dst: str, num_bytes: int, duration: float) -> None:
        """Record one profiled transfer."""
        if src == dst:
            return
        pair = (src, dst)
        sample = (float(num_bytes), float(duration))
        with self._lock:
            samples = self._samples.setdefault(pair, [])
            samples.append(sample)
            if len(samples) > self._max_samples:
                del samples[: len(samples) - self._max_samples]
            self._dirty[pair] = True
            self._global_dirty = True
            if self._pair_class is not None:
                key = self._pair_class(src, dst)
                class_samples = self._class_samples.setdefault(key, [])
                if len(class_samples) >= 4 * self._max_samples:
                    del class_samples[: len(class_samples) - 4 * self._max_samples + 1]
                class_samples.append(sample)
                self._class_dirty[key] = True

    def observe_many(
        self,
        srcs: Iterable[str],
        dsts: Iterable[str],
        sizes: Iterable[int],
        durations: Iterable[float],
    ) -> None:
        """Record profiled transfers in order, in one pass.

        Parallel sequences.  Samples join their pair and class windows
        in sequence order, and each window then keeps its newest
        samples, leaving exactly the state repeated :meth:`observe`
        calls would.
        """
        pair_class = self._pair_class
        classes: Dict[Pair, str] = {}
        touched: Dict[Pair, List[Tuple[float, float]]] = {}
        touched_classes: Dict[str, List[Tuple[float, float]]] = {}
        with self._lock:
            for src, dst, num_bytes, duration in zip(srcs, dsts, sizes, durations):
                if src == dst:
                    continue
                pair = (src, dst)
                sample = (float(num_bytes), float(duration))
                samples = touched.get(pair)
                if samples is None:
                    samples = touched[pair] = self._samples.setdefault(pair, [])
                samples.append(sample)
                if pair_class is not None:
                    key = classes.get(pair)
                    if key is None:
                        key = classes[pair] = pair_class(src, dst)
                    class_samples = touched_classes.get(key)
                    if class_samples is None:
                        class_samples = touched_classes[key] = (
                            self._class_samples.setdefault(key, [])
                        )
                    class_samples.append(sample)
            for pair, samples in touched.items():
                _keep_newest(samples, self._max_samples)
                self._dirty[pair] = True
                self._global_dirty = True
            for key, class_samples in touched_classes.items():
                _keep_newest(class_samples, 4 * self._max_samples)
                self._class_dirty[key] = True

    def _fit(self, pair: Pair) -> Optional[_LinearModel]:
        with self._lock:
            if self._dirty.get(pair):
                self._models[pair] = _fit_samples(self._samples[pair])
                self._dirty[pair] = False
            return self._models.get(pair)

    def _fit_class(self, key: str) -> Optional[_LinearModel]:
        with self._lock:
            if self._class_dirty.get(key):
                self._class_models[key] = _fit_samples(self._class_samples[key])
                self._class_dirty[key] = False
            return self._class_models.get(key)

    # ------------------------------------------------------------------
    def known(self, src: str, dst: str) -> bool:
        return (src, dst) in self._samples

    def time(self, src: str, dst: str, num_bytes: int) -> float:
        """Expected transfer time of ``num_bytes`` from ``src`` to ``dst``.

        Falls through pair regression -> class regression -> topology
        prior -> global pooled rate.  Without an attached topology a
        fully unexplored model answers 0 (the paper's "prefer to
        explore" rule); with one, unprofiled pairs cost at least their
        uncontended route time, so the planner never sees a remote
        link as free.
        """
        if src == dst or num_bytes <= 0:
            return 0.0
        model = self._fit((src, dst))
        if model is not None:
            return model.predict(num_bytes)
        if self._pair_class is not None:
            class_model = self._fit_class(self._pair_class(src, dst))
            if class_model is not None:
                return class_model.predict(num_bytes)
        if self._topology is not None:
            # Optimistic prior: the route's uncontended store-and-forward
            # time.  Preferred over the global pooled rate, which is
            # class-blind and underestimates slow links badly.
            optimistic = self._topology.transfer_time(src, dst, num_bytes)
            if optimistic > 0.0:
                return optimistic
        fallback = self._global_model()
        if fallback is not None:
            return fallback.predict(num_bytes)
        return 0.0  # explore: nothing has ever been profiled

    def _global_model(self) -> Optional[_LinearModel]:
        """Pooled rate over every sample, cached behind a dirty flag.

        Refitting on every unknown-pair query was O(total samples) in
        the search hot path; now the fit reruns only after new
        observations arrive.
        """
        with self._lock:
            if self._global_dirty:
                all_samples = [
                    s for samples in self._samples.values() for s in samples
                ]
                if not all_samples:
                    self._global = None
                else:
                    xs = np.array([s[0] for s in all_samples])
                    ys = np.array([s[1] for s in all_samples])
                    rate = float(ys.sum() / xs.sum()) if float(xs.sum()) > 0 else 0.0
                    self._global = _LinearModel(rate, 0.0)
                self._global_dirty = False
            return self._global

    def max_time(self, num_bytes: int, pairs: Iterable[Pair]) -> float:
        """``c_ij`` of the rank computation: worst case over device pairs."""
        return max(
            (self.time(src, dst, num_bytes) for src, dst in pairs), default=0.0
        )

    def pair_parameters(self, src: str, dst: str) -> Optional[Tuple[float, float]]:
        """(slope, intercept) of a fitted pair, for inspection/tests."""
        model = self._fit((src, dst))
        return (model.slope, model.intercept) if model else None

    @property
    def num_pairs(self) -> int:
        return len(self._samples)
