"""Cost-model stability test ending the pre-training stage (Sec. 4).

The paper finishes bootstrapping "when the cost models become stable
(the average time of the same (sub-)operation(s) on the same device(s)
does not vary much)".  We compare successive snapshots of the
computation cost model and report the largest relative change over keys
present in both.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

Snapshot = Dict[Tuple[str, str], float]


class StabilityMonitor:
    """Tracks snapshot-to-snapshot drift of a cost model.

    The calculator's ``round`` span carries each verdict (``stable``)
    and ``last_drift`` (``drift``); the metrics registry's rule table
    turns them into ``costmodel.stability.*``.
    """

    def __init__(self, tolerance: float = 0.05) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self._previous: Optional[Snapshot] = None
        self.last_drift: Optional[float] = None

    def update(self, snapshot: Snapshot) -> bool:
        """Feed the latest snapshot; True once the model counts as stable.

        Stability requires a previous snapshot covering the same keys and
        a maximum relative change below ``tolerance``.
        """
        previous, self._previous = self._previous, dict(snapshot)
        if previous is None or not snapshot:
            self.last_drift = None
            return False
        if set(snapshot) - set(previous):
            # New (op, device) keys appeared: still exploring.
            self.last_drift = None
            return False
        drift = 0.0
        for key, value in snapshot.items():
            old = previous[key]
            denominator = max(abs(old), 1e-12)
            drift = max(drift, abs(value - old) / denominator)
        self.last_drift = drift
        return drift <= self.tolerance
