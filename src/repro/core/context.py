"""Per-request search state: the :class:`SearchContext`.

Historically every optimize run's mutable state — the profiled cost
models, the stability monitor, the calibration prediction sets, the
perf-model RNG — lived as attributes on :class:`FastTSession` and
:class:`StrategyCalculator`, which made the stack single-tenant: two
concurrent requests through one process would race on the models and
corrupt each other's searches.

The context makes that state explicit and request-local.  Everything a
search mutates hangs off one :class:`SearchContext`:

* the **cost models** (computation/communication) the profiler feeds and
  the search reads;
* the **perf-model RNG** (each context gets a fresh jitter stream seeded
  identically, so N contexts over the same inputs produce byte-identical
  strategies whether they run serially or in parallel);
* the **observability sinks** (event bus/metrics/provenance);
* the **calibration predictions** captured at decision time;
* an optional **warm-start seed** (:class:`WarmStartSeed`) that lets
  OS-DPOS replay a cached strategy's partition list instead of starting
  cold (see :mod:`repro.serve`).

Graph working copies and :class:`~repro.costmodel.CostCache` instances
were already created per search invocation inside OS-DPOS; the context
is the container for the state that *wasn't*.

Shared, immutable inputs (the topology, the config) are referenced, not
copied — they are never written after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cluster import Topology
from ..costmodel import (
    CommunicationCostModel,
    ComputationCostModel,
    StabilityMonitor,
)
from ..hardware import PerfModel
from ..obs import Observability, get_obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.rewrite import SplitDecision
    from ..obs.calibration import PredictionSet
    from .calculator import FastTConfig


@dataclass
class WarmStartSeed:
    """A cached strategy to seed OS-DPOS from (Layer 3 of the service).

    Attributes:
        split_list: The cached strategy's partition list, replayed onto
            the new graph through :class:`~repro.graph.SplitTransaction`
            (decisions whose op no longer exists or whose dimension can
            no longer be split are skipped).
        reference_makespan: The cached strategy's estimated makespan on
            *its* graph; the safety valve falls back to a cold search
            when the warm schedule lands above
            ``safety_factor * reference_makespan``.
        source: Where the seed came from (the cached entry's combined
            fingerprint), for events and provenance.
        safety_factor: Tolerated warm/reference makespan ratio before
            the fallback triggers.  The graphs differ (that is the
            point), so this is a coarse guard against replaying a
            strategy onto a graph it no longer fits, not a quality bound.
    """

    split_list: List["SplitDecision"] = field(default_factory=list)
    reference_makespan: Optional[float] = None
    source: str = ""
    safety_factor: float = 1.5


@dataclass
class SearchContext:
    """All mutable state of one optimize request.

    Build one per request with :meth:`create`; hand it to
    :meth:`FastTSession.optimize(context=...)
    <repro.core.session.FastTSession.optimize>` (or
    ``repro.optimize(..., context=...)``).  Contexts are cheap; nothing
    is profiled or searched at construction time.
    """

    topology: Topology
    perf_model: PerfModel
    config: "FastTConfig"
    obs: Observability
    computation: ComputationCostModel
    communication: CommunicationCostModel
    #: Decision-time cost-model predictions per computed strategy
    #: (id(strategy) -> PredictionSet), kept only under provenance.
    predictions: Dict[int, "PredictionSet"] = field(default_factory=dict)
    #: Optional cached-strategy seed consulted by every OS-DPOS run on
    #: the request's primary input graph.
    warm_start: Optional[WarmStartSeed] = None

    @classmethod
    def create(
        cls,
        topology: Topology,
        *,
        perf_model: Optional[PerfModel] = None,
        config: Optional["FastTConfig"] = None,
        obs: Optional[Observability] = None,
        warm_start: Optional[WarmStartSeed] = None,
    ) -> "SearchContext":
        """Build a fresh context around ``perf_model``, with empty cost models.

        ``perf_model`` is used as given, so its (possibly part-consumed)
        jitter stream carries on; callers that need a private RNG stream
        per request pass their own replica (see
        :meth:`FastTSession.new_context
        <repro.core.session.FastTSession.new_context>`).  Without one, the
        context gets a default noisy :class:`PerfModel` of ``topology``.
        """
        from .calculator import FastTConfig

        if perf_model is None:
            perf_model = PerfModel(topology, noise_sigma=0.02)
        return cls(
            topology=topology,
            perf_model=perf_model,
            config=config or FastTConfig(),
            obs=get_obs(obs),
            computation=ComputationCostModel(
                device_scale=topology.relative_compute_scales()
            ),
            communication=CommunicationCostModel(
                pair_class=topology.pair_class, topology=topology
            ),
            warm_start=warm_start,
        )

    # ------------------------------------------------------------------
    def stability_monitor(self) -> StabilityMonitor:
        """A fresh per-run stability monitor."""
        return StabilityMonitor(self.config.stability_tolerance)
