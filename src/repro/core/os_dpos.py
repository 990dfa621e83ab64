"""OS-DPOS — Operation Splitting DPOS (Alg. 2).

Runs DPOS for an initial schedule, recomputes the critical path under
that placement, then walks the critical path in decreasing order of
computation time, trying to split each operation along each of its
parallelizable dimensions with each candidate split count.  A split is
committed only if the best resulting DPOS finish time beats the current
one; the first non-improving operation stops the search (the paper's
early exit).

Every candidate is evaluated incrementally: one working graph is
mutated in place through :class:`~repro.graph.SplitTransaction` (apply,
evaluate, undo — all O(split size)), and cost and adjacency lookups are
served from a :class:`~repro.costmodel.CostCache` invalidated only for
the ops a split touched.  The working graph is copied from the input
only at the first apply (:class:`_WorkingGraph`), and a search that
commits no split returns its input graph.  Large graphs take the
hierarchical (coarse) path instead, and a cached strategy can seed a
warm start; see :meth:`OSDPOS.run`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..costmodel import CostCache
from ..graph import Graph, Operation
from ..graph.coarsen import (
    CoarsePlan, SuperComputationModel, SuperMemo, contract_graph,
)
from ..graph.rewrite import SplitDecision, SplitError, SplitTransaction
from ..obs import MetricsSnapshot, Observability, get_obs
from .context import WarmStartSeed
from .dpos import DPOS, DPOSResult
from .ranks import max_rank_chain
from .records import OpRound, SplitCandidate
from .strategy import Strategy


@dataclass
class SearchOptions:
    """Keyword-only knobs of the OS-DPOS strategy search (Alg. 2).

    The same object configures both the low-level :class:`OSDPOS` engine
    and the workflow-level ``FastTConfig.search`` sub-config (where the
    default ``max_candidate_ops=12`` applies; a bare :class:`OSDPOS`
    constructed without options walks the full critical path, as in the
    paper).

    Attributes:
        enable_splitting: Try operation splits at all; ``False``
            degenerates the search to plain DPOS.
        split_counts: Candidate split numbers (ints >= 2); ``None`` means
            :func:`default_split_counts` of the cluster size.
        max_candidate_ops: Cap (>= 0) on critical-path ops examined
            (``None`` = the full path; the early exit usually stops far
            sooner).
        coarsen: Hierarchical search over a contracted graph
            (:func:`~repro.graph.contract_graph`).  ``True`` forces it,
            ``False`` disables it (exact search, byte-identical to the
            seed), and ``"auto"`` (default) turns it on only for graphs
            with at least ``coarsen_threshold`` ops — small graphs never
            change behaviour.
        coarsen_threshold: Op count (an int >= 1) at which ``"auto"``
            switches to the coarse path.
        coarsen_target: Approximate number of coarse nodes (an int >= 1)
            the contraction aims for.
    """

    enable_splitting: bool = True
    split_counts: Optional[List[int]] = None
    max_candidate_ops: Optional[int] = 12
    coarsen: object = "auto"
    coarsen_threshold: int = 5000
    coarsen_target: int = 256

    def __post_init__(self) -> None:
        if self.split_counts is not None:
            if not isinstance(self.split_counts, (list, tuple)):
                raise TypeError("split_counts must be a list of ints")
            for count in self.split_counts:
                if not _is_int(count):
                    raise TypeError(
                        f"split_counts entries must be ints, got {count!r}"
                    )
                if count < 2:
                    raise ValueError(
                        f"split_counts entries must be >= 2, got {count}"
                    )
        if self.max_candidate_ops is not None:
            if not _is_int(self.max_candidate_ops):
                raise TypeError("max_candidate_ops must be an int or None")
            if self.max_candidate_ops < 0:
                raise ValueError("max_candidate_ops must be >= 0")
        if self.coarsen not in (True, False, "auto"):
            raise ValueError('coarsen must be True, False, or "auto"')
        for name in ("coarsen_threshold", "coarsen_target"):
            value = getattr(self, name)
            if not _is_int(value):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_search_options_init = SearchOptions.__init__


def _search_options_kwonly_init(self, *args, **kwargs):
    if args:
        raise TypeError(
            "SearchOptions takes keyword arguments only, e.g. "
            "SearchOptions(max_candidate_ops=6, split_counts=[2])"
        )
    _search_options_init(self, **kwargs)


SearchOptions.__init__ = _search_options_kwonly_init  # type: ignore[method-assign]


@dataclass
class OSDPOSResult:
    """Output of Alg. 2: rewritten graph, full strategy, search record.

    The search counters live in ``metrics`` (a
    :class:`~repro.obs.MetricsSnapshot`) and are counted from ``rounds``;
    ``candidates_evaluated`` and friends remain as read-only views over
    them.  ``rounds`` holds one :class:`~repro.core.records.OpRound` per
    critical-path op the walk examined, on every run; the provenance
    journal copies this record as it is.
    """

    graph: Graph
    strategy: Strategy
    finish_time: float
    dpos_result: DPOSResult
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: ``incremental`` | ``coarse`` | ``warm`` (also after a warm start
    #: fell back to the cold search).
    mode: str = "incremental"
    #: Finish time of the first DPOS schedule, before any split.
    initial_finish: Optional[float] = None
    #: Critical-path ops the walk considered, in walk order.
    candidate_ops: List[str] = field(default_factory=list)
    rounds: List[OpRound] = field(default_factory=list)
    #: The coarse search's final contraction; ``None`` for flat searches.
    coarse_plan: Optional[CoarsePlan] = None

    @property
    def split_list(self) -> List[SplitDecision]:
        return self.strategy.split_list

    @property
    def coarse_members(self) -> Dict[str, List[str]]:
        """Coarse node name -> fine member names, derived from
        ``coarse_plan`` on each read; empty for flat searches."""
        plan = self.coarse_plan
        if plan is None:
            return {}
        names = plan.fine_index.names
        return {
            name: [names[i] for i in ids]
            for name, ids in zip(plan.names, plan.member_ids)
        }

    @property
    def candidates_evaluated(self) -> int:
        """View of ``metrics["search.candidates_evaluated"]``."""
        return int(self.metrics.get("search.candidates_evaluated", 0))

    @property
    def splits_rejected(self) -> int:
        """View of ``metrics["search.splits_rejected"]``."""
        return int(self.metrics.get("search.splits_rejected", 0))


class _WorkingGraph:
    """The graph a search mutates: its input until the first split apply.

    A served session hands one input graph to concurrent searches, so a
    search never mutates or version-bumps it: :meth:`split` copies it
    right before the first :class:`SplitTransaction` is made (even for
    an apply that will raise :class:`SplitError`, whose rollback still
    bumps the version) and passes the copy to ``on_copy``.
    """

    def __init__(
        self, graph: Graph, on_copy: Optional[Callable[[Graph], None]] = None
    ) -> None:
        self.input = graph
        self.graph = graph
        self._on_copy = on_copy

    def split(self, op_name: str, dim: str, count: int) -> SplitTransaction:
        """A transaction splitting ``op_name`` on the private graph."""
        if self.graph is self.input:
            self.graph = self.input.copy()
            if self._on_copy is not None:
                self._on_copy(self.graph)
        return SplitTransaction(self.graph, self.graph.get_op(op_name), dim, count)

    def result(self, split_list: List[SplitDecision]) -> Graph:
        """The search's output graph: the input itself when nothing split."""
        return self.graph if split_list else self.input


def default_split_counts(num_devices: int) -> List[int]:
    """Candidate split numbers: 2, 4, ..., up to the device count.

    The paper tries split numbers up to the number of GPUs; powers of two
    keep the candidate space small without losing the interesting points
    on an even-sized cluster.
    """
    counts = sorted({n for n in (2, 4, 8, num_devices) if 2 <= n <= num_devices})
    return counts


class OSDPOS:
    """Alg. 2 — operation-splitting search over a :class:`DPOS` engine.

    Args:
        dpos: The placement/ordering engine (carries cluster+cost models).
        options: The search knobs (:class:`SearchOptions`); without them
            the engine defaults to the paper's full-critical-path walk
            (``max_candidate_ops=None``).
        obs: Observability hook (spans per search/op, search counters and
            cache hit/miss metrics); defaults to the zero-cost no-op.
    """

    def __init__(
        self,
        dpos: DPOS,
        *,
        options: Optional[SearchOptions] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if options is None:
            options = SearchOptions(max_candidate_ops=None)
        self.dpos = dpos
        self.obs = get_obs(obs)
        if not options.enable_splitting:
            self.split_counts: List[int] = []
        elif options.split_counts is not None:
            self.split_counts = list(options.split_counts)
        else:
            self.split_counts = default_split_counts(len(dpos.topology.devices))
        self.max_candidate_ops = options.max_candidate_ops
        self.coarsen = options.coarsen
        self.coarsen_threshold = options.coarsen_threshold
        self.coarsen_target = options.coarsen_target

    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        *,
        warm_start: Optional[WarmStartSeed] = None,
    ) -> OSDPOSResult:
        """Compute split list, placement, and order for ``graph``.

        ``graph`` itself is never mutated: the search copies it before
        its first split apply, and ``result.graph`` is ``graph`` itself
        when no split was committed.

        ``warm_start`` replays a cached strategy's partition list
        through :class:`~repro.graph.SplitTransaction` and schedules the
        result with one DPOS pass instead of walking the critical path —
        the incremental-re-optimization path of :mod:`repro.serve`.  A
        safety valve falls back to the cold search when the replayed
        schedule lands above the seed's reference makespan envelope.
        """
        obs = self.obs
        use_coarse = (
            self.coarsen
            if self.coarsen != "auto"
            else graph.num_ops >= self.coarsen_threshold
        )
        if warm_start is not None:
            mode = "warm"
        elif use_coarse:
            mode = "coarse"
        else:
            mode = "incremental"
        with obs.events.span(
            "search.osdpos", graph=graph.name, ops=graph.num_ops, mode=mode
        ) as span:
            if warm_start is not None:
                result = self._run_warm(graph, warm_start)
            elif use_coarse:
                result = self._run_coarse(graph)
            else:
                result = self._run_incremental(graph)
            result.mode = mode
            span.set(
                makespan=result.finish_time,
                splits=len(result.strategy.split_list),
                counters=result.metrics,
            )
        obs.provenance.record(graph.name, mode, result)
        return result

    # ------------------------------------------------------------------
    # Coarse path: hierarchical search over a contracted graph
    # ------------------------------------------------------------------
    def _coarse_engine(
        self, plan: CoarsePlan, memo: SuperMemo
    ) -> DPOS:
        """A DPOS over ``plan``, sharing this engine's models.

        Coarse nodes are priced by :class:`SuperComputationModel` (exact
        member sums, memoized across re-contractions); communication uses
        the fine model unchanged because the plan's producer rows carry
        the fine boundary tensors' bytes.  The engine runs over ``plan``
        itself, which serves its cost cache from its lists.
        """
        engine = DPOS(
            self.dpos.topology,
            SuperComputationModel(self.dpos.computation, plan, memo),
            self.dpos.communication,
            obs=self.obs,
        )
        engine.capacities = dict(self.dpos.capacities)
        engine.insertion_scheduling = self.dpos.insertion_scheduling
        return engine

    def _run_coarse(self, graph: Graph) -> OSDPOSResult:
        """Hierarchical OS-DPOS: place coarse, refine splits fine.

        Placement and ordering run over the contracted graph (the cost
        aggregates are exact, so the coarse makespan estimate is the fine
        serial-member schedule's); split candidates are fine ops drawn
        from the members of coarse critical-path nodes, each evaluated by
        re-contracting the mutated fine graph.  The final coarse
        strategy expands losslessly to a complete fine placement/order.
        """
        working = _WorkingGraph(graph)
        memo: SuperMemo = {}
        plan = contract_graph(
            graph, target=self.coarsen_target, events=self.obs.events
        )
        engine = self._coarse_engine(plan, memo)
        cache = CostCache(
            plan, engine.computation, engine.communication,
            engine.topology.device_names,
        )
        initial = engine.run(plan, cost_cache=cache)
        cp_ops = (
            self._coarse_candidate_ops(plan, initial, cache)
            if self.split_counts else []
        )[: self.max_candidate_ops]

        def schedule() -> DPOSResult:
            candidate = contract_graph(
                working.graph, target=self.coarsen_target,
                events=self.obs.events,
            )
            return self._coarse_engine(candidate, memo).run(candidate)

        def recontract(_touched: Set[str]) -> None:
            # The transaction name counters were restored by each undo,
            # so the committed sub-ops carry the names the evaluation saw
            # and this re-contraction reproduces the evaluated coarse
            # graph verbatim.
            nonlocal plan
            plan = contract_graph(
                working.graph, target=self.coarsen_target,
                events=self.obs.events,
            )

        best, split_list, rounds = self._walk(
            working, initial, cp_ops,
            schedule=schedule,
            touched=lambda _names: None,
            committed=recontract,
        )
        result = self._package(
            working.result(split_list),
            self._expand_result(plan, best, split_list),
            split_list, initial, cp_ops, rounds,
        )
        result.coarse_plan = plan
        return result

    def _coarse_candidate_ops(
        self, plan: CoarsePlan, result: DPOSResult, cache: CostCache
    ) -> List[str]:
        """Fine split candidates from the coarse critical path.

        The coarse CP is computed under the committed coarse placement
        (same recipe as the flat search, priced through the coarse
        engine's ``cache``); its nodes then expand to their fine members,
        ranked by computation time on the device the member inherits.
        Those are the member times the cache fill summed.
        """
        coarse_cp = self._placement_critical_path(result, cache)
        placement = result.strategy.placement
        member_times = cache.computation.member_times
        node_of = {name: node for node, name in enumerate(plan.names)}
        names = plan.fine_index.names
        pairs: List[Tuple[str, float]] = []
        for coarse_name in coarse_cp:
            node = node_of[coarse_name]
            times = member_times(node, placement[coarse_name])
            for i, weight in zip(plan.member_ids[node], times):
                if weight > 0.0:
                    pairs.append((names[i], weight))
        return [name for name, _ in sorted(pairs, key=lambda p: -p[1])]

    def _expand_result(
        self,
        plan: CoarsePlan,
        coarse: DPOSResult,
        split_list: List[SplitDecision],
    ) -> DPOSResult:
        """Lossless expansion of a coarse schedule to the fine graph.

        Members inherit their super-op's device; the fine order expands
        each coarse slot into its members' fine topological order (a
        valid fine topological order).  Times/ranks are the coarse
        aggregates each member belongs to; ``decisions`` stay keyed by
        coarse node so provenance can report the super-op that absorbed
        an op (see ``OSDPOSResult.coarse_members``).
        """
        def build() -> Dict[str, object]:
            fields: Dict[str, object] = {
                "start_times": {}, "finish_times": {}, "ranks": {},
            }
            names = plan.fine_index.names
            for coarse_name, ids in zip(plan.names, plan.member_ids):
                for key, value in fields.items():
                    coarse_value = getattr(coarse, key)[coarse_name]
                    for i in ids:
                        value[names[i]] = coarse_value  # type: ignore[index]
            fields["critical_path"] = plan.expand_order(coarse.critical_path)
            fields["strategy"] = Strategy(
                placement=plan.expand_placement(coarse.strategy.placement),
                order=plan.expand_order(coarse.strategy.order),
                split_list=split_list,
                estimated_time=coarse.finish_time,
                label="os-dpos" if split_list else "dpos",
            )
            return fields

        return DPOSResult(coarse.finish_time, build, coarse.decisions)

    # ------------------------------------------------------------------
    # Warm path: replay a cached partition list, schedule once
    # ------------------------------------------------------------------
    def _run_warm(self, graph: Graph, seed: WarmStartSeed) -> OSDPOSResult:
        """Seed the search from a cached strategy (Alg. 2 skipped).

        Each :class:`SplitDecision` of the seed is replayed onto a
        working copy through the transactional rewrite machinery —
        decisions whose op vanished from the edited graph, or whose
        dimension can no longer accommodate the split count, are
        skipped rather than failing the request.  One DPOS pass then
        prices the replayed partition list on this graph.  The result
        costs O(splits + one placement) instead of a full critical-path
        walk; the safety valve below reverts to the cold search when
        the replay is evidently a bad fit.
        """
        obs = self.obs
        working = _WorkingGraph(graph)
        devices = self.dpos.topology.device_names
        applied: List[SplitDecision] = []
        skipped = 0
        # An options bundle with splitting disabled never replays splits
        # (the fingerprint the seed was cached under implies it had them
        # enabled, but a mismatched caller must still get what its own
        # options promise).
        decisions = seed.split_list if self.split_counts else []
        for decision in decisions:
            if decision.op_name not in working.graph:
                skipped += 1
                continue
            if not working.graph.get_op(decision.op_name).is_splittable:
                skipped += 1
                continue
            txn = working.split(
                decision.op_name, decision.dim, decision.num_splits
            )
            try:
                txn.apply()
            except SplitError:
                skipped += 1
                continue
            txn.commit()
            applied.append(decision)
        cache = CostCache(
            working.graph, self.dpos.computation, self.dpos.communication,
            devices,
        )
        if obs.enabled:
            cache.enable_stats()
        best = self.dpos.run(working.graph, cost_cache=cache)

        reference = seed.reference_makespan
        if (
            reference is not None
            and reference > 0.0
            and best.finish_time > seed.safety_factor * reference
        ):
            # Safety valve: the cached strategy evidently no longer fits
            # this graph (the edit moved the bottleneck); pay for a cold
            # search rather than serve a degenerate schedule.
            if obs.events.enabled:
                obs.events.emit(
                    "search.warm.fallback",
                    graph=graph.name,
                    makespan=best.finish_time,
                    reference=reference,
                    factor=seed.safety_factor,
                    source=seed.source,
                )
            result = self._run_incremental(graph)
            result.metrics["search.warm_fallbacks"] = 1
            return result

        if obs.events.enabled:
            obs.events.emit(
                "search.warm",
                graph=graph.name,
                applied=len(applied),
                skipped=skipped,
                makespan=best.finish_time,
                source=seed.source,
            )
        result = self._package(
            working.result(applied), best, applied, best, [], [], cache=cache
        )
        result.strategy.label = "warm-start"
        result.metrics["search.warm_runs"] = 1
        result.metrics["search.warm_splits_applied"] = len(applied)
        result.metrics["search.warm_splits_skipped"] = skipped
        return result

    # ------------------------------------------------------------------
    # Incremental path: one working graph, transactional candidates
    # ------------------------------------------------------------------
    def _run_incremental(self, graph: Graph) -> OSDPOSResult:
        devices = self.dpos.topology.device_names
        cache = CostCache(
            graph, self.dpos.computation, self.dpos.communication, devices
        )
        if self.obs.enabled:
            cache.enable_stats()
        working = _WorkingGraph(graph, on_copy=cache.rebind)
        initial = self.dpos.run(graph, cost_cache=cache)
        cp_ops = (
            self._placement_critical_path(initial, cache)
            if self.split_counts else []
        )[: self.max_candidate_ops]
        best, split_list, rounds = self._walk(
            working, initial, cp_ops,
            schedule=lambda: self.dpos.run(working.graph, cost_cache=cache),
            touched=cache.invalidate,
            committed=cache.invalidate,
        )
        return self._package(
            working.result(split_list), best, split_list, initial, cp_ops,
            rounds, cache=cache,
        )

    # ------------------------------------------------------------------
    # Alg. 2's greedy walk, shared by the incremental and coarse paths
    # ------------------------------------------------------------------
    def _walk(
        self,
        working: _WorkingGraph,
        best: DPOSResult,
        cp_ops: List[str],
        *,
        schedule: Callable[[], DPOSResult],
        touched: Callable[[Set[str]], None],
        committed: Callable[[Set[str]], None],
    ) -> Tuple[DPOSResult, List[SplitDecision], List[OpRound]]:
        """Try to split each critical-path op in turn.

        Every candidate of an op is scored by :meth:`_best_split`
        (``schedule`` and ``touched`` pass through); the best one is
        committed if it beats the incumbent, and ``committed`` hears the
        op names the commit touched.  The first op whose best candidate
        does not improve stops the walk (the paper's early exit).
        Returns the final schedule, the committed splits and one
        :class:`OpRound` per examined op.
        """
        split_list: List[SplitDecision] = []
        rounds: List[OpRound] = []
        events = self.obs.events
        for op_index, op_name in enumerate(cp_ops):
            if op_name not in working.graph:
                continue  # consumed by an earlier committed split
            op = working.graph.get_op(op_name)
            if not op.is_splittable:
                continue
            rnd = OpRound(op_name, incumbent=best.finish_time)
            rounds.append(rnd)
            with events.span(
                "search.op", op=op_name, index=op_index + 1,
                total=len(cp_ops), incumbent=best.finish_time,
            ) as span:
                rnd.candidates, outcome = self._best_split(
                    working, op, schedule, touched
                )
                if outcome is None:
                    rnd.verdict = "no-candidates"
                    span.set(verdict=rnd.verdict)
                    continue  # no structurally possible split
                candidate, decision, result = outcome
                rnd.best_makespan = result.finish_time
                if not result.finish_time < best.finish_time:
                    rnd.verdict = "rejected"
                    span.set(verdict=rnd.verdict, makespan=rnd.best_makespan)
                    break  # first non-improving CP op stops the search
                txn = working.split(op_name, decision.dim, decision.num_splits)
                txn.apply()
                rnd.verdict = "committed"
                rnd.accepted = (decision.dim, decision.num_splits)
                rnd.sub_ops = [o.name for o in txn.sub_ops]
                candidate.verdict = "accepted"
                committed(txn.commit())
                split_list.append(decision)
                best = result
                events.emit(
                    "search.commit", op=op_name, dim=decision.dim,
                    num_splits=decision.num_splits, makespan=best.finish_time,
                )
                span.set(verdict="accepted", makespan=best.finish_time)
        return best, split_list, rounds

    def _best_split(
        self,
        working: _WorkingGraph,
        op: Operation,
        schedule: Callable[[], DPOSResult],
        touched: Callable[[Set[str]], None],
    ) -> Tuple[
        List[SplitCandidate],
        Optional[Tuple[SplitCandidate, SplitDecision, DPOSResult]],
    ]:
        """Apply, schedule and undo every (dim, count) candidate of ``op``.

        ``schedule()`` prices ``working`` with the candidate applied;
        ``touched`` hears the op names every apply and undo changed.
        Returns a :class:`SplitCandidate` per (dim, count) tried, and
        the best scheduled one with its decision and schedule (``None``
        when every candidate was infeasible).
        """
        candidates: List[SplitCandidate] = []
        best: Optional[Tuple[SplitCandidate, SplitDecision, DPOSResult]] = None
        for dim, count in itertools.product(
            sorted(op.split_dims), self.split_counts
        ):
            txn = working.split(op.name, dim, count)
            try:
                txn.apply()
            except SplitError:
                touched(txn.touched)
                candidates.append(SplitCandidate(dim, count, "infeasible"))
                continue  # extent too small for this count, etc.
            touched(txn.touched)
            result = schedule()
            candidate = SplitCandidate(dim, count, "rejected", result.finish_time)
            candidates.append(candidate)
            touched(txn.undo())
            if best is None or result.finish_time < best[2].finish_time:
                best = (candidate, txn.decision, result)
        return candidates, best

    # ------------------------------------------------------------------
    def _package(
        self,
        graph: Graph,
        best: DPOSResult,
        split_list: List[SplitDecision],
        initial: DPOSResult,
        candidate_ops: List[str],
        rounds: List[OpRound],
        cache: Optional[CostCache] = None,
    ) -> OSDPOSResult:
        strategy = Strategy(
            placement=dict(best.strategy.placement),
            order=list(best.strategy.order),
            split_list=split_list,
            estimated_time=best.finish_time,
            label="os-dpos" if split_list else "dpos",
        )
        metrics = MetricsSnapshot({
            "search.candidates_evaluated": sum(
                c.verdict != "infeasible" for r in rounds for c in r.candidates
            ),
            "search.splits_rejected": sum(r.verdict == "rejected" for r in rounds),
            "search.splits_committed": len(split_list),
        })
        if cache is not None:
            for key, value in cache.stats().items():
                metrics[f"search.cache.{key}"] = value
        return OSDPOSResult(
            graph=graph,
            strategy=strategy,
            finish_time=best.finish_time,
            dpos_result=best,
            metrics=metrics,
            initial_finish=initial.finish_time,
            candidate_ops=candidate_ops,
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    def _placement_critical_path(
        self, result: DPOSResult, cache: CostCache
    ) -> List[str]:
        """Critical path under the committed placement (Alg. 2 lines 4-5).

        Ranks are recomputed with the *assigned-device* computation time
        and the *assigned-pair* communication time, then the path is
        sorted by decreasing computation time on the assigned device.
        ``cache`` is the run's cost cache over the scheduled graph, so the
        costs come from the same models the placement used.
        """
        index = {d: k for k, d in enumerate(cache.devices)}
        placement = result.strategy.placement
        order = cache.topological_order()
        names, times = cache.names, cache.times
        preds, pred_bytes = cache.preds, cache.pred_bytes
        num_devices = len(cache.devices)
        device = [0] * len(names)
        weight = [0.0] * len(names)
        for i in order:
            device[i] = k = index[placement[names[i]]]
            weight[i] = times[i][k]
        # Upward ranks pushed from each op to its producers: tail[p] is
        # the max over p's consumers j of (c_pj + rank_j).
        rank = [0.0] * len(names)
        tail: List[Optional[float]] = [None] * len(names)
        for j in reversed(order):
            rest = tail[j]
            rank[j] = weight[j] if rest is None else weight[j] + rest
            for p, num_bytes in zip(preds[j], pred_bytes[j]):
                row = cache.transfer_row(num_bytes)
                value = row[device[p] * num_devices + device[j]] + rank[j]
                if tail[p] is None or value > tail[p]:
                    tail[p] = value
        path = max_rank_chain(
            [i for i in order if not preds[i]], cache.succs.__getitem__,
            lambda i: (rank[i], names[i]),
        )
        return [
            names[i]
            for i in sorted(path, key=lambda i: -weight[i])
            if weight[i] > 0.0
        ]
