"""Search provenance: the decision journal behind DPOS / OS-DPOS.

FastT's pitch over RL placers is that its search is *white-box* — every
placement comes out of an inspectable heuristic.  This module makes that
inspectable in practice: with ``Observability(provenance=True)`` every
decision the engines take lands in a journal —

* **DPOS** records, per op, the chosen device, the reason
  (``colocated`` / ``critical-path`` / ``min-eft`` /
  ``memory-overflow``), the rank that prioritized it, and every
  alternative device considered with its score (EFT for min-EFT ops,
  average critical-path time for CP devices);
* **OS-DPOS** records, per examined critical-path op, every split
  candidate with its verdict — ``accepted`` / ``rejected`` (simulated
  makespan did not beat the incumbent) / ``infeasible`` (the rewrite
  itself failed) — plus the makespan that justified it.

Both are plain records of :mod:`repro.core.records`.  Each OS-DPOS
search returns its rounds on its ``OSDPOSResult`` whether or not it is
observed, and :meth:`ProvenanceRecorder.record` copies them into the
journal at one site, at the end of the search.

The journal persists alongside StepTraces with versioned save/load and
answers "why is op X on device Y?" through
:meth:`ProvenanceJournal.explain`, surfaced as
``OptimizeResult.explain_placement("op")`` and the CLI::

    python -m repro.obs explain <trace-dir> --op <name>

The default is a shared no-op recorder (``repro.obs.NULL_PROVENANCE``),
so un-observed runs pay nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core import DPOSResult, OSDPOSResult
from ..core.records import OpRound, PlacementDecision
# Re-exported: the journal module stays the public home of its records.
from ..core.records import PlacementAlternative, SplitCandidate  # noqa: F401

#: Journal file-format version; bump on incompatible changes.
PROVENANCE_SCHEMA_VERSION = 1


class ProvenanceError(ValueError):
    """An explain query cannot be answered from the journal."""


class ProvenanceSchemaError(ProvenanceError):
    """A persisted journal has an unknown or malformed schema."""


@dataclass
class SearchRecord:
    """One DPOS / OS-DPOS invocation's full decision record."""

    search_id: int
    graph: str
    #: ``dpos`` (plain placement) | ``incremental`` | ``coarse`` | ``warm``
    mode: str
    #: Critical-path ops the split search examined, in walk order.
    candidate_ops: List[str] = field(default_factory=list)
    initial_finish: Optional[float] = None
    final_finish: Optional[float] = None
    rounds: List[OpRound] = field(default_factory=list)
    #: Final per-op placement decisions of the winning schedule.  Under
    #: hierarchical (coarsened) search these are keyed by *coarse* op
    #: name; ``super_ops`` expands them back to fine ops.
    decisions: Dict[str, PlacementDecision] = field(default_factory=dict)
    #: Super-op name -> member fine-op names, for searches that ran on a
    #: coarsened graph.  Empty for flat searches.
    super_ops: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def committed_splits(self) -> List[OpRound]:
        return [r for r in self.rounds if r.verdict == "committed"]

    def super_of(self, op_name: str) -> Optional[str]:
        """The super-op that absorbed ``op_name``, if this search
        coarsened and the op is a (non-trivial) member."""
        for super_name, members in self.super_ops.items():
            if op_name in members and op_name != super_name:
                return super_name
        return None

    def parent_of(self, op_name: str) -> Optional[str]:
        """The op whose committed split created ``op_name``, if any."""
        for rnd in self.rounds:
            if op_name in rnd.sub_ops:
                return rnd.op_name
        return None

    def to_json(self) -> Dict[str, object]:
        return {
            "search_id": self.search_id,
            "graph": self.graph,
            "mode": self.mode,
            "candidate_ops": list(self.candidate_ops),
            "initial_finish": self.initial_finish,
            "final_finish": self.final_finish,
            "rounds": [r.to_json() for r in self.rounds],
            "decisions": {
                name: d.to_json() for name, d in sorted(self.decisions.items())
            },
            "super_ops": {
                name: list(members)
                for name, members in sorted(self.super_ops.items())
            },
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SearchRecord":
        return cls(
            search_id=int(data["search_id"]),  # type: ignore[arg-type]
            graph=str(data.get("graph", "")),
            mode=str(data.get("mode", "")),
            candidate_ops=[str(o) for o in data.get("candidate_ops", [])],  # type: ignore[union-attr]
            initial_finish=(
                None if data.get("initial_finish") is None
                else float(data["initial_finish"])  # type: ignore[arg-type]
            ),
            final_finish=(
                None if data.get("final_finish") is None
                else float(data["final_finish"])  # type: ignore[arg-type]
            ),
            rounds=[
                OpRound.from_json(r) for r in data.get("rounds", [])  # type: ignore[union-attr]
            ],
            decisions={
                str(name): PlacementDecision.from_json(d)
                for name, d in dict(data.get("decisions", {})).items()  # type: ignore[arg-type]
            },
            super_ops={
                str(name): [str(m) for m in members]
                for name, members in dict(data.get("super_ops", {})).items()  # type: ignore[arg-type]
            },
        )


# ----------------------------------------------------------------------
# Explain
# ----------------------------------------------------------------------
@dataclass
class OpExplanation:
    """The full decision chain for one (sub-)op, ready to render."""

    op_name: str
    search_id: int
    #: Final placement decision; ``None`` when the op no longer exists in
    #: the deployed graph (it was consumed by a committed split).
    decision: Optional[PlacementDecision]
    #: The split rounds that shaped this op: its own examination plus the
    #: rounds of every ancestor whose split produced it.
    rounds: List[OpRound] = field(default_factory=list)
    #: The op whose committed split created this op, if any.
    parent: Optional[str] = None
    #: Sub-ops a committed split of *this* op created, if any.
    sub_ops: List[str] = field(default_factory=list)
    #: The super-op this op was absorbed into under a coarsened search;
    #: ``decision`` is then the super-op's (shared by every member).
    super_op: Optional[str] = None
    #: The full member list of ``super_op``.
    members: List[str] = field(default_factory=list)
    #: False when the journal entry's search did not produce the final
    #: deployed strategy (e.g. the initial strategy won the measurement).
    matches_strategy: bool = True

    def to_json(self) -> Dict[str, object]:
        return {
            "op_name": self.op_name,
            "search_id": self.search_id,
            "decision": None if self.decision is None else self.decision.to_json(),
            "rounds": [r.to_json() for r in self.rounds],
            "parent": self.parent,
            "sub_ops": list(self.sub_ops),
            "super_op": self.super_op,
            "members": list(self.members),
            "matches_strategy": self.matches_strategy,
        }

    def render(self) -> str:
        lines: List[str] = []
        d = self.decision
        if self.super_op is not None:
            lines.append(
                f"op {self.op_name}: absorbed into super-op "
                f"{self.super_op} ({len(self.members)} members)"
            )
        if d is None:
            lines.append(
                f"op {self.op_name}: not in the deployed graph "
                f"(consumed by a committed split)"
            )
        else:
            lines.append(
                f"op {self.op_name} -> {d.device} [{d.reason}] "
                f"start {d.start:.6g}s run {d.predicted_time:.6g}s"
                + ("" if d.rank is None else f" rank {d.rank:.6g}")
                + (" (on critical path)" if d.on_critical_path else "")
            )
            if d.alternatives:
                lines.append("  alternatives considered:")
                for alt in d.alternatives:
                    mark = "*" if alt.chosen else " "
                    score = "-" if alt.score is None else f"{alt.score:.6g}s"
                    note = f"  [{alt.note}]" if alt.note else ""
                    infeasible = "" if alt.feasible else "  (infeasible)"
                    lines.append(
                        f"  {mark} {alt.device:<12} score {score}{infeasible}{note}"
                    )
        if self.super_op is not None and self.members:
            shown = ", ".join(self.members[:8])
            more = len(self.members) - 8
            lines.append(
                "  members: " + shown + (f", ... +{more} more" if more > 0 else "")
            )
        if self.parent is not None:
            lines.append(f"  created by splitting {self.parent}")
        if self.sub_ops:
            lines.append("  split into: " + ", ".join(self.sub_ops))
        if self.rounds:
            lines.append("  split verdict chain:")
            for rnd in self.rounds:
                lines.append(f"    {rnd.describe()}")
                for cand in rnd.candidates:
                    lines.append(f"      - {cand.describe()}")
        if not self.matches_strategy:
            lines.append(
                "  note: journal entry from a search whose strategy was not "
                "the one finally deployed"
            )
        return "\n".join(lines)


class ProvenanceJournal:
    """Ordered list of search records with versioned save/load."""

    def __init__(self, searches: Optional[List[SearchRecord]] = None) -> None:
        self.searches: List[SearchRecord] = list(searches or [])

    # ------------------------------------------------------------------
    def ops(self) -> List[str]:
        """Every op name any search decided a placement for."""
        names = set()
        for search in self.searches:
            names.update(search.decisions)
            for rnd in search.rounds:
                names.add(rnd.op_name)
                names.update(rnd.sub_ops)
        return sorted(names)

    # ------------------------------------------------------------------
    @staticmethod
    def _expanded_devices(search: SearchRecord) -> Dict[str, str]:
        """Fine op -> device implied by a search's decisions.

        Flat searches map through unchanged; coarsened searches expand
        each super-op decision to all of its members."""
        devices: Dict[str, str] = {}
        for name, decision in search.decisions.items():
            members = search.super_ops.get(name)
            if members:
                for member in members:
                    devices[member] = decision.device
            else:
                devices[name] = decision.device
        return devices

    def _search_matching(
        self, placement: Optional[Dict[str, str]]
    ) -> Optional[SearchRecord]:
        """Newest search whose final decisions agree with ``placement``."""
        if placement is None:
            return None
        for search in reversed(self.searches):
            if not search.decisions:
                continue
            effective = self._expanded_devices(search)
            if set(effective) != set(placement):
                continue
            if all(
                effective[name] == dev
                for name, dev in placement.items()
            ):
                return search
        return None

    def explain(
        self, op_name: str, placement: Optional[Dict[str, str]] = None
    ) -> OpExplanation:
        """Reconstruct the decision chain for one (sub-)op.

        ``placement`` (the deployed strategy's) selects, among all
        journaled searches, the one that actually produced the deployed
        strategy.  When none matches (e.g. a profiled alternative such
        as plain data parallelism won the measurement, so the deployed
        strategy never went through the search), the best search still
        mentioning the op is used — preferring one that deployed it,
        then one that committed a split of it — and the explanation is
        flagged ``matches_strategy=False``.
        """
        matched = self._search_matching(placement)
        search = matched
        if search is None or not self._mentions(search, op_name):
            search = self._fallback_search(op_name)
        if search is None:
            raise ProvenanceError(
                f"op {op_name!r} appears in no journaled search; "
                f"known ops: {', '.join(self.ops()[:10]) or '(none)'}"
            )

        rounds: List[OpRound] = []
        parent: Optional[str] = search.parent_of(op_name)
        # Ancestor chain first (a sub-op of a sub-op walks all the way up).
        chain: List[str] = []
        cursor: Optional[str] = parent
        seen = {op_name}
        while cursor is not None and cursor not in seen:
            chain.append(cursor)
            seen.add(cursor)
            cursor = search.parent_of(cursor)
        for ancestor in reversed(chain):
            rounds.extend(r for r in search.rounds if r.op_name == ancestor)
        own = [r for r in search.rounds if r.op_name == op_name]
        rounds.extend(own)
        sub_ops = [s for r in own if r.verdict == "committed" for s in r.sub_ops]
        decision = search.decisions.get(op_name)
        super_name: Optional[str] = None
        members: List[str] = []
        if decision is None:
            # Coarsened search: the op was absorbed into a super-op, so
            # report the super-op's decision annotated with the members.
            super_name = search.super_of(op_name)
            if super_name is not None:
                decision = search.decisions.get(super_name)
                members = list(search.super_ops.get(super_name, []))
        return OpExplanation(
            op_name=op_name,
            search_id=search.search_id,
            decision=decision,
            rounds=rounds,
            parent=parent,
            sub_ops=sub_ops,
            super_op=super_name,
            members=members,
            matches_strategy=(placement is None or search is matched),
        )

    def _fallback_search(self, op_name: str) -> Optional[SearchRecord]:
        """Newest search with a decision for the op; else one that
        committed a split of it; else any that merely examined it."""
        committed = examined = None
        for candidate in reversed(self.searches):
            if (
                op_name in candidate.decisions
                or candidate.super_of(op_name) is not None
            ):
                return candidate
            for rnd in candidate.rounds:
                if rnd.op_name != op_name and op_name not in rnd.sub_ops:
                    continue
                if rnd.verdict == "committed" and committed is None:
                    committed = candidate
                elif examined is None:
                    examined = candidate
        return committed or examined

    @staticmethod
    def _mentions(search: SearchRecord, op_name: str) -> bool:
        if op_name in search.decisions:
            return True
        if search.super_of(op_name) is not None:
            return True
        return any(
            rnd.op_name == op_name or op_name in rnd.sub_ops
            for rnd in search.rounds
        )

    def cite(self, op_name: str) -> Optional[str]:
        """One-line journal citation for strategy diffs; None if unknown."""
        try:
            exp = self.explain(op_name)
        except ProvenanceError:
            return None
        d = exp.decision
        if d is None:
            committed = [r for r in exp.rounds if r.op_name == op_name]
            if committed and committed[-1].verdict == "committed":
                return f"{op_name}: {committed[-1].describe()}"
            return f"{op_name}: consumed by a committed split"
        line = f"{op_name} -> {d.device} [{d.reason}]"
        chosen = d.chosen_alternative
        others = sorted(
            (a.score for a in d.alternatives if not a.chosen and a.score is not None),
        )
        if chosen is not None and chosen.score is not None and others:
            line += f" (score {chosen.score:.6g}s vs next {others[0]:.6g}s)"
        return line

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "searches": [s.to_json() for s in self.searches],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ProvenanceJournal":
        if not isinstance(data, dict) or "schema" not in data:
            raise ProvenanceSchemaError(
                "not a provenance journal (missing 'schema')"
            )
        schema = data["schema"]
        if schema != PROVENANCE_SCHEMA_VERSION:
            raise ProvenanceSchemaError(
                f"unsupported provenance schema {schema!r}; "
                f"this build reads version {PROVENANCE_SCHEMA_VERSION}"
            )
        try:
            searches = [
                SearchRecord.from_json(s) for s in data.get("searches", [])  # type: ignore[union-attr]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProvenanceSchemaError(f"malformed journal: {exc}") from exc
        return cls(searches)

    def save(self, path: str) -> str:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
        return path

    @classmethod
    def load(cls, path: str) -> "ProvenanceJournal":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProvenanceSchemaError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_json(data)

    def summary(self, path: str) -> str:
        """One line per search: decisions, rounds, commits and finish."""
        lines = [f"{path}: {len(self.searches)} search(es)"]
        for search in self.searches:
            committed = len(search.committed_splits)
            lines.append(
                f"  #{search.search_id} {search.graph} [{search.mode}] "
                f"{len(search.decisions)} decision(s), "
                f"{len(search.rounds)} round(s), {committed} split(s) committed"
                + (
                    ""
                    if search.initial_finish is None or search.final_finish is None
                    else (
                        f", finish {search.initial_finish:.6g}s"
                        f" -> {search.final_finish:.6g}s"
                    )
                )
            )
        return "\n".join(lines)


class ProvenanceRecorder:
    """The live ``obs.provenance`` hook: journals every search."""

    enabled = True

    def __init__(self) -> None:
        self.journal = ProvenanceJournal()

    def record(
        self, graph: str, mode: str, result: Union[OSDPOSResult, DPOSResult]
    ) -> None:
        """Journal one finished search of the graph named ``graph``.

        A plain DPOS run (mode ``dpos``, splitting disabled) has no split
        rounds and finishes where it started.
        """
        if isinstance(result, DPOSResult):
            final, initial = result, result.finish_time
            ops, rounds, members = [], [], {}
        else:
            final, initial = result.dpos_result, result.initial_finish
            ops, rounds = result.candidate_ops, result.rounds
            members = result.coarse_members
        self.journal.searches.append(SearchRecord(
            search_id=len(self.journal.searches),
            graph=graph,
            mode=mode,
            candidate_ops=list(ops),
            initial_finish=initial,
            final_finish=final.finish_time,
            rounds=list(rounds),
            decisions=dict(final.decisions or {}),
            super_ops={
                name: list(names)
                for name, names in members.items() if len(names) > 1
            },
        ))


if __name__ == "__main__":
    from repro.obs.__main__ import retired

    raise SystemExit(retired("repro.obs.provenance"))
