"""Plain-data records of the search's decisions.

DPOS builds one :class:`PlacementDecision` per op when provenance is on;
OS-DPOS builds one :class:`OpRound` per examined critical-path op, with a
:class:`SplitCandidate` per (dim, count) it tried, on every run and
returns them on its result.  :mod:`repro.obs.provenance` journals these
records as they are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class PlacementAlternative:
    """One device DPOS weighed for an op, with the score it compared."""

    device: str
    #: The number the selection compared: EFT for min-EFT placement,
    #: average CP-op time for critical-path device selection.
    score: Optional[float] = None
    #: Earliest start (min-EFT path only).
    start: Optional[float] = None
    feasible: bool = True
    chosen: bool = False
    note: str = ""

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "PlacementAlternative":
        return cls(
            device=str(data["device"]),
            score=None if data.get("score") is None else float(data["score"]),  # type: ignore[arg-type]
            start=None if data.get("start") is None else float(data["start"]),  # type: ignore[arg-type]
            feasible=bool(data.get("feasible", True)),
            chosen=bool(data.get("chosen", False)),
            note=str(data.get("note", "")),
        )


@dataclass
class PlacementDecision:
    """Why one op landed on one device in one DPOS schedule."""

    op_name: str
    device: str
    #: ``colocated`` | ``critical-path`` | ``min-eft`` | ``memory-overflow``
    reason: str
    start: float
    finish: float
    #: Upward rank that prioritized the op in the placement sequence.
    rank: Optional[float] = None
    on_critical_path: bool = False
    alternatives: List[PlacementAlternative] = field(default_factory=list)

    @property
    def predicted_time(self) -> float:
        return self.finish - self.start

    @property
    def chosen_alternative(self) -> Optional[PlacementAlternative]:
        for alt in self.alternatives:
            if alt.chosen:
                return alt
        return None

    def to_json(self) -> Dict[str, object]:
        data = asdict(self)
        data["alternatives"] = [a.to_json() for a in self.alternatives]
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "PlacementDecision":
        return cls(
            op_name=str(data["op_name"]),
            device=str(data["device"]),
            reason=str(data["reason"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            finish=float(data["finish"]),  # type: ignore[arg-type]
            rank=None if data.get("rank") is None else float(data["rank"]),  # type: ignore[arg-type]
            on_critical_path=bool(data.get("on_critical_path", False)),
            alternatives=[
                PlacementAlternative.from_json(a)
                for a in data.get("alternatives", [])  # type: ignore[union-attr]
            ],
        )


@dataclass
class SplitCandidate:
    """One (dimension, split count) OS-DPOS tried for one op."""

    dim: str
    num_splits: int
    #: ``accepted`` | ``rejected`` | ``infeasible`` (older journals may
    #: also hold ``pruned``, from a since-removed lower-bound filter)
    verdict: str
    #: Simulated DPOS finish time (evaluated candidates only).
    makespan: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SplitCandidate":
        makespan = data.get("makespan")
        return cls(
            dim=str(data["dim"]),
            num_splits=int(data["num_splits"]),  # type: ignore[arg-type]
            verdict=str(data["verdict"]),
            makespan=None if makespan is None else float(makespan),  # type: ignore[arg-type]
        )

    def describe(self) -> str:
        label = f"dim={self.dim} x{self.num_splits}"
        if self.verdict == "infeasible":
            return f"{label}: infeasible (rewrite failed)"
        detail = "" if self.makespan is None else f" -> makespan {self.makespan:.6g}s"
        return f"{label}: {self.verdict}{detail}"


@dataclass
class OpRound:
    """OS-DPOS examining one critical-path op's split candidates."""

    op_name: str
    #: ``committed`` | ``rejected`` | ``no-candidates`` | ``examined``
    verdict: str = "examined"
    #: Finish time a candidate had to beat when this round started.
    incumbent: Optional[float] = None
    #: Best simulated makespan among evaluated candidates.
    best_makespan: Optional[float] = None
    #: The committed (dim, num_splits), when ``verdict == "committed"``.
    accepted: Optional[Tuple[str, int]] = None
    #: Sub-op names the committed split created.
    sub_ops: List[str] = field(default_factory=list)
    candidates: List[SplitCandidate] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "op_name": self.op_name,
            "verdict": self.verdict,
            "incumbent": self.incumbent,
            "best_makespan": self.best_makespan,
            "accepted": list(self.accepted) if self.accepted else None,
            "sub_ops": list(self.sub_ops),
            "candidates": [c.to_json() for c in self.candidates],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "OpRound":
        accepted = data.get("accepted")
        return cls(
            op_name=str(data["op_name"]),
            verdict=str(data.get("verdict", "examined")),
            incumbent=(
                None if data.get("incumbent") is None
                else float(data["incumbent"])  # type: ignore[arg-type]
            ),
            best_makespan=(
                None if data.get("best_makespan") is None
                else float(data["best_makespan"])  # type: ignore[arg-type]
            ),
            accepted=(
                None if accepted is None
                else (str(accepted[0]), int(accepted[1]))  # type: ignore[index]
            ),
            sub_ops=[str(s) for s in data.get("sub_ops", [])],  # type: ignore[union-attr]
            candidates=[
                SplitCandidate.from_json(c)
                for c in data.get("candidates", [])  # type: ignore[union-attr]
            ],
        )

    def describe(self) -> str:
        head = f"round {self.op_name}: {self.verdict}"
        if self.verdict == "committed" and self.accepted is not None:
            head += f" split dim={self.accepted[0]} x{self.accepted[1]}"
            if self.best_makespan is not None and self.incumbent is not None:
                head += (
                    f" (makespan {self.best_makespan:.6g}s"
                    f" < incumbent {self.incumbent:.6g}s)"
                )
        elif self.verdict == "rejected":
            if self.best_makespan is not None and self.incumbent is not None:
                head += (
                    f" (best candidate {self.best_makespan:.6g}s"
                    f" >= incumbent {self.incumbent:.6g}s)"
                )
        return head
