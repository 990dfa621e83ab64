"""Profiler: runs training steps and feeds traces into the cost models.

This plays the role of FastT's extended TensorFlow tracer (Sec. 6.1,
Cost Model): it executes a few iterations of the current strategy on the
simulated testbed, then pushes per-op execution times into the
computation cost model and per-transfer times into the communication
regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from ..costmodel import CommunicationCostModel, ComputationCostModel
from ..graph import Graph
from .trace import StepTrace

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> profiling cycle
    from ..sim import ExecutionSimulator


def update_cost_models(
    graph: Graph,
    traces: Sequence[StepTrace],
    computation: ComputationCostModel,
    communication: CommunicationCostModel,
) -> None:
    """Ingest step traces into both cost models.

    Reads each trace's columns in one pass per model, in record order,
    so every running mean and sample window ends exactly where one
    ``observe`` call per record would leave it.
    """

    def bytes_accessed(op_name: str) -> int:
        return graph.get_op(op_name).bytes_accessed if op_name in graph else 0

    for trace in traces:
        names, types, devices, starts, ends = trace.op_columns()
        computation.observe_many(
            names, types, devices,
            [end - start for start, end in zip(starts, ends)],
            bytes_accessed,
        )
        srcs, dsts, sizes, starts, ends = trace.transfer_columns()
        communication.observe_many(
            srcs, dsts, sizes, [end - start for start, end in zip(starts, ends)]
        )


@dataclass
class ProfileResult:
    """Traces plus the aggregate the strategy calculator decides on."""

    traces: List[StepTrace]

    @property
    def mean_iteration_time(self) -> float:
        if not self.traces:
            return float("inf")
        return sum(t.makespan for t in self.traces) / len(self.traces)


class Profiler:
    """Profiles a (placement, order) strategy over several iterations."""

    def __init__(
        self,
        simulator: "ExecutionSimulator",
        computation: ComputationCostModel,
        communication: CommunicationCostModel,
    ) -> None:
        self.simulator = simulator
        self.computation = computation
        self.communication = communication

    def profile(
        self,
        placement: Mapping[str, str],
        order: Optional[Sequence[str]] = None,
        num_steps: int = 3,
        update_models: bool = True,
    ) -> ProfileResult:
        """Run ``num_steps`` iterations; optionally update the cost models.

        A non-empty ``order`` is enforced as priorities; none is FIFO.
        """
        traces = [
            self.simulator.run_step(placement, order=order)
            for _ in range(num_steps)
        ]
        if update_models:
            update_cost_models(
                self.simulator.graph, traces, self.computation, self.communication
            )
        return ProfileResult(traces=traces)
