"""Discrete-event multi-GPU training-step simulator (the testbed stand-in)."""

from .runner import ExecutionSimulator, SimulationError, SimulationOOMError

__all__ = [
    "ExecutionSimulator",
    "SimulationError",
    "SimulationOOMError",
]
