"""Discrete-event multi-GPU training-step simulator (the testbed stand-in)."""

from .memory import MemoryTracker, SimulationOOMError
from .runner import FIFO, PRIORITY, ExecutionSimulator, SimulationError

__all__ = [
    "ExecutionSimulator",
    "FIFO",
    "MemoryTracker",
    "PRIORITY",
    "SimulationError",
    "SimulationOOMError",
]
