"""Discrete-event multi-GPU training-step simulator (the testbed stand-in)."""

from .runner import (
    FIFO,
    PRIORITY,
    ExecutionSimulator,
    SimulationError,
    SimulationOOMError,
)

__all__ = [
    "ExecutionSimulator",
    "FIFO",
    "PRIORITY",
    "SimulationError",
    "SimulationOOMError",
]
