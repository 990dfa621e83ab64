"""FastT's core: DPOS, OS-DPOS, strategy calculator, transparent session."""

from .calculator import (
    CalculationReport,
    FastTConfig,
    RoundRecord,
    StrategyCalculator,
)
from .context import SearchContext, WarmStartSeed
from .dpos import DPOS, DPOSResult
from .os_dpos import OSDPOS, OSDPOSResult, SearchOptions, default_split_counts
from .placer import PlacementError, apply_placement
from .session import FastTSession, fits_on_single_device
from .strategy import Strategy

__all__ = [
    "CalculationReport",
    "DPOS",
    "DPOSResult",
    "FastTConfig",
    "FastTSession",
    "OSDPOS",
    "OSDPOSResult",
    "PlacementError",
    "RoundRecord",
    "SearchContext",
    "SearchOptions",
    "Strategy",
    "StrategyCalculator",
    "WarmStartSeed",
    "apply_placement",
    "default_split_counts",
    "fits_on_single_device",
]
