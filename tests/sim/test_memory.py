"""Tests for the ref-counted device memory tracker."""

import pytest

from repro.sim import SimulationOOMError

from .memory_tracker import MemoryTracker


@pytest.fixture
def tracker():
    return MemoryTracker(capacities={"gpu0": 1000, "gpu1": 500})


class TestAllocate:
    def test_usage_and_peak(self, tracker):
        tracker.allocate("t1", "gpu0", 300, consumers=1)
        tracker.allocate("t2", "gpu0", 200, consumers=1)
        assert tracker.live_bytes("gpu0") == 500
        assert tracker.peak["gpu0"] == 500

    def test_oom_raises(self, tracker):
        with pytest.raises(SimulationOOMError) as excinfo:
            tracker.allocate("big", "gpu1", 501, consumers=1)
        assert excinfo.value.device == "gpu1"
        assert excinfo.value.needed == 501

    def test_oom_disabled_records_only(self):
        tracker = MemoryTracker(capacities={"gpu0": 100}, enforce=False)
        tracker.allocate("big", "gpu0", 500, consumers=1)
        assert tracker.peak["gpu0"] == 500

    def test_double_allocation_adds_references(self, tracker):
        tracker.allocate("t", "gpu0", 100, consumers=1)
        tracker.allocate("t", "gpu0", 100, consumers=1)
        assert tracker.live_bytes("gpu0") == 100, "same copy, not twice the bytes"
        tracker.release("t", "gpu0")
        assert tracker.live_bytes("gpu0") == 100, "second reference still held"
        tracker.release("t", "gpu0")
        assert tracker.live_bytes("gpu0") == 0


class TestRelease:
    def test_freed_after_all_consumers(self, tracker):
        tracker.allocate("t", "gpu0", 400, consumers=3)
        tracker.release("t", "gpu0")
        tracker.release("t", "gpu0")
        assert tracker.live_bytes("gpu0") == 400
        tracker.release("t", "gpu0")
        assert tracker.live_bytes("gpu0") == 0

    def test_peak_not_reduced_by_release(self, tracker):
        tracker.allocate("t", "gpu0", 400, consumers=1)
        tracker.release("t", "gpu0")
        assert tracker.peak["gpu0"] == 400

    def test_zero_consumer_tensor_freed_on_first_release(self, tracker):
        tracker.allocate("t", "gpu0", 100, consumers=0)
        tracker.release("t", "gpu0")
        assert tracker.live_bytes("gpu0") == 0

    def test_release_unknown_is_noop(self, tracker):
        tracker.release("ghost", "gpu0")
        assert tracker.live_bytes("gpu0") == 0


class TestPersistent:
    def test_persistent_never_freed(self, tracker):
        tracker.allocate("weights", "gpu0", 600, consumers=1, persistent=True)
        tracker.release("weights", "gpu0")
        tracker.release("weights", "gpu0")
        assert tracker.live_bytes("gpu0") == 600

    def test_per_device_independence(self, tracker):
        tracker.allocate("t", "gpu0", 300, consumers=1)
        tracker.allocate("t", "gpu1", 300, consumers=1)
        tracker.release("t", "gpu0")
        assert tracker.live_bytes("gpu0") == 0
        assert tracker.live_bytes("gpu1") == 300
