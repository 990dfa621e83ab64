"""Shared fixtures/utilities for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's
evaluation.  Metrics of interest are *simulated* quantities (training
speed, per-iteration time) printed as tables; pytest-benchmark records
the harness wall time, which is only itself the headline metric for
Table 4 (strategy-computation time).

Run with::

    pytest benchmarks/ --benchmark-only -s

Results are cached under ``benchmarks/.cache`` so repeated runs are fast;
delete that directory to force recomputation.

Pass ``--trace-dir DIR`` (or set ``REPRO_TRACE_DIR``) to export, per
trial, a Chrome-trace timeline (``*.trace.json``, loadable in
``chrome://tracing`` / Perfetto), a metrics JSON, and a simulated-step
trace — plus one ``<tag>.csv`` per benchmark table.  Set
``REPRO_BENCH_MODELS=lenet,alexnet`` to restrict model sweeps (CI smoke).

Every simulated step time the benchmarks measure under
``REPRO_BENCH_MODELS=lenet,alexnet`` is pinned by ``repr`` in
``step_time_pins.json`` (see :class:`StepTimePins`): a faster path must
not change a single simulated number.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.experiments import harness
from repro.obs import write_rows_csv

_PINS_PATH = os.path.join(os.path.dirname(__file__), "step_time_pins.json")


def pytest_addoption(parser):
    parser.addoption(
        "--trace-dir",
        action="store",
        default=os.environ.get("REPRO_TRACE_DIR"),
        help=(
            "Directory receiving per-trial Chrome traces, metrics JSON, "
            "and per-table CSV exports"
        ),
    )
    parser.addoption(
        "--progress",
        action="store_true",
        default=os.environ.get("REPRO_PROGRESS", "") == "1",
        help=(
            "Render live strategy-search progress per trial (the "
            "repro.obs event-bus TTY renderer)"
        ),
    )


def pytest_configure(config):
    trace_dir = config.getoption("--trace-dir", default=None)
    if trace_dir:
        harness.set_trace_dir(trace_dir)
    if config.getoption("--progress", default=False):
        harness.set_progress(True)


def export_rows(
    tag: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> Optional[str]:
    """Write one benchmark table as ``<trace-dir>/<tag>.csv`` (if enabled)."""
    trace_dir = harness.get_trace_dir()
    if not trace_dir:
        return None
    return write_rows_csv(os.path.join(trace_dir, f"{tag}.csv"), headers, rows)


def _wanted_models() -> Set[str]:
    env = os.environ.get("REPRO_BENCH_MODELS", "")
    return {m.strip() for m in env.split(",") if m.strip()}


def models_under_test(models: Sequence[str]) -> Tuple[str, ...]:
    """Apply the ``REPRO_BENCH_MODELS`` comma-list filter to a sweep."""
    wanted = _wanted_models()
    filtered = tuple(m for m in models if m in wanted)
    return filtered or tuple(models)


class StepTimePins:
    """Exact simulated step times of one benchmark file.

    ``step_time_pins.json`` holds, per benchmark file, the ``repr`` of
    every step time its sweep measures under the pinned model filter
    (``REPRO_BENCH_MODELS=lenet,alexnet``).  :meth:`check` asserts a
    pinned value wherever it is produced, under any filter.  Under the
    pinned filter :meth:`assert_complete` also fails on a pin the sweep
    never reached, so shrinking a sweep cannot skip a pin silently.
    """

    def __init__(self, bench_file: str) -> None:
        self.group = os.path.splitext(os.path.basename(bench_file))[0]
        with open(_PINS_PATH) as handle:
            document = json.load(handle)
        self.pins = document["pins"][self.group]
        self.pinned_filter = _wanted_models() == set(document["models"])
        self.checked: Set[str] = set()

    def check(self, stem: str, step_time: float) -> None:
        pin = self.pins.get(stem)
        if pin is None:
            return
        assert repr(step_time) == pin, (
            f"{self.group}: {stem} step time moved: {step_time!r} != {pin}"
        )
        self.checked.add(stem)

    def check_trial(self, result: harness.TrialResult) -> harness.TrialResult:
        self.check(harness.trial_stem(result), result.iteration_time)
        return result

    def assert_complete(self) -> None:
        if self.pinned_filter:
            missing = sorted(set(self.pins) - self.checked)
            assert not missing, f"{self.group}: pins never checked: {missing}"


MODEL_LABELS = {
    "inception_v3": "Inception_v3",
    "vgg19": "VGG-19",
    "resnet200": "ResNet200",
    "lenet": "LeNet",
    "alexnet": "AlexNet",
    "gnmt": "GNMT(4 layers)",
    "rnnlm": "RNNLM",
    "transformer": "Transformer",
    "bert_large": "Bert-large",
}


def label(model_name: str) -> str:
    return MODEL_LABELS.get(model_name, model_name)
