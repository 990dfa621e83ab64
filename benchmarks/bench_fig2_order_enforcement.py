"""Fig. 2 — performance gain of order enforcement (2 GPUs).

For each model, FastT's computed placement runs twice: once with
TensorFlow's default FIFO ready-queue policy and once with the computed
execution order enforced through priorities.  The paper reports up to
26.9% lower per-iteration time with enforcement.
"""

from __future__ import annotations

from conftest import StepTimePins, export_rows, label, models_under_test

from repro.experiments import order_enforcement_comparison
from repro.experiments.paper_reference import FIG2_MAX_ORDER_GAIN
from repro.experiments.reporting import format_table

MODELS = models_under_test(("alexnet", "vgg19", "lenet", "resnet200"))
PINS = StepTimePins(__file__)


def compute_fig2():
    rows = []
    for model in MODELS:
        comparison = order_enforcement_comparison(model, num_gpus=2)
        PINS.check(f"{model}_fig2fifo_2x1", comparison["fifo_time"])
        PINS.check(f"{model}_fig2enforced_2x1", comparison["enforced_time"])
        rows.append(
            [
                label(model),
                comparison["fifo_time"],
                comparison["enforced_time"],
                comparison["gain_percent"],
            ]
        )
    return rows


def test_fig2_order_enforcement(benchmark):
    rows = benchmark.pedantic(compute_fig2, rounds=1, iterations=1)
    PINS.assert_complete()
    headers = ["Model", "Default FIFO (s)", "Order enforce (s)", "Gain %"]
    print()
    print(
        format_table(
            headers,
            rows,
            title=(
                "Fig. 2: order enforcement vs TF default FIFO "
                f"(paper: up to {FIG2_MAX_ORDER_GAIN * 100:.1f}% gain)"
            ),
        )
    )
    export_rows("fig2", headers, rows)
    # Enforcement should never make things substantially worse.
    for row in rows:
        assert row[3] > -5.0, f"{row[0]}: order enforcement {row[3]:.1f}% slower"
