"""Topology grid — training speed across link-graph cluster presets.

Runs DP and FastT over the interconnect presets the link-graph cluster
model adds beyond the paper's two-tier testbed: a PCIe-only box (every
pair crosses one shared host bridge), a DGX-like NVLink ring with PCIe
fallback, a heterogeneous V100+P100 box, and multi-server clusters
routed through a core switch.  Every trial's simulated step time is
pinned exactly (``step_time_pins.json``), so routed multi-channel
contention cannot drift unnoticed.
"""

from __future__ import annotations

from conftest import StepTimePins, export_rows, label, models_under_test

from repro.experiments import trial
from repro.experiments.harness import TOPOLOGY_CONFIGS
from repro.experiments.reporting import format_table, speedup_percent

PINS = StepTimePins(__file__)


def _column(gpus, servers, cluster):
    name = cluster if cluster != "default" else (
        f"{servers}srv" if servers > 1 else "nvlink"
    )
    return f"{gpus}g {name}"


def compute_topology_grid():
    rows = []
    for model in models_under_test(["lenet", "alexnet"]):
        cells = [label(model)]
        for gpus, servers, cluster in TOPOLOGY_CONFIGS:
            dp = PINS.check_trial(
                trial(model, "dp", gpus, servers, cluster=cluster)
            )
            ft = PINS.check_trial(
                trial(model, "fastt", gpus, servers, cluster=cluster)
            )
            dp_speed = None if dp.oom else dp.speed
            ft_speed = None if ft.oom else ft.speed
            cells.append(ft_speed)
            cells.append(speedup_percent(ft_speed, dp_speed))
        rows.append(cells)
    return rows


def test_topology_grid(benchmark):
    rows = benchmark.pedantic(compute_topology_grid, rounds=1, iterations=1)
    PINS.assert_complete()
    headers = ["Model"]
    for gpus, servers, cluster in TOPOLOGY_CONFIGS:
        headers.append(f"{_column(gpus, servers, cluster)} FastT")
        headers.append("vs DP%")
    print()
    print(
        format_table(
            headers, rows,
            title="Topology grid: FastT samples/s per interconnect",
        )
    )
    export_rows("topologies", headers, rows)
    for row in rows:
        # Every preset must produce a finite FastT speed (no OOM/route
        # failures), and FastT should stay within 20% of DP everywhere.
        for i, (gpus, servers, cluster) in enumerate(TOPOLOGY_CONFIGS):
            speed = row[1 + 2 * i]
            vs_dp = row[2 + 2 * i]
            assert speed is not None and speed > 0, (
                f"{row[0]}: no FastT speed on {cluster} ({gpus}x{servers})"
            )
            assert vs_dp == vs_dp and vs_dp > -20.0, (
                f"{row[0]}: FastT {vs_dp:.1f}% vs DP on {cluster} "
                f"({gpus}x{servers})"
            )
