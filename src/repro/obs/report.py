"""TTY rendering of the analyzer's reports (tables + summaries).

``repro.obs`` sits below ``repro.experiments``, so this module carries
its own small monospace-table renderer instead of importing the
benchmark suite's.  Everything returns strings; the CLI prints them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analyze import CriticalPath, StepAnalysis, TraceDiff
    from .calibration import CalibrationReport


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100:
            return f"{value:.0f}"
        return f"{value:.3f}"
    return str(value)


def table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with auto-sized columns (analyzer TTY output)."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _pct(fraction: float) -> str:
    return f"{fraction * 100.0:.1f}%"


def render_critical_path(path: "CriticalPath", limit: int = 12) -> str:
    """The blocking chain: attribution totals plus the longest segments."""
    attribution = path.attribution()
    lines = [
        "critical path "
        f"(makespan {_ms(path.makespan):.3f} ms, "
        f"{'exact' if path.exact else 'inferred'}): "
        + "  ".join(
            f"{kind}={_ms(attribution[kind]):.3f}ms"
            for kind in ("compute", "transfer", "wait", "idle")
        )
    ]
    longest = sorted(path.segments, key=lambda s: -s.duration)[:limit]
    keep = {id(s) for s in longest}
    rows = [
        [
            seg.kind,
            seg.name,
            seg.resource,
            seg.detail,
            _ms(seg.start),
            _ms(seg.duration),
        ]
        for seg in path.segments
        if id(seg) in keep
    ]
    lines.append(
        table(
            ["kind", "name", "resource", "detail", "start (ms)", "dur (ms)"],
            rows,
            title=f"longest {len(rows)} of {len(path.segments)} path segments",
        )
    )
    return "\n".join(lines)


def render_utilization(analysis: "StepAnalysis") -> str:
    """Per-device busy/stall/wait/idle table plus channel congestion."""
    rows = []
    for dev in analysis.devices:
        rows.append(
            [
                dev.device + (" *" if dev.device == analysis.straggler else ""),
                dev.num_ops,
                _ms(dev.compute),
                _ms(dev.transfer),
                _ms(dev.wait),
                _ms(dev.idle),
                _pct(dev.busy_fraction),
                _pct(dev.overlap_fraction),
                _ms(dev.queue_wait),
            ]
        )
    out = table(
        [
            "device", "ops", "compute (ms)", "xfer stall (ms)",
            "wait (ms)", "idle (ms)", "busy", "comm overlap", "queue wait (ms)",
        ],
        rows,
        title=(
            f"per-device utilization (makespan {_ms(analysis.makespan):.3f} ms, "
            f"imbalance {analysis.imbalance:.2f}x, * = straggler)"
        ),
    )
    if analysis.channels:
        chan_rows = [
            [
                c.channel,
                c.num_transfers,
                c.num_bytes,
                _ms(c.busy),
                _ms(c.queue_wait),
                _pct(c.utilization),
            ]
            for c in analysis.channels
        ]
        out += "\n" + table(
            ["channel", "transfers", "bytes", "busy (ms)",
             "queue wait (ms)", "utilization"],
            chan_rows,
            title="per-channel congestion",
        )
    return out


def render_analysis(analysis: "StepAnalysis") -> str:
    """Full single-step report: header, utilization, critical path."""
    header = f"=== step analysis{': ' + analysis.label if analysis.label else ''} ==="
    return "\n".join(
        [
            header,
            render_utilization(analysis),
            render_critical_path(analysis.critical_path),
        ]
    )


def render_diff(diff: "TraceDiff", limit: int = 10) -> str:
    """Why is one strategy faster: structural + attribution explanation."""
    a, b = diff.analysis_a, diff.analysis_b
    lines = [
        f"=== strategy diff: {a.label or 'A'} vs {b.label or 'B'} ===",
        (
            f"makespan {_ms(a.makespan):.3f} ms -> {_ms(b.makespan):.3f} ms "
            f"({diff.speedup:.2f}x {'faster' if diff.speedup >= 1 else 'slower'}, "
            f"delta {_ms(diff.makespan_delta):+.3f} ms)"
        ),
    ]
    if diff.strategy is not None:
        s = diff.strategy
        if s.identical:
            lines.append("strategies are structurally identical")
        else:
            lines.append(
                f"placement: {len(s.moved)} op(s) moved, "
                f"{len(s.only_a)} only in A, {len(s.only_b)} only in B; "
                f"order: {len(s.order_changes)} rank change(s); "
                f"splits: +{len(s.splits_added)} -{len(s.splits_removed)} "
                f"~{len(s.splits_changed)}"
            )
            def _cites(name: str) -> List[str]:
                return [
                    f"      {line}"
                    for line in s.citations.get(name, [])
                ]

            for name, dev_a, dev_b in s.moved[:limit]:
                lines.append(f"  moved {name}: {dev_a} -> {dev_b}")
                lines.extend(_cites(name))
            for name in s.splits_added[:limit]:
                lines.append(f"  split added: {name}")
                lines.extend(_cites(name))
            for name in s.splits_removed[:limit]:
                lines.append(f"  split removed: {name}")
                lines.extend(_cites(name))
    attribution = diff.attribution_delta()
    lines.append(
        "critical-path delta (B-A): "
        + "  ".join(
            f"{kind}={_ms(attribution[kind]):+.3f}ms"
            for kind in ("compute", "transfer", "wait", "idle")
        )
    )
    movers = diff.top_movers(limit)
    if movers:
        rows = [
            [
                d.op_name,
                d.device_a or "-",
                d.device_b or "-",
                "yes" if d.moved else "",
                _ms(d.duration_a),
                _ms(d.duration_b),
                _ms(d.delta),
                ("A" if d.on_path_a else "")
                + ("B" if d.on_path_b else ""),
            ]
            for d in movers
        ]
        lines.append(
            table(
                ["op", "dev A", "dev B", "moved", "dur A (ms)",
                 "dur B (ms)", "delta (ms)", "on path"],
                rows,
                title="top makespan-delta contributors",
            )
        )
    return "\n".join(lines)


def render_search_counters(metrics: Mapping[str, object]) -> str:
    """One-line account of the split search's candidate verdicts.

    ``rejected by simulation`` counts critical-path ops whose best
    candidate's DPOS makespan did not beat the incumbent.
    """
    evaluated = int(metrics.get("search.candidates_evaluated", 0))  # type: ignore[arg-type]
    committed = int(metrics.get("search.splits_committed", 0))  # type: ignore[arg-type]
    rejected = int(metrics.get("search.splits_rejected", 0))  # type: ignore[arg-type]
    return (
        f"search: {evaluated} candidate(s) evaluated, "
        f"{committed} split(s) committed, "
        f"{rejected} rejected by simulation"
    )


def render_calibration(report: "CalibrationReport", limit: int = 8) -> str:
    """Cost-model calibration: residual quantiles and worst offenders."""
    lines = [
        "=== cost-model calibration ===",
        (
            f"{len(report.entries)} prediction(s) joined, "
            f"{report.unmatched_predictions} prediction(s) unmatched, "
            f"{report.unmatched_realized} realized record(s) unpredicted"
        ),
    ]
    if report.drift is not None:
        stable = report.stable
        verdict = "" if stable is None else (
            " (stable)" if stable else " (NOT stable)"
        )
        tolerance = (
            ""
            if report.drift_tolerance is None
            else f" vs tolerance {_pct(report.drift_tolerance)}"
        )
        lines.append(
            f"cost-model drift at decision time: "
            f"{_pct(report.drift)}{tolerance}{verdict}"
        )
    families = report.families
    if families:
        rows = [
            [
                f.kind,
                f.family,
                f.count,
                _pct(f.p50_abs_relative),
                _pct(f.p90_abs_relative),
                _pct(f.max_abs_relative),
            ]
            for f in families
        ]
        lines.append(
            table(
                ["kind", "family", "n", "p50 |rel|", "p90 |rel|", "max |rel|"],
                rows,
                title="residuals per prediction family (|realized-predicted|/realized)",
            )
        )
    worst = [e for e in report.worst(limit) if e.abs_relative > 0.0]
    if worst:
        rows = [
            [
                e.kind,
                e.key,
                e.device,
                _ms(e.predicted),
                _ms(e.realized),
                _pct(e.abs_relative),
            ]
            for e in worst
        ]
        lines.append(
            table(
                ["kind", "key", "where", "predicted (ms)", "realized (ms)",
                 "|rel| error"],
                rows,
                title="worst offenders",
            )
        )
    return "\n".join(lines)

