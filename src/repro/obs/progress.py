"""``--progress``: a live TTY renderer for the telemetry event bus.

Subscribes to an :class:`~repro.obs.events.EventBus` and keeps one
status line updated in place (carriage-return overwrite) while a search
runs — round number, the op under consideration, best makespan so far,
simulator heap progress.  On a non-TTY stream it degrades to sparse
plain lines (round boundaries and commits only), so CI logs stay
readable.

Attach one by hand::

    from repro.obs import Observability
    from repro.obs.progress import ProgressRenderer

    obs = Observability()
    renderer = ProgressRenderer()
    obs.events.subscribe(renderer)
    ...
    renderer.close()

or let ``repro.optimize(..., progress=True)`` / the benchmarks'
``--progress`` flag do it for you.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from .events import PHASE_SPANS, Event


def _fmt_seconds(value: object) -> str:
    try:
        return f"{float(value) * 1e3:.2f}ms"
    except (TypeError, ValueError):
        return "?"


def format_seconds(value: object) -> str:
    """Human-scale duration: ms below a second, seconds above.

    The shared formatter for live displays (:class:`ProgressRenderer`,
    ``python -m repro.serve top``); ``"?"`` for non-numbers.
    """
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "?"
    if seconds < 0:
        return "?"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60.0:.1f}m"


class LivePanel:
    """Repaint a multi-line block of text in place on a TTY.

    The moving part behind ``python -m repro.serve top``: each
    :meth:`paint` call moves the cursor back up over the previous frame
    and rewrites it (padding shortened lines), so the panel refreshes
    without scrolling.  On a non-TTY stream every frame is appended
    whole — logs capture a readable sequence of snapshots.
    """

    def __init__(self, stream: Optional[object] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._prev_lines = 0
        self._prev_width = 0
        self._closed = False

    def paint(self, text: str) -> None:
        if self._closed:
            return
        lines = text.split("\n")
        out = []
        if self.is_tty and self._prev_lines:
            out.append(f"\x1b[{self._prev_lines}F")  # cursor up N, col 1
        width = max((len(line) for line in lines), default=0)
        pad = max(self._prev_width, width)
        for line in lines:
            out.append(line.ljust(pad) if self.is_tty else line)
            out.append("\n")
        self.stream.write("".join(out))
        self.stream.flush()
        self._prev_lines = len(lines)
        self._prev_width = width

    def close(self) -> None:
        """Leave the last frame on screen and stop repainting."""
        self._closed = True


class ProgressRenderer:
    """Event-bus subscriber painting a single live status line.

    ``min_interval`` throttles repaints (stride events from the
    simulator heap can arrive thousands per second); boundary events
    (round/search start and finish, commits) always paint.
    """

    def __init__(
        self,
        stream: Optional[object] = None,
        min_interval: float = 0.1,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_paint = 0.0
        self._line_len = 0
        self._closed = False
        # Rolling state assembled from events.
        self._run_id = ""
        self._round = ""
        self._op = ""
        self._best = ""
        self._sim = ""
        self._stage = "starting"

    # ------------------------------------------------------------------
    def __call__(self, event: Event) -> None:
        if self._closed:
            return
        boundary = self._absorb(event)
        now = time.monotonic()
        if not boundary and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        if self.is_tty:
            self._paint_status()
        elif boundary:
            self._print_line(event)

    # ------------------------------------------------------------------
    def _absorb(self, event: Event) -> bool:
        """Fold the event into rolling state; True if it's a boundary."""
        kind, data = event.kind, event.data
        if kind == "run.start":
            self._run_id = str(data.get("run_id", ""))
            self._stage = f"optimizing {data.get('model', '?')}"
            return True
        if kind == "round.start":
            self._round = f"round {data.get('round', '?')}"
            self._stage = "profiling"
            return True
        if kind == "round.finish":
            verdict = data.get("verdict", "")
            self._stage = f"round done ({verdict})" if verdict else "round done"
            self._op = ""
            return True
        span, _, edge = kind.rpartition(".")
        if edge == "start" and span in PHASE_SPANS:
            self._stage = PHASE_SPANS[span]
            return False
        if kind == "search.osdpos.start":
            self._stage = f"search[{data.get('mode', '?')}]"
            return True
        if kind == "search.op.start":
            index, total = data.get("index"), data.get("total")
            if index is not None and total:
                self._op = f"op {index}/{total}"
            return False
        if kind == "search.commit":
            self._best = _fmt_seconds(data.get("makespan"))
            return True
        if kind == "search.osdpos.finish":
            self._best = _fmt_seconds(data.get("makespan"))
            self._op = ""
            self._stage = "search done"
            return True
        if kind == "graph.coarsen.finish":
            self._stage = f"coarsened to {data.get('coarse_ops', '?')} ops"
            return True
        if kind == "dpos.progress":
            placed, total = data.get("placed"), data.get("total")
            if placed is not None and total:
                self._op = f"placing {placed}/{total}"
            return False
        if kind == "sim.progress":
            done, total = data.get("completed"), data.get("total")
            if done is not None and total:
                self._sim = f"sim {done}/{total}"
            return False
        if kind == "sim.step.finish":
            self._sim = ""
            return False
        if kind == "run.finish":
            self._best = _fmt_seconds(data.get("makespan"))
            self._stage = f"done ({data.get('status', 'completed')})"
            return True
        return False

    # ------------------------------------------------------------------
    def _status(self) -> str:
        parts = [p for p in (
            self._run_id and f"[{self._run_id}]",
            self._round,
            self._stage,
            self._op,
            self._best and f"best {self._best}",
            self._sim,
        ) if p]
        return "  ".join(parts)

    def _paint_status(self) -> None:
        line = self._status()
        pad = max(0, self._line_len - len(line))
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._line_len = len(line)

    def _print_line(self, event: Event) -> None:
        self.stream.write(f"[{event.ts:8.2f}s] {self._status()}\n")
        self.stream.flush()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finish the live line (newline) and stop rendering."""
        if self._closed:
            return
        self._closed = True
        if self.is_tty and self._line_len:
            self.stream.write("\n")
            self.stream.flush()
