"""Benchmark of ``repro.optimize`` and ``repro.serve``, one workload per run.

    python3 benchmarks/perf/run.py --workload NAME [--seed N] [--seconds S]
                                   [--trace 0|1] [--out FILE] [--smoke]

A run repeats *passes* over the workload's fixed inputs for about
``--seconds`` seconds (at least one pass), every pass in fresh
processes: an optimize pass runs each job in its own child
(:mod:`job`), a serve pass starts its own server (:mod:`serve_main`)
and drives it with two lock-step clients.  Set-up is sampled at least
``SETUP_SAMPLES`` times.  The run checks every output, prints each
metric with its unit, median, quartiles and sample count, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of BENCHMARK.json, or with ``--trace 1``
its ``per_layer`` metrics).  It exits non-zero when a check fails.

Times are reported at the reference speed of :mod:`speed`: every child
and server times a fixed loop before its work and samples it while the
work runs, and each time is scaled by the loop times of the process it
ran in (a set-up by the loop before it).  The samples come from the
same process as the work, at the same moments, so they see the host as
the work does; a phase of load that slows one job is scaled out of that
job alone.  ``--out`` keeps the number of loop samples and the run's
mean factor.

``--trace 1`` alternates untraced and traced repeats of pass 0 for
about ``--seconds`` seconds (at least ``TRACE_PAIRS`` pairs), reports
the layer breakdown of the traced repeat of median wall time and the
tracing overhead from the medians of both kinds, and writes that
repeat's spans to ``out/<workload>.trace.json``.
``--out FILE`` appends the full record of the run to FILE, the input
of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import speed
import workloads
from job import peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 9
#: Longest a child or a server may take before the run gives up on it.
PROCESS_TIMEOUT = 150.0
#: Socket timeout of the connection that starts, fills and scrapes a server.
CONTROL_TIMEOUT = 60.0
#: Fewest untraced/traced pass pairs a traced run makes.
TRACE_PAIRS = 3
#: Pass-to-pass spread (quartile distance over median) above which the
#: tracing overhead is reported unresolved.
OVERHEAD_RESOLUTION = 0.05


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    The engine comes from this checkout's ``src``; no ``REPRO_*``
    setting of the caller leaks in, and anything the engine would write
    under its runs root stays inside ``out/``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_RUNS_DIR"] = str(OUT_DIR / "runs")
    return env


class Pass:
    """What one pass measured and checked; times at the reference speed."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.setup_s: List[float] = []
        #: reference-loop seconds of the processes the pass started, from
        #: before and during their work
        self.reference: List[float] = []
        self.latencies: List[float] = []
        self.rss_mb = 0.0
        #: distinct job or request key -> simulated training speed
        self.speeds: Dict[str, float] = {}
        self.attempted = 0
        self.errors: List[str] = []
        self.counters: Dict[str, float] = {}
        self.events: List[dict] = []
        #: request ids answered from the store by their own lookup
        self.hit_jobs: set = set()

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# Optimize workloads: one child process per job.
# ---------------------------------------------------------------------------

def read_reference(proc: subprocess.Popen) -> Optional[float]:
    """The ``reference <seconds>`` line every child prints first."""
    word, _, value = proc.stdout.readline().partition(" ")
    return float(value) if word == "reference" else None


def setup_seconds(started: float, reference: float) -> float:
    """Seconds since ``started``, less the loop rounds the process timed
    first, at the reference speed."""
    took = time.perf_counter() - started - speed.ANNOUNCE_ROUNDS * reference
    return took * speed.scale([reference])


def spawn_job(argv: List[str]) -> tuple:
    """Start ``job.py``; returns (process, set-up seconds at the
    reference speed, reference-loop seconds), the last two None when the
    child did not get that far."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    reference = read_reference(proc)
    if reference is None or proc.stdout.readline().strip() != "ready":
        return proc, None, None
    return proc, setup_seconds(start, reference), reference


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


class Runner:
    """What every runner has: the checks it makes before its passes."""

    def __init__(self) -> None:
        self.warmup = Pass()

    def close(self) -> None:
        pass


class OptimizeRunner(Runner):
    """Optimize passes: each job of a pass in a fresh child process."""

    def __init__(self, workload: str, smoke: bool) -> None:
        super().__init__()
        self.jobs = workloads.optimize_jobs(workload, smoke)

    def run_pass(self, index: int, trace_dir: Optional[Path] = None) -> Pass:
        result = Pass()
        for job in self.jobs:
            argv = [json.dumps(job)]
            trace_file = None
            if trace_dir is not None:
                trace_file = trace_dir / f"{job['name']}.json"
                argv.append(str(trace_file))
            proc, setup, reference = spawn_job(argv)
            lines = finish(proc).strip().splitlines()
            try:
                report = json.loads(lines[-1])
            except (IndexError, ValueError):
                report = {"failed": [f"exited {proc.returncode} without a result"]}
            if setup is None:
                report["failed"].append("no ready line")
            result.check(
                not report["failed"],
                f"{job['name']}: {'; '.join(report['failed'])}",
            )
            if report["failed"]:
                continue
            result.setup_s.append(setup)
            loops = [reference, *report["samples"]]
            result.reference += loops
            wall = report["wall_s"] * speed.scale(loops)
            result.latencies.append(wall)
            result.wall_s += wall
            result.rss_mb = max(result.rss_mb, report["rss_mb"])
            result.speeds[job["name"]] = report["training_speed"]
            if trace_file is not None:
                result.events += json.loads(trace_file.read_text())["traceEvents"]
        return result

    def setup_probe(self) -> Optional[float]:
        """Set-up seconds of a child that only imports."""
        proc, setup, _ = spawn_job(["probe"])
        finish(proc)
        return setup if proc.returncode == 0 and setup else None


# ---------------------------------------------------------------------------
# Serve workloads: a fresh server and store per pass, two lock-step clients.
# ---------------------------------------------------------------------------

class Server:
    """One ``serve_main.py`` process and a control connection to it."""

    def __init__(self, options: List[str], trace_file: Optional[Path] = None):
        from repro.serve.client import Client

        argv = [sys.executable, str(HERE / "serve_main.py")]
        if trace_file is not None:
            argv += ["--trace-out", str(trace_file)]
        argv += ["serve", "--port", "0", "--workers", "2", *options]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        self.control = None
        try:
            self.reference = read_reference(self.proc)
            if self.reference is None:
                raise RuntimeError("server exited before timing its host")
            port = 0
            for line in self.proc.stdout:
                if line.startswith("listening on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
            if not port:
                raise RuntimeError("server exited before listening")
            self.port = port
            self.control = Client(port=port, timeout=CONTROL_TIMEOUT)
            if not self.control.ping():
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.stop()
            raise
        self.setup_s = setup_seconds(start, self.reference)

    def stop(self) -> List[float]:
        """Ask the server to shut down, killing it if it does not exit;
        returns the reference-loop samples it took while it served."""
        if self.control is not None:
            try:
                self.control.shutdown()
            except (OSError, RuntimeError):
                self.proc.kill()
            self.control.close()
            self.control = None
        else:
            self.proc.kill()
        try:
            out, _ = self.proc.communicate(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        word, _, value = out.strip().rpartition("\n")[2].partition(" ")
        return json.loads(value) if word == "samples" else []


def closed_loop(port: int, rounds: list, tag: str) -> tuple:
    """Send every round from two clients in lock step; returns the wall
    time and ``(round, client, seconds, response, error)`` records."""
    from repro.serve.client import Client

    barrier = threading.Barrier(2)
    records: list = []

    def client(index: int) -> None:
        try:
            with Client(port=port) as connection:
                for number, pair in enumerate(rounds):
                    barrier.wait(timeout=PROCESS_TIMEOUT)
                    model, preset, batch = pair[index]
                    start = time.perf_counter()
                    try:
                        response, error = connection.optimize(
                            model, preset, global_batch=batch,
                            config=workloads.SERVE_CONFIG,
                            request_id=f"{tag}r{number}c{index}",
                        ), None
                    except (OSError, ValueError, RuntimeError) as exc:
                        response, error = None, f"{type(exc).__name__}: {exc}"
                    records.append((
                        number, index, time.perf_counter() - start,
                        response, error,
                    ))
        except (OSError, threading.BrokenBarrierError) as exc:
            barrier.abort()
            records.append((-1, index, 0.0, None, f"client {index}: {exc!r}"))

    threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, sorted(records, key=lambda r: r[:2])


def check_responses(
    result: Pass, records: list, sent: int, scraped: dict,
    stored: Dict[str, float],
) -> None:
    """Check one serve pass's responses and scrape; record its latencies.

    ``scraped`` is the pass's scrape as ``parse_prometheus`` reads it;
    ``stored`` maps the keys searched before the pass to their makespans.
    """
    from repro.obs.prometheus import sample_value

    makespans: Dict[str, set] = {k: {v} for k, v in stored.items()}
    searched = set(stored)
    for number, index, seconds, response, error in records:
        if error is None and response.get("status") != "ok":
            error = f"status {response.get('status')!r}"
        result.check(error is None, f"round {number} client {index}: {error}")
        if error is not None:
            continue
        result.latencies.append(seconds)
        key = response["key"]
        makespans.setdefault(key, set()).add(response["makespan"])
        result.speeds[key] = response["training_speed"]
        if response.get("coalesced"):
            continue
        if response["source"] == "cache":
            result.hit_jobs.add(response["request_id"])
        else:
            searched.add(key)
    # A hit returns the makespan of the search that stored its key.
    for key in result.speeds:
        seen = makespans[key]
        result.check(
            len(seen) == 1 and key in searched,
            f"key {key[:12]}: makespans {sorted(seen)}, searched: "
            f"{key in searched}",
        )
    for name in (
        "repro_serve_requests_total",
        "repro_serve_request_latency_seconds_count",
    ):
        value = sample_value(scraped, name)
        result.check(value == sent, f"{name} = {value}, sent {sent}")


class ServeRunner(Runner):
    """Serve passes: each on a fresh server over a fresh on-disk store.

    serve-hot measures the store's steady state: before the passes, one
    unmeasured server searches every base key once, and each pass starts
    from a copy of that store.  serve-churn starts every pass empty.
    """

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        super().__init__()
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.capacity = (
            workloads.HOT_CAPACITY if workload == "serve-hot"
            else workloads.CHURN_CAPACITY
        )
        (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR / "tmp"))
        #: answer key -> makespan of the search that stored it before the passes
        self.stored: Dict[str, float] = {}
        self.filled = self.tmp / "filled"
        self.filled.mkdir()
        if workload == "serve-hot":
            self._fill(self.filled)

    def _options(self, store: Path) -> List[str]:
        return ["--store", str(store), "--capacity", str(self.capacity)]

    def _fill(self, store: Path) -> None:
        try:
            server = Server(self._options(store))
        except (OSError, RuntimeError) as exc:
            self.warmup.check(False, f"server start: {exc}")
            return
        try:
            for model, preset, batch in workloads.serve_keys(self.workload, self.smoke):
                try:
                    response = server.control.optimize(
                        model, preset, global_batch=batch,
                        config=workloads.SERVE_CONFIG,
                    )
                except (OSError, RuntimeError) as exc:
                    self.warmup.check(False, f"filling {model} {preset}: {exc}")
                    continue
                self.warmup.check(True, "")
                self.stored[response["key"]] = response["makespan"]
        finally:
            server.stop()

    def run_pass(self, index: int, trace_dir: Optional[Path] = None) -> Pass:
        from repro.obs.prometheus import parse_prometheus, sample_value

        result = Pass()
        rounds = workloads.serve_rounds(self.workload, self.seed, index, self.smoke)
        store = Path(tempfile.mkdtemp(dir=self.tmp)) / "store"
        shutil.copytree(self.filled, store)
        trace_file = trace_dir / "server.json" if trace_dir is not None else None
        try:
            try:
                server = Server(self._options(store), trace_file)
            except (OSError, RuntimeError) as exc:
                result.check(False, f"server start: {exc}")
                return result
            try:
                result.setup_s.append(server.setup_s)
                result.wall_s, records = closed_loop(
                    server.port, rounds, f"s{self.seed}p{index}"
                )
                stats = server.control.stats()["stats"]
                scraped = parse_prometheus(server.control.metrics())
                result.rss_mb = peak_rss_mb(server.proc.pid)
            finally:
                loops = [server.reference, *server.stop()]
        finally:
            shutil.rmtree(store.parent, ignore_errors=True)
        result.reference += loops
        scale = speed.scale(loops)
        result.wall_s *= scale
        records = [(n, i, seconds * scale, r, e) for n, i, seconds, r, e in records]
        check_responses(result, records, len(rounds) * 2, scraped, self.stored)
        result.counters = {f"serve.{k}": v for k, v in stats.items()}
        for family in ("queue_wait", "coalesce_wait"):
            total = sample_value(scraped, f"repro_serve_{family}_seconds_sum")
            result.counters[f"serve.{family.replace('_', '.')}.s"] = total or 0.0
        if trace_file is not None:
            result.events = json.loads(trace_file.read_text())["traceEvents"]
        return result

    def setup_probe(self) -> Optional[float]:
        """Set-up seconds of a server that only starts."""
        try:
            server = Server(self._options(Path(tempfile.mkdtemp(dir=self.tmp))))
        except (OSError, RuntimeError):
            return None
        server.stop()
        return server.setup_s

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Statistics and metrics.
# ---------------------------------------------------------------------------

def median(values: List[float]) -> Dict[str, float]:
    """Median with its quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values),
    }


def p95(values: List[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(passes: List[Pass], setups: List[float]) -> Dict[str, dict]:
    """Medians over passes (or set-ups), so that a burst of load on the
    host that slows one pass moves none of them.  The 95th percentile
    pools the passes' job latencies instead, so that the most samples
    lie beyond it."""
    latencies = [s for p in passes for s in p.latencies]
    return {
        "setup_s": median(setups),
        "pass_s": median([p.wall_s for p in passes]),
        "job_p50_s": median([statistics.median(p.latencies) for p in passes]),
        "job_p95_s": {"value": p95(latencies), "n": len(latencies)},
        "peak_rss_mb": median([p.rss_mb for p in passes]),
        "sim_speed": median([geomean(p.speeds.values()) for p in passes]),
    }


def relative_spread(values: List[float]) -> float:
    """Quartile distance over the median (infinite at a median of 0,
    which only failed passes give)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else math.inf


def per_layer(traced: Pass, scale: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, all but the overhead."""
    totals = layers.layer_totals(traced.events)
    values: Dict[str, float] = {}
    for name in layers.LAYER_NAMES:
        row = totals.get(name, {"self_s": 0.0, "calls": 0})
        values[f"{name}.s"] = row["self_s"] * scale
        values[f"{name}.calls"] = row["calls"]
    counts = traced.counters
    for name in ("serve.queue.wait.s", "serve.coalesce.wait.s"):
        values[name] = counts.get(name, 0.0) * scale

    search = layers.search_counters(traced.events)
    evaluated = search["search.candidates_evaluated"]
    pruned = search["search.candidates_pruned"]
    accepted = search["search.splits_committed"]
    values["search.candidates_evaluated"] = evaluated
    values["search.candidates_pruned"] = pruned
    values["search.splits_accepted"] = accepted
    values["search.accept_ratio"] = accepted / evaluated if evaluated else 0.0
    values["search.prune_ratio"] = (
        pruned / (evaluated + pruned) if evaluated + pruned else 0.0
    )

    for name in (
        "hits", "misses", "coalesced", "searches", "warm_starts",
        "warm_fallbacks", "evictions",
    ):
        values[f"serve.{name}"] = counts.get(f"serve.{name}", 0)
    requests = counts.get("serve.requests", 0)
    warm = values["serve.warm_starts"]
    values["serve.hit_ratio"] = values["serve.hits"] / requests if requests else 0.0
    values["serve.warm_success_ratio"] = (
        (warm - values["serve.warm_fallbacks"]) / warm if warm else 0.0
    )
    return values


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def measure(runner, seconds: float) -> dict:
    """Untraced passes for ``seconds``; the end-to-end metrics."""
    started = time.perf_counter()
    passes: List[Pass] = []
    while True:
        pass_started = time.perf_counter()
        passes.append(runner.run_pass(len(passes)))
        took = time.perf_counter() - pass_started
        if time.perf_counter() - started + took > seconds:
            break
    setups = [s for p in passes for s in p.setup_s]
    while len(setups) < SETUP_SAMPLES:
        probe = runner.setup_probe()
        if probe is None:
            passes[0].check(False, "set-up probe failed")
            break
        setups.append(probe)
    stats = end_to_end(passes, setups) if all(p.latencies for p in passes) else {}
    return {
        "passes": passes,
        "stats": stats,
        "reference": [r for p in passes for r in p.reference],
        "values": {name: row["value"] for name, row in stats.items()},
    }


def trace(runner, workload: str, seconds: float) -> dict:
    """Untraced and traced repeats of pass 0, alternating, for
    ``seconds`` and at least ``TRACE_PAIRS`` pairs; the per-layer metrics.

    The layer metrics are those of the traced repeat of median wall
    time.  The overhead is the traced median over the untraced median,
    less 1; it is unresolved while either kind's pass-to-pass spread
    exceeds ``OVERHEAD_RESOLUTION``, because then a difference of that
    size is as likely the host as the tracing.
    """
    untraced: List[Pass] = []
    traced: List[Pass] = []
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR))
    started = time.perf_counter()
    try:
        while True:
            pair_started = time.perf_counter()
            untraced.append(runner.run_pass(0))
            traced.append(runner.run_pass(0, trace_dir))
            took = time.perf_counter() - pair_started
            if (
                len(traced) >= TRACE_PAIRS
                and time.perf_counter() - started + took > seconds
            ):
                break
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    shown = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]
    trace_path = OUT_DIR / f"{workload}.trace.json"
    trace_path.write_text(json.dumps(
        {"traceEvents": shown.events, "displayTimeUnit": "ms"}
    ))
    walls = {
        "untraced_s": [p.wall_s for p in untraced],
        "traced_s": [p.wall_s for p in traced],
    }
    spread = max(relative_spread(w) for w in walls.values())
    # Spans are raw; the whole pass's loops scale them.
    values = per_layer(shown, speed.scale(shown.reference))
    baseline = statistics.median(walls["untraced_s"])
    values["trace.overhead_ratio"] = (
        statistics.median(walls["traced_s"]) / baseline - 1.0 if baseline else 0.0
    )
    return {
        "passes": untraced + traced,
        "reference": [r for p in untraced + traced for r in p.reference],
        "values": values,
        "overhead": dict(
            walls, spread=spread, resolved=spread <= OVERHEAD_RESOLUTION,
        ),
        "layers": layers.layer_totals(shown.events),
        "hit_layers": layers.layer_totals(shown.events, shown.hit_jobs),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def print_report(workload: str, run: dict, units: Dict[str, str]) -> None:
    print(f"workload {workload}")
    stats = run.get("stats", {})
    for name, value in run["values"].items():
        line = f"  {name:<32} {value:>14.6g} {units[name]}"
        row = stats.get(name, {})
        if "q1" in row:
            line += f"   (n={row['n']}, q1 {row['q1']:.6g}, q3 {row['q3']:.6g})"
        elif "n" in row:
            line += f"   (n={row['n']})"
        print(line)
    print(
        f"  times scaled per process to the reference speed "
        f"(factor {speed.scale(run['reference']):.4f} over the run)"
    )
    if "overhead" in run:
        overhead = run["overhead"]
        print(
            f"  trace.overhead_ratio is "
            f"{'resolved' if overhead['resolved'] else 'UNRESOLVED'}: "
            f"{len(overhead['traced_s'])} pairs, pass-to-pass spread "
            f"{overhead['spread']:.1%} (resolved at most "
            f"{OVERHEAD_RESOLUTION:.0%})"
        )
    if "trace_file" in run:
        print(f"  spans written to {run['trace_file']}")
    for message in run["errors"][:20]:
        print(f"  FAILED: {message}")
    missing = sorted(set(units) - set(run["values"]))
    if missing:
        print(f"  FAILED: no value for {missing}")


def append_record(path: Path, record: dict) -> None:
    document = json.loads(path.read_text()) if path.exists() else {"runs": []}
    document["runs"].append(record)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report the per-layer metrics of traced passes",
    )
    parser.add_argument("--out", type=Path, help="append the run's record here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs (lenet only, 500 layers, 10 rounds)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    serve = args.workload in workloads.SERVE_WORKLOADS
    runner = (
        ServeRunner(args.workload, args.seed, args.smoke) if serve
        # The optimize jobs are fixed; the seed has nothing to draw.
        else OptimizeRunner(args.workload, args.smoke)
    )
    try:
        if args.trace:
            run = trace(runner, args.workload, args.seconds)
        else:
            run = measure(runner, args.seconds)
    finally:
        runner.close()
    checked = [runner.warmup, *run["passes"]]
    run["errors"] = [e for p in checked for e in p.errors]
    attempted = sum(p.attempted for p in checked)
    failed = len(run["errors"])

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    correct = failed == 0 and set(run["values"]) == set(units)
    print_report(args.workload, run, units)
    metrics = {
        name: {"value": run["values"].get(name, 0.0), "unit": units[name]}
        for name in units
    }
    if args.out is not None:
        append_record(args.out, {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "smoke": args.smoke,
            "passes": len(run["passes"]), "correct": correct,
            "attempted": attempted, "failed": failed,
            "errors": run["errors"][:20], "metrics": metrics,
            "stats": run.get("stats", {}),
            "speed": {
                "loops": len(run["reference"]),
                "scale": speed.scale(run["reference"]),
            },
            "counters": [p.counters for p in run["passes"]],
            "overhead": run.get("overhead", {}),
            "layers": run.get("layers", {}),
            "hit_layers": run.get("hit_layers", {}),
        })
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
