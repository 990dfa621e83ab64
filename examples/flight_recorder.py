"""Flight recorder walkthrough: record, find, and diff optimize runs.

Every ``repro.optimize`` call can mint a **run**: a directory holding a
versioned manifest (config fingerprints, environment, wall-clock phases,
final makespan), the live event log (``events.jsonl``), and every
artifact the run produced (Chrome trace, provenance journal, calibration
report, metrics snapshot, simulated step trace).  Recording is off by
default; turn it on per call with ``run_dir=`` or globally with
``REPRO_RECORD=1`` (runs then land under ``REPRO_RUNS_DIR``, default
``~/.repro/runs``).

This script records two runs of the same model on different cluster
sizes, watches one live via an event-bus subscriber plus the
``--progress`` renderer, then uses the registry API and the
``python -m repro.obs`` CLI to list, inspect, diff and validate them.

    python examples/flight_recorder.py [runs-dir]
"""

import subprocess
import sys

import repro
from repro.cluster import single_server
from repro.obs import Observability, RunRegistry, ensure_dir, read_event_log


def main() -> None:
    runs_dir = ensure_dir(sys.argv[1] if len(sys.argv) > 1 else "runs")

    # 1. A recorded run.  run_dir= points at the registry root; the run
    #    itself gets a fresh timestamped directory inside it.  progress=
    #    renders a live status line on stderr while the search runs.
    result_a = repro.optimize(
        "lenet", single_server(2), run_dir=runs_dir, progress=True
    )
    print(result_a.summary())
    print(f"recorded as run {result_a.run_id} -> {result_a.run_dir}")
    print()

    # 2. Recording composes with your own subscribers: pass an obs hook
    #    and tap its event bus directly.
    obs = Observability()
    rounds = []
    obs.events.subscribe(
        lambda e: rounds.append(e.data) if e.kind == "round.finish" else None
    )
    result_b = repro.optimize(
        "lenet", single_server(4), run_dir=runs_dir, obs=obs
    )
    print(f"recorded as run {result_b.run_id}; "
          f"{len(rounds)} search round(s) observed live:")
    for index, data in enumerate(rounds):
        print(f"  round {index}: {data['verdict']} "
              f"({data['seconds'] * 1e3:.1f} ms)")
    print()

    # 3. The registry API: list manifests, reload one, replay its log.
    registry = RunRegistry(runs_dir)
    for manifest in registry.list_runs():
        print(f"  {manifest.run_id}  {manifest.status:9s}  "
              f"{manifest.model}  makespan={manifest.makespan}")
    manifest = registry.load(result_a.run_id)
    events = read_event_log(
        manifest.artifact_path(registry.run_dir(result_a.run_id), "events")
    )
    print(f"run {manifest.run_id}: {len(events)} events, "
          f"phases={sorted(manifest.phases)}")
    print()

    # 4. The same via the CLI (what you'd use from a shell).
    for argv in (
        ["list"],
        ["show", result_a.run_id],
        ["diff", result_a.run_id, result_b.run_id],
        ["explain", result_a.run_id, "--op", "conv2"],
        ["validate", runs_dir],
    ):
        print(f"$ python -m repro.obs --runs-dir {runs_dir} "
              + " ".join(argv))
        subprocess.run(
            [sys.executable, "-m", "repro.obs", "--runs-dir", runs_dir]
            + argv,
            check=True,
        )
        print()


if __name__ == "__main__":
    main()
