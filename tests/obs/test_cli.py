"""Tests for ``python -m repro.obs``: targets, exit status and errors.

The per-command facts (rendered manifests, explain chains, step-trace
analyses) are asserted next to the library they render, in
``test_runs.py``, ``test_provenance.py`` and ``test_analyze.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.obs import ProvenanceJournal, RunRegistry, write_trace
from repro.obs.__main__ import artifact_kind, main
from repro.obs.runs import EVENT_LOG_NAME, MANIFEST_NAME
from repro.profiling.trace import OpRecord, StepTrace

DATA = os.path.join(os.path.dirname(__file__), "data")
RUN_A, RUN_B = "20260101-000000-aaaaaa", "20260102-000000-bbbbbb"


def _step_trace() -> StepTrace:
    trace = StepTrace(makespan=1.0)
    trace.op_records = [
        OpRecord("a", "Generic", "/server:0/gpu:0", 0.0, 1.0, ready=0.0)
    ]
    return trace


def _truncate(path: str) -> None:
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])


@pytest.fixture
def runs(tmp_path):
    """A registry of two runs, each with a step trace and an event log."""
    root = str(tmp_path / "runs")
    for run_id in (RUN_A, RUN_B):
        recorder = RunRegistry(root).create(run_id)
        recorder.add_artifact(
            "step", _step_trace().save(recorder.path("step.json"))
        )
        recorder.add_artifact("events", shutil.copy(
            os.path.join(DATA, "events_v1.jsonl"),
            recorder.path(EVENT_LOG_NAME),
        ))
        recorder.finish(model="lenet", makespan=1.0)
    return root


def test_artifact_kind_reads_run_and_trace_dir_names():
    assert artifact_kind("run/step.json") == "step"
    assert artifact_kind("lenet_2gpu.step.json") == "step"
    assert artifact_kind("lenet_2gpu.step.trace.json") == "trace"
    assert artifact_kind("provenance.json") == "provenance"
    assert artifact_kind("x.provenance.json") == "provenance"
    for name in ("metrics.json", "x.calibration.json", "mystep.json"):
        assert artifact_kind(name) is None


def test_validate_checks_traces_and_journals_in_one_pass(tmp_path, capsys):
    write_trace(str(tmp_path / "good.trace.json"), [
        {"ph": "X", "name": "k", "ts": 0, "dur": 1, "pid": 0, "tid": 0},
    ])
    ProvenanceJournal().save(str(tmp_path / "good.provenance.json"))
    (tmp_path / "broken.trace.json").write_text('{"traceEvents": [')
    (tmp_path / "x.metrics.json").write_text("not an artifact kind")

    assert main(["validate", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["INVALID", "ok", "ok"]
    assert "broken.trace.json" in lines[0]
    assert lines[-1] == "2 valid, 1 invalid"

    os.remove(tmp_path / "broken.trace.json")
    assert main(["validate", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 valid, 0 invalid"


def test_validate_with_nothing_to_check_is_an_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: no Chrome trace")


def test_diff_without_runs_or_one_step_trace_per_side_is_an_error(
    runs, capsys
):
    step = os.path.join(runs, RUN_A, "step.json")
    assert main(["--runs-dir", runs, "diff", step, runs]) == 2
    assert "diff needs" in capsys.readouterr().err
    assert main(["--runs-dir", runs, "diff", step, RUN_B]) == 0
    assert "strategy diff" in capsys.readouterr().out


def _truncated_step_file(root, scratch):
    path = _step_trace().save(os.path.join(scratch, "x.step.json"))
    _truncate(path)
    return ["show", path]


def _v1_step_file(root, scratch):
    path = os.path.join(scratch, "old.step.json")
    document = _step_trace().to_json()
    document["schema"] = 1
    with open(path, "w") as handle:
        json.dump(document, handle)
    return ["show", path]


def _corrupt_event_log(root, scratch):
    with open(os.path.join(root, RUN_A, EVENT_LOG_NAME), "a") as handle:
        handle.write('{"seq": 99, "ki')
    return ["show", RUN_A]


def _truncated_run_step(root, scratch):
    _truncate(os.path.join(root, RUN_B, "step.json"))
    return ["diff", RUN_A, RUN_B]


def _truncated_journal(root, scratch):
    path = ProvenanceJournal().save(
        os.path.join(scratch, "x.provenance.json")
    )
    _truncate(path)
    return ["explain", path]


def _truncated_manifest(root, scratch):
    _truncate(os.path.join(root, RUN_A, MANIFEST_NAME))
    return ["show", RUN_A]


BAD_INPUTS = {
    "truncated-step-trace": _truncated_step_file,
    "v1-step-trace": _v1_step_file,
    "corrupt-event-log": _corrupt_event_log,
    "truncated-run-step-trace": _truncated_run_step,
    "truncated-journal": _truncated_journal,
    "truncated-manifest": _truncated_manifest,
    "unknown-run": lambda root, scratch: ["show", "19990101"],
    "ambiguous-prefix": lambda root, scratch: ["show", "2026"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, runs, tmp_path, capsys):
    argv = BAD_INPUTS[case](runs, str(tmp_path))
    assert main(["--runs-dir", runs] + argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _env():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))


@pytest.mark.parametrize("module", ["analyze", "provenance", "runs"])
def test_retired_module_command_lines_fail(module):
    proc = subprocess.run(
        [sys.executable, "-m", f"repro.obs.{module}", "list"],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: python -m repro.obs.{module} has no command line; "
        "use python -m repro.obs"
    ]


def test_module_entry_stops_quietly_on_a_closed_pipe(tmp_path):
    """``explain ... | head -1``: the reader leaves, the exit stays 0."""
    path = tmp_path / "wide.provenance.json"
    rounds = [{"op_name": f"op{i:05d}"} for i in range(20000)]
    path.write_text(json.dumps(
        {"schema": 1, "searches": [{"search_id": 0, "rounds": rounds}]}
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.obs", "explain", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    assert proc.stdout.readline() == b"op00000\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipe" not in err
