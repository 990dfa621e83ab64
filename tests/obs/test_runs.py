"""Tests for the flight-recorder run registry (``repro.obs.runs``)."""

import json
import os

import pytest

import repro
from repro.cluster import single_server
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    ManifestSchemaError,
    Observability,
    RunManifest,
    RunNotFoundError,
    RunRegistry,
    config_fingerprints,
    read_event_log,
)
from repro.obs.runs import (
    EVENT_LOG_NAME,
    MANIFEST_KIND,
    MANIFEST_NAME,
    RUNS_DIR_ENV,
    default_runs_dir,
    new_run_id,
    render_manifest,
)
from repro.obs.__main__ import main as obs_cli


# ----------------------------------------------------------------------
# Manifest schema round-trip
# ----------------------------------------------------------------------

def make_manifest(run_id="20260808-120000-abc123", **overrides):
    manifest = RunManifest(
        run_id=run_id,
        created_at="2026-08-08T12:00:00",
        status="completed",
        model="lenet",
        global_batch=256,
        devices=2,
        fingerprints={"graph": "g", "cluster": "c", "options": "o",
                      "combined": "x"},
        environment={"python": "3.11"},
        phases={"search": 0.25, "profile": 0.1},
        makespan=0.0005,
        training_speed=512000.0,
        strategy_label="dpos",
        splits=1,
        artifacts={"events": EVENT_LOG_NAME, "trace": "trace.json"},
        metrics={"candidates": 4.0},
    )
    for key, value in overrides.items():
        setattr(manifest, key, value)
    return manifest


def test_manifest_roundtrip(tmp_path):
    manifest = make_manifest()
    path = manifest.save(str(tmp_path / MANIFEST_NAME))
    loaded = RunManifest.load(path)
    assert loaded == manifest
    assert loaded.to_json()["schema"] == MANIFEST_SCHEMA_VERSION
    assert loaded.to_json()["kind"] == MANIFEST_KIND


def test_manifest_rejects_unknown_schema(tmp_path):
    document = make_manifest().to_json()
    document["schema"] = MANIFEST_SCHEMA_VERSION + 1
    path = tmp_path / MANIFEST_NAME
    path.write_text(json.dumps(document))
    with pytest.raises(ManifestSchemaError, match="unsupported"):
        RunManifest.load(str(path))


def test_manifest_rejects_wrong_kind_and_garbage(tmp_path):
    document = make_manifest().to_json()
    document["kind"] = "repro.trace"
    with pytest.raises(ManifestSchemaError, match="not a run manifest"):
        RunManifest.from_json(document)
    with pytest.raises(ManifestSchemaError):
        RunManifest.from_json([1, 2, 3])

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestSchemaError, match="invalid JSON"):
        RunManifest.load(str(bad))


def test_manifest_ignores_unknown_fields_within_schema():
    document = make_manifest().to_json()
    document["future_field"] = {"ok": True}
    loaded = RunManifest.from_json(document)
    assert loaded.model == "lenet"


def test_manifest_requires_run_id():
    document = make_manifest(run_id="").to_json()
    with pytest.raises(ManifestSchemaError, match="run_id"):
        RunManifest.from_json(document)


def test_artifact_path():
    manifest = make_manifest()
    assert manifest.artifact_path("/runs/x", "trace") == "/runs/x/trace.json"
    assert manifest.artifact_path("/runs/x", "nope") is None


# ----------------------------------------------------------------------
# Registry: create / resolve / list / gc
# ----------------------------------------------------------------------

def test_new_run_id_shape_and_default_root(monkeypatch, tmp_path):
    run_id = new_run_id()
    stamp, _, suffix = run_id.rpartition("-")
    assert len(stamp) == 15 and len(suffix) == 6
    monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path / "registry"))
    assert default_runs_dir() == str(tmp_path / "registry")
    monkeypatch.delenv(RUNS_DIR_ENV)
    assert default_runs_dir().endswith(os.path.join(".repro", "runs"))


def make_run(root, run_id, **fields):
    recorder = RunRegistry(root).create(run_id)
    recorder.finish(**fields)
    return recorder


def test_registry_create_resolve_prefix(tmp_path):
    root = str(tmp_path)
    make_run(root, "20260101-000000-aaaaaa", model="lenet")
    make_run(root, "20260102-000000-bbbbbb", model="alexnet")

    registry = RunRegistry(root)
    assert registry.run_ids() == [
        "20260101-000000-aaaaaa", "20260102-000000-bbbbbb",
    ]
    assert registry.resolve("20260102") == "20260102-000000-bbbbbb"
    assert registry.load("20260101").model == "lenet"
    with pytest.raises(RunNotFoundError, match="ambiguous"):
        registry.resolve("2026")
    with pytest.raises(RunNotFoundError, match="no run matches"):
        registry.resolve("1999")
    with pytest.raises(ValueError, match="already exists"):
        registry.create("20260101-000000-aaaaaa")


def test_registry_gc(tmp_path):
    root = str(tmp_path)
    ids = [f"2026010{i}-000000-{c * 6}" for i, c in enumerate("abcd", 1)]
    for run_id in ids:
        make_run(root, run_id)
    registry = RunRegistry(root)

    preview = registry.gc(keep=3, dry_run=True)
    assert preview == ids[:1]
    assert registry.run_ids() == ids  # dry run removed nothing

    assert registry.gc(keep=2) == ids[:2]
    assert registry.run_ids() == ids[2:]

    # age-based: make one run look ancient
    old_dir = registry.run_dir(ids[2])
    os.utime(old_dir, (0, 0))
    assert registry.gc(older_than_days=1) == [ids[2]]
    assert registry.run_ids() == ids[3:]


def test_recorder_context_manager_records_failure(tmp_path):
    registry = RunRegistry(str(tmp_path))
    with pytest.raises(ValueError, match="boom"):
        with registry.create("20260101-000000-ffffff") as recorder:
            raise ValueError("boom")
    manifest = registry.load("20260101-000000-ffffff")
    assert manifest.status == "failed"
    assert manifest.error == "ValueError: boom"


# ----------------------------------------------------------------------
# End to end: optimize(run_dir=...) and the CLI
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("runs"))
    a = repro.optimize("lenet", single_server(2), run_dir=root)
    b = repro.optimize("lenet", single_server(4), run_dir=root)
    return root, a, b


def test_optimize_records_run_directory(recorded):
    root, result, _ = recorded
    assert result.run_id and result.run_dir
    assert os.path.dirname(result.run_dir) == root

    registry = RunRegistry(root)
    manifest = registry.load(result.run_id)
    assert manifest.status == "completed"
    assert manifest.model == "lenet"
    assert manifest.devices == 2
    assert manifest.makespan == pytest.approx(result.iteration_time)
    assert {"profile", "search", "measure"} <= set(manifest.phases)
    for name in ("events", "trace", "provenance", "step", "metrics"):
        path = manifest.artifact_path(result.run_dir, name)
        assert path and os.path.isfile(path), name

    events = read_event_log(manifest.artifact_path(result.run_dir, "events"))
    assert events and events[0].kind == "run.start"
    assert events[-1].kind == "run.finish"


def test_manifest_fingerprints_identify_the_problem(recorded):
    root, a, b = recorded
    registry = RunRegistry(root)
    fp_a = registry.load(a.run_id).fingerprints
    fp_b = registry.load(b.run_id).fingerprints
    assert fp_a["graph"]  # non-empty content hash
    assert fp_a["combined"] != fp_b["combined"]  # 2 vs 4 devices
    assert fp_a["options"] == fp_b["options"]


def test_env_default_recording(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RECORD", "1")
    monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path))
    result = repro.optimize("lenet", single_server(2))
    assert result.run_id in RunRegistry(str(tmp_path)).run_ids()


def test_run_dir_false_disables_recording(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RECORD", "1")
    monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path))
    result = repro.optimize("lenet", single_server(2), run_dir=False)
    assert result.run_id is None
    assert RunRegistry(str(tmp_path)).run_ids() == []


def test_recording_rejects_disabled_obs(tmp_path):
    with pytest.raises(ValueError):
        repro.optimize(
            "lenet", single_server(2),
            run_dir=str(tmp_path), obs=Observability(enabled=False),
        )


def test_cli_list_show_diff_gc(recorded, capsys):
    root, a, b = recorded

    assert obs_cli(["--runs-dir", root, "list"]) == 0
    out = capsys.readouterr().out
    assert a.run_id in out and b.run_id in out

    assert obs_cli(["--runs-dir", root, "show", a.run_id]) == 0
    out = capsys.readouterr().out
    assert "replay-ordered, schema ok" in out
    assert "lenet" in out

    assert obs_cli(["--runs-dir", root, "show", a.run_id, "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document[a.run_id]["run_id"] == a.run_id

    assert obs_cli(["--runs-dir", root, "diff", a.run_id, b.run_id]) == 0
    out = capsys.readouterr().out
    assert "manifest makespan" in out
    assert "DIFFERENT" in out  # 2 vs 4 devices
    assert "strategy diff" in out  # step traces present on both sides

    assert obs_cli(["--runs-dir", root, "explain", a.run_id]) == 0
    listed = capsys.readouterr().out.split()
    assert listed and listed == sorted(listed)

    assert obs_cli(["--runs-dir", root, "validate", a.run_id, root]) == 0
    out = capsys.readouterr().out
    assert "0 invalid" in out and "trace.json" in out

    assert obs_cli(["--runs-dir", root, "gc", "--keep", "5"]) == 0
    capsys.readouterr()
    assert obs_cli(["--runs-dir", root, "gc"]) == 2  # no rule given
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_show_reads_version_1_event_log(tmp_path, capsys):
    import shutil

    run_id = "20261017-000000-v1demo"
    run_dir = tmp_path / run_id
    run_dir.mkdir()
    make_manifest(run_id).save(str(run_dir / MANIFEST_NAME))
    shutil.copy(
        os.path.join(os.path.dirname(__file__), "data", "events_v1.jsonl"),
        run_dir / EVENT_LOG_NAME,
    )
    assert obs_cli(["--runs-dir", str(tmp_path), "show", run_id]) == 0
    assert "32 event(s), replay-ordered, schema ok" in capsys.readouterr().out


def test_cli_unknown_run_is_an_error(tmp_path, capsys):
    assert obs_cli(["--runs-dir", str(tmp_path), "show", "nope"]) == 2
    assert "no run matches" in capsys.readouterr().err


def test_config_fingerprints_stable_for_same_problem():
    from repro import FastTConfig
    from repro.models import get_model
    from repro.graph import build_single_device_training_graph

    topology = single_server(2)
    config = FastTConfig()
    builder = get_model("lenet").builder
    graph_a = build_single_device_training_graph(builder, 64)
    graph_b = build_single_device_training_graph(builder, 64)
    fp_a = config_fingerprints(graph_a, topology, config)
    fp_b = config_fingerprints(graph_b, topology, config)
    assert fp_a == fp_b
    graph_c = build_single_device_training_graph(builder, 128)
    fp_c = config_fingerprints(graph_c, topology, config)
    assert fp_c["graph"] != fp_a["graph"]
    assert fp_c["combined"] != fp_a["combined"]


def test_manifest_request_id_roundtrips_and_renders(tmp_path, capsys):
    manifest = make_manifest()
    manifest.request_id = "req-cafe0123"
    path = manifest.save(str(tmp_path / MANIFEST_NAME))
    loaded = RunManifest.load(path)
    assert loaded.request_id == "req-cafe0123"
    rendered = render_manifest(RunRegistry(str(tmp_path)), loaded)
    assert "request    req-cafe0123" in rendered
    # Absent on direct (non-service) runs, and then not rendered.
    plain = make_manifest()
    assert plain.request_id == ""
    assert "request " not in render_manifest(
        RunRegistry(str(tmp_path)), plain
    )
