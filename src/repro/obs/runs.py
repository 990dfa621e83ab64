"""Flight recorder: run identity, manifests, and the run registry.

Every recorded ``repro.optimize()`` (or simulator) run mints a **run
id**, gets its own directory under the registry root, and leaves behind:

* ``manifest.json`` — a versioned summary: config fingerprints (graph
  hash x cluster hash x search options), environment, wall-clock phases,
  the final makespan, and links to every co-located artifact;
* ``events.jsonl`` — the structured telemetry log (see
  :mod:`repro.obs.events`);
* the run's artifacts — Chrome trace, provenance journal, calibration
  report, metrics snapshot, and a simulated ``step.json`` under the
  surviving strategy (what ``python -m repro.obs diff`` re-attributes).

The registry root is ``$REPRO_RUNS_DIR`` when set, else
``~/.repro/runs``.  Query it from the shell::

    python -m repro.obs list
    python -m repro.obs show 20260808-091500-3fa9c1
    python -m repro.obs diff <id-a> <id-b>
    python -m repro.obs gc --keep 20

or from Python via :class:`RunRegistry`.  Manifests are schema-versioned
like every other persisted document in the repo: readers raise
:class:`ManifestSchemaError` on unknown versions instead of guessing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graph.delta import graph_contents
from .events import PHASE_SPANS, JsonlEventWriter, read_event_log
from . import log as obs_log

#: Version of the ``manifest.json`` document.  Bump on layout changes;
#: :meth:`RunManifest.from_json` rejects versions it does not read.
MANIFEST_SCHEMA_VERSION = 1

#: Discriminator value in the manifest document.
MANIFEST_KIND = "repro.run"

#: Environment variable overriding the registry root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: File names inside a run directory.
MANIFEST_NAME = "manifest.json"
EVENT_LOG_NAME = "events.jsonl"

_logger = obs_log.get_logger(__name__)


class ManifestSchemaError(ValueError):
    """A persisted run manifest has an unknown or malformed schema."""


class RunNotFoundError(KeyError):
    """No run in the registry matches the given id or prefix."""


# ----------------------------------------------------------------------
# Config fingerprints
# ----------------------------------------------------------------------

def graph_fingerprint(graph, contents: Optional[Dict[str, str]] = None) -> str:
    """Content hash of a training graph (structure + shapes + attrs).

    A sha1 over canonical per-op tuples ``(name, type, attrs, inputs,
    outputs)`` in topological order, so two runs over the same
    model/batch collide and anything else does not.  Each tuple's
    ``repr`` is the op's :func:`~repro.graph.delta.op_content` with the
    name put in front; ``contents`` is the graph's
    :func:`~repro.graph.delta.graph_contents`, for a caller that already
    has it.
    """
    if contents is None:
        contents = graph_contents(graph)
    h = hashlib.sha1()
    for op in graph.topological_order():
        h.update(f"({op.name!r}, {contents[op.name][1:]}".encode())
    return h.hexdigest()


def cluster_fingerprint(topology) -> str:
    """Content hash of the cluster (its ClusterSpec JSON document)."""
    document = topology.spec.to_dict()
    return hashlib.sha1(
        json.dumps(document, sort_keys=True, default=repr).encode()
    ).hexdigest()


def options_fingerprint(config) -> str:
    """Content hash of the workflow config (FastTConfig + SearchOptions)."""
    document = dataclasses.asdict(config)
    return hashlib.sha1(
        json.dumps(document, sort_keys=True, default=repr).encode()
    ).hexdigest()


def config_fingerprints(graph, topology, config) -> Dict[str, str]:
    """The manifest's fingerprint block: graph x cluster x options.

    ``combined`` is the run's configuration identity — two runs with
    equal combined fingerprints optimized the same problem.
    """
    return combine_fingerprints(
        graph_fingerprint(graph),
        cluster_fingerprint(topology),
        options_fingerprint(config),
    )


def combine_fingerprints(
    graph_fp: str, cluster_fp: str, options_fp: str
) -> Dict[str, str]:
    """The fingerprint block from its per-axis hashes (derives ``combined``)."""
    combined = hashlib.sha1(
        f"{graph_fp}:{cluster_fp}:{options_fp}".encode()
    ).hexdigest()
    return {
        "graph": graph_fp,
        "cluster": cluster_fp,
        "options": options_fp,
        "combined": combined,
    }


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """Content hash of the ``repro`` package's Python sources.

    Computed once per process.  Keys the experiment trial cache and the
    strategy service's persisted graph-fingerprint memo, so an entry
    written by other code misses instead of being served as current.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def capture_environment() -> Dict[str, str]:
    """The manifest's environment block (interpreter, platform, versions)."""
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": " ".join(sys.argv),
    }
    try:
        from .. import __version__

        env["repro"] = __version__
    except Exception:  # pragma: no cover - broken partial install
        pass
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        pass
    return env


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

@dataclass
class RunManifest:
    """The versioned summary document every run directory carries."""

    run_id: str
    created_at: str
    status: str = "running"
    model: str = ""
    global_batch: int = 0
    devices: int = 0
    fingerprints: Dict[str, str] = field(default_factory=dict)
    environment: Dict[str, str] = field(default_factory=dict)
    #: Wall-clock seconds per workflow phase (profile/search/measure/...).
    phases: Dict[str, float] = field(default_factory=dict)
    makespan: Optional[float] = None
    training_speed: Optional[float] = None
    strategy_label: str = ""
    splits: int = 0
    #: Artifact name -> filename relative to the run directory.
    artifacts: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: Client request that produced this run (strategy-service runs
    #: only; empty for direct ``repro.optimize`` calls).  The service's
    #: access log holds the reverse mapping (request id -> run id).
    request_id: str = ""

    def to_json(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "kind": MANIFEST_KIND,
        }
        document.update(dataclasses.asdict(self))
        return document

    @classmethod
    def from_json(cls, data: object) -> "RunManifest":
        if not isinstance(data, dict):
            raise ManifestSchemaError(
                f"run manifest is not an object: {data!r}"
            )
        if data.get("kind") != MANIFEST_KIND:
            raise ManifestSchemaError(
                f"not a run manifest (kind {data.get('kind')!r})"
            )
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA_VERSION:
            raise ManifestSchemaError(
                f"unsupported run-manifest schema {schema!r} "
                f"(this build reads {MANIFEST_SCHEMA_VERSION})"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        fields = {k: v for k, v in data.items() if k in names}
        try:
            manifest = cls(**fields)
            manifest.run_id = str(manifest.run_id)
            manifest.phases = {
                str(k): float(v) for k, v in dict(manifest.phases).items()
            }
            manifest.artifacts = {
                str(k): str(v) for k, v in dict(manifest.artifacts).items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestSchemaError(
                f"malformed run manifest: {exc}"
            ) from exc
        if not manifest.run_id:
            raise ManifestSchemaError("run manifest has no run_id")
        return manifest

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=1, default=repr)
        return path

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ManifestSchemaError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_json(data)

    def artifact_path(self, run_dir: str, name: str) -> Optional[str]:
        """Absolute path of a linked artifact, or None if not recorded."""
        filename = self.artifacts.get(name)
        if filename is None:
            return None
        return os.path.join(run_dir, filename)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def default_runs_dir() -> str:
    """``$REPRO_RUNS_DIR`` when set, else ``~/.repro/runs``."""
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".repro", "runs")


def new_run_id() -> str:
    """Mint a run id: ``YYYYMMDD-HHMMSS-<6 hex>`` (sortable, unique)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


class RunRegistry:
    """The registry directory: one subdirectory per recorded run."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.expanduser(root) if root else default_runs_dir()

    # -- creation ------------------------------------------------------
    def create(self, run_id: Optional[str] = None) -> "RunRecorder":
        """Mint a run directory and return its recorder."""
        os.makedirs(self.root, exist_ok=True)
        attempts = 0
        while True:
            candidate = run_id or new_run_id()
            run_dir = os.path.join(self.root, candidate)
            try:
                os.makedirs(run_dir)
            except FileExistsError:
                if run_id is not None:
                    raise ValueError(f"run {run_id!r} already exists")
                attempts += 1
                if attempts > 8:  # pragma: no cover - uuid collisions
                    raise
                continue
            return RunRecorder(self, candidate, run_dir)

    # -- lookup --------------------------------------------------------
    def run_ids(self) -> List[str]:
        """All run ids present on disk (directories with a manifest)."""
        if not os.path.isdir(self.root):
            return []
        ids = []
        for entry in sorted(os.listdir(self.root)):
            if os.path.isfile(os.path.join(self.root, entry, MANIFEST_NAME)):
                ids.append(entry)
        return ids

    def resolve(self, run_id_or_prefix: str) -> str:
        """Resolve a full id or unique prefix to the run id."""
        ids = self.run_ids()
        if run_id_or_prefix in ids:
            return run_id_or_prefix
        matches = [i for i in ids if i.startswith(run_id_or_prefix)]
        if not matches:
            raise RunNotFoundError(
                f"no run matches {run_id_or_prefix!r} under {self.root}"
            )
        if len(matches) > 1:
            raise RunNotFoundError(
                f"ambiguous run prefix {run_id_or_prefix!r}: "
                + ", ".join(matches)
            )
        return matches[0]

    def run_dir(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    def load(self, run_id_or_prefix: str) -> RunManifest:
        run_id = self.resolve(run_id_or_prefix)
        return RunManifest.load(
            os.path.join(self.root, run_id, MANIFEST_NAME)
        )

    def list_runs(self) -> List[RunManifest]:
        """All manifests, oldest first (run ids sort chronologically)."""
        return [self.load(run_id) for run_id in self.run_ids()]

    # -- gc ------------------------------------------------------------
    def gc(
        self,
        keep: Optional[int] = None,
        older_than_days: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[str]:
        """Delete old run directories; returns the ids removed.

        ``keep=N`` retains the N newest runs; ``older_than_days=D``
        removes runs whose directory mtime is older than D days.  Both
        may be combined (a run is removed if either rule selects it).
        """
        ids = self.run_ids()
        doomed = set()
        if keep is not None and keep >= 0 and len(ids) > keep:
            doomed.update(ids[: len(ids) - keep])
        if older_than_days is not None:
            cutoff = time.time() - older_than_days * 86400.0
            for run_id in ids:
                if os.path.getmtime(self.run_dir(run_id)) < cutoff:
                    doomed.add(run_id)
        removed = sorted(doomed)
        if not dry_run:
            for run_id in removed:
                shutil.rmtree(self.run_dir(run_id), ignore_errors=True)
                _logger.info("gc removed run %s", run_id)
        return removed


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------

class RunRecorder:
    """Owns one run directory while a run executes.

    Created by :meth:`RunRegistry.create`; ``attach(obs)`` hooks the
    JSONL event writer and the phase collector onto the run's event bus
    and stamps the run id onto log records; ``finish()`` writes the
    manifest.  The recorder is also a context manager — an exception
    inside the ``with`` block finishes the run as ``failed`` with the
    error recorded, then re-raises.
    """

    def __init__(
        self, registry: RunRegistry, run_id: str, run_dir: str
    ) -> None:
        self.registry = registry
        self.run_id = run_id
        self.run_dir = run_dir
        self.manifest = RunManifest(
            run_id=run_id,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
            environment=capture_environment(),
        )
        self._event_writer: Optional[JsonlEventWriter] = None
        self._bus = None
        self._log_token = None
        self._finished = False

    # -- wiring --------------------------------------------------------
    def attach(self, obs) -> None:
        """Hook the recorder's sinks onto an Observability's event bus."""
        bus = getattr(obs, "events", None)
        if bus is None or not bus.enabled:
            return
        self._bus = bus
        self._event_writer = JsonlEventWriter(
            os.path.join(self.run_dir, EVENT_LOG_NAME), run_id=self.run_id
        )
        bus.subscribe(self._event_writer)
        bus.subscribe(self._collect)
        self._log_token = obs_log.set_run_id(self.run_id)
        self.manifest.artifacts["events"] = EVENT_LOG_NAME

    def _collect(self, event) -> None:
        """Fold the calculator's phase spans into the manifest's phases."""
        span, _, edge = event.kind.rpartition(".")
        name = PHASE_SPANS.get(span)
        if name is not None and edge == "finish":
            self.manifest.phases[name] = (
                self.manifest.phases.get(name, 0.0) + event.data["seconds"]
            )

    # -- artifacts -----------------------------------------------------
    def path(self, filename: str) -> str:
        """Absolute path for a file inside the run directory."""
        return os.path.join(self.run_dir, filename)

    def add_artifact(self, name: str, path: Optional[str]) -> Optional[str]:
        """Link an artifact already written into the run directory.

        ``path`` may be None (an exporter declined to write — e.g. an
        empty timeline); the artifact is then simply not linked.
        """
        if path is None:
            return None
        self.manifest.artifacts[name] = os.path.basename(path)
        return path

    # -- completion ------------------------------------------------------
    def finish(self, status: str = "completed", **fields: object) -> str:
        """Write the manifest (idempotent) and detach from the bus."""
        if self._finished:
            return self.path(MANIFEST_NAME)
        self._finished = True
        self.manifest.status = status
        for key, value in fields.items():
            setattr(self.manifest, key, value)
        if self._bus is not None:
            if self._event_writer is not None:
                self._bus.unsubscribe(self._event_writer)
                self._event_writer.close()
            self._bus.unsubscribe(self._collect)
        if self._log_token is not None:
            obs_log._run_id_var.reset(self._log_token)
            self._log_token = None
        path = self.manifest.save(self.path(MANIFEST_NAME))
        _logger.info(
            "run %s %s (dir %s)", self.run_id, status, self.run_dir
        )
        return path

    # -- context management ---------------------------------------------
    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.finish(status="failed", error=f"{exc_type.__name__}: {exc}")
        elif not self._finished:
            self.finish()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def render_manifest(registry: RunRegistry, manifest: RunManifest) -> str:
    """A run's manifest as text; replays its ``events.jsonl`` if linked."""
    run_dir = registry.run_dir(manifest.run_id)
    lines = [
        f"run        {manifest.run_id}  [{manifest.status}]",
        f"created    {manifest.created_at}",
        f"dir        {run_dir}",
        f"model      {manifest.model}  batch={manifest.global_batch}  "
        f"devices={manifest.devices}",
        f"strategy   {manifest.strategy_label or '?'}  "
        f"splits={manifest.splits}",
    ]
    if manifest.makespan is not None:
        speed = (
            f"  speed={manifest.training_speed:.1f}/s"
            if manifest.training_speed
            else ""
        )
        lines.append(
            f"makespan   {manifest.makespan * 1e3:.3f}ms{speed}"
        )
    if manifest.error:
        lines.append(f"error      {manifest.error}")
    if manifest.request_id:
        # Which client request produced this run — the forward half of
        # the request<->run correlation (the access log is the reverse).
        lines.append(f"request    {manifest.request_id}")
    if manifest.fingerprints:
        fp = manifest.fingerprints
        # The combined fingerprint is the run's configuration identity —
        # the strategy-store cache key (repro.serve) and the ``list
        # --fingerprint`` filter both match on it, so show it in full.
        lines.append(f"identity   {fp.get('combined', '?') or '?'}")
        lines.append(
            "config     graph=%s cluster=%s options=%s"
            % tuple(
                (fp.get(k, "?") or "?")[:10]
                for k in ("graph", "cluster", "options")
            )
        )
    if manifest.phases:
        phases = "  ".join(
            f"{name}={seconds:.3f}s"
            for name, seconds in sorted(manifest.phases.items())
        )
        lines.append(f"phases     {phases}")
    if manifest.environment:
        env = manifest.environment
        lines.append(
            f"env        python {env.get('python', '?')} "
            f"repro {env.get('repro', '?')} on {env.get('platform', '?')}"
        )
    lines.append("artifacts")
    for name in sorted(manifest.artifacts):
        path = manifest.artifact_path(run_dir, name)
        marker = "" if path and os.path.isfile(path) else "  (missing)"
        lines.append(f"  {name:<12} {manifest.artifacts[name]}{marker}")
    if not manifest.artifacts:
        lines.append("  (none)")
    events_path = manifest.artifact_path(run_dir, "events")
    if events_path and os.path.isfile(events_path):
        events = read_event_log(events_path)
        lines.append(
            f"events     {len(events)} event(s), replay-ordered, schema ok"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    from repro.obs.__main__ import retired

    raise SystemExit(retired("repro.obs.runs"))
