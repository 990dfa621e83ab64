"""Fingerprint-keyed strategy store: the service's answer cache.

A :class:`StrategyStore` maps the **combined config fingerprint** of an
optimization problem (graph x cluster x search options — the same
identity the flight recorder stamps into every ``manifest.json``; see
:func:`repro.obs.runs.config_fingerprints`) to the strategy a previous
search produced, so a repeated request is answered without re-running
OS-DPOS at all, and a *near*-repeat (see :mod:`repro.graph.delta`) can
warm-start its search from the cached split list.

Entries live in two tiers:

* an in-memory LRU (``capacity`` entries, least-recently-used evicted);
* a write-through on-disk tier — one ``<key>.json`` per entry under
  ``<runs root>/strategies/``, co-located with the run registry so
  ``REPRO_RUNS_DIR`` relocates both together.  (The registry only
  treats directories *containing a manifest* as runs, so the
  ``strategies/`` subdirectory is invisible to ``runs list``/``gc``.)

Documents are schema-versioned like every persisted artifact in this
repo; a stored entry with an unknown schema is **invalidated on read**
(deleted and treated as a miss) rather than half-parsed.

:func:`request_fingerprint` is the shared digest helper: the experiment
harness' trial cache and the service's request coalescing both hash
their key documents through it, so "same trial" means the same thing
everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.strategy import Strategy
from ..graph.delta import GraphDelta, diff_signatures
from ..graph.rewrite import SplitDecision
from ..obs.events import NULL_EVENTS, EventBus
from ..obs.log import get_logger

_logger = get_logger(__name__)

#: Version of a stored-strategy document.  Bump on layout changes;
#: unknown versions are deleted on read (a cache regenerates, it does
#: not migrate).
STORE_SCHEMA_VERSION = 1

#: Discriminator value inside each stored document.
STORE_KIND = "repro.strategy"

#: Subdirectory of the runs root holding the on-disk tier.
STORE_DIRNAME = "strategies"


def request_fingerprint(document: object, schema: int) -> str:
    """Stable short digest of a JSON-serializable key document.

    The one hashing convention shared by the harness trial cache, the
    service's request identity, and this store: sha256 over the
    canonical JSON of ``{"schema": ..., "key": ...}``, truncated to 24
    hex chars.  Keeping the byte layout identical to the harness'
    original digest means migrating the harness onto this helper
    preserves every existing cache entry.
    """
    blob = json.dumps({"schema": schema, "key": document}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def default_store_root() -> str:
    """``<runs root>/strategies`` — co-located with the run registry."""
    from ..obs.runs import default_runs_dir

    return os.path.join(default_runs_dir(), STORE_DIRNAME)


@dataclass
class StoredStrategy:
    """One cached search result, self-describing enough to re-serve.

    ``key`` is the combined config fingerprint; ``fingerprints`` keeps
    the per-axis hashes (graph/cluster/options) so near-match lookups
    can require "same cluster and options, different graph".
    ``signature`` is the :func:`repro.graph.delta.graph_signature` of
    the *unsplit* input graph — what :meth:`StrategyStore.find_similar`
    diffs against.
    """

    key: str
    fingerprints: Dict[str, str]
    model: str
    global_batch: int
    devices: int
    strategy: Strategy
    makespan: float
    training_speed: float
    signature: Dict[str, str] = field(default_factory=dict)
    run_id: Optional[str] = None
    created_at: float = 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": STORE_SCHEMA_VERSION,
            "kind": STORE_KIND,
            "key": self.key,
            "fingerprints": dict(self.fingerprints),
            "model": self.model,
            "global_batch": self.global_batch,
            "devices": self.devices,
            "strategy": {
                "placement": dict(self.strategy.placement),
                "order": list(self.strategy.order),
                "split_list": [
                    [d.op_name, d.dim, d.num_splits]
                    for d in self.strategy.split_list
                ],
                "estimated_time": self.strategy.estimated_time,
                "label": self.strategy.label,
            },
            "makespan": self.makespan,
            "training_speed": self.training_speed,
            "signature": dict(self.signature),
            "run_id": self.run_id,
            "created_at": self.created_at,
        }

    @classmethod
    def from_json(cls, data: object) -> "StoredStrategy":
        if not isinstance(data, dict):
            raise StoreSchemaError(f"stored strategy is not an object: {data!r}")
        schema = data.get("schema")
        if schema != STORE_SCHEMA_VERSION or data.get("kind") != STORE_KIND:
            raise StoreSchemaError(
                f"unsupported stored-strategy document (schema={schema!r}, "
                f"kind={data.get('kind')!r}; this build reads schema "
                f"{STORE_SCHEMA_VERSION})"
            )
        try:
            raw = data["strategy"]
            strategy = Strategy(
                placement=dict(raw["placement"]),
                order=list(raw.get("order") or []),
                split_list=[
                    SplitDecision(str(name), int(dim), int(count))
                    for name, dim, count in raw.get("split_list") or []
                ],
                estimated_time=raw.get("estimated_time"),
                label=str(raw.get("label") or ""),
            )
            return cls(
                key=str(data["key"]),
                fingerprints=dict(data.get("fingerprints") or {}),
                model=str(data.get("model") or ""),
                global_batch=int(data.get("global_batch") or 0),
                devices=int(data.get("devices") or 0),
                strategy=strategy,
                makespan=float(data["makespan"]),
                training_speed=float(data.get("training_speed") or 0.0),
                signature=dict(data.get("signature") or {}),
                run_id=data.get("run_id"),
                created_at=float(data.get("created_at") or 0.0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreSchemaError(f"malformed stored strategy: {exc}") from exc


class StoreSchemaError(ValueError):
    """A persisted strategy document has an unknown or malformed schema."""


class StrategyStore:
    """Two-tier (memory LRU + disk) store of :class:`StoredStrategy`.

    Thread-safe: the service's worker threads put/get concurrently.
    ``events`` (an enabled :class:`~repro.obs.events.EventBus`) receives
    ``serve.evict`` when the LRU spills an entry; disk copies survive
    eviction and repopulate the LRU on the next ``get``.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        capacity: int = 64,
        persist: bool = True,
        events: Optional[EventBus] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.root = root or default_store_root()
        self.capacity = capacity
        self.persist = persist
        self.events = events if events is not None else NULL_EVENTS
        self._lru: "OrderedDict[str, StoredStrategy]" = OrderedDict()
        self._lock = threading.Lock()

    # -- core mapping ---------------------------------------------------
    def get(self, key: str) -> Optional[StoredStrategy]:
        """Entry for a combined fingerprint, or None (LRU then disk)."""
        with self._lock:
            entry = self._lru.get(key)
            if entry is not None:
                self._lru.move_to_end(key)
                return entry
        entry = self._load(key)
        if entry is not None:
            self._admit(entry)
        return entry

    def put(self, entry: StoredStrategy) -> bool:
        """Insert (write-through to disk when persistence is on).

        A failed disk write is logged and leaves no temporary file; the
        entry still enters the memory tier.  Returns False in that case.
        """
        if not entry.created_at:
            entry.created_at = time.time()
        written = True
        if self.persist:
            path = self._path(entry.key)
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                os.makedirs(self.root, exist_ok=True)
                with open(tmp, "w") as handle:
                    json.dump(entry.to_json(), handle, indent=2)
                os.replace(tmp, path)
            except OSError:
                _logger.exception("strategy-store write of %s failed", path)
                written = False
                try:
                    os.remove(tmp)
                except OSError:
                    pass
        self._admit(entry)
        return written

    def _admit(self, entry: StoredStrategy) -> None:
        evicted: List[str] = []
        with self._lock:
            self._lru[entry.key] = entry
            self._lru.move_to_end(entry.key)
            while len(self._lru) > self.capacity:
                victim, _ = self._lru.popitem(last=False)
                evicted.append(victim)
        for victim in evicted:
            if self.events.enabled:
                self.events.emit("serve.evict", key=victim, tier="memory")

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def _load(self, key: str) -> Optional[StoredStrategy]:
        if not self.persist:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            self._invalidate(path)
            return None
        try:
            return StoredStrategy.from_json(document)
        except StoreSchemaError:
            # Unknown schema or layout: regenerate, don't migrate.
            self._invalidate(path)
            return None

    def _invalidate(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
        if self.events.enabled:
            self.events.emit("serve.evict", key=os.path.basename(path),
                             tier="disk", reason="schema-mismatch")

    # -- queries --------------------------------------------------------
    def keys(self) -> List[str]:
        """Every known key: LRU plus any disk-only entries."""
        with self._lock:
            known = set(self._lru)
        if self.persist and os.path.isdir(self.root):
            for name in os.listdir(self.root):
                if name.endswith(".json"):
                    known.add(name[: -len(".json")])
        return sorted(known)

    def __len__(self) -> int:
        return len(self.keys())

    def entries(self) -> List[StoredStrategy]:
        """Every loadable entry (disk-only ones are *not* admitted)."""
        out: List[StoredStrategy] = []
        with self._lock:
            in_memory = dict(self._lru)
        for key in self.keys():
            entry = in_memory.get(key)
            if entry is None:
                entry = self._load(key)
            if entry is not None:
                out.append(entry)
        return out

    def find_similar(
        self,
        signature: Dict[str, str],
        *,
        cluster: Optional[str] = None,
        options: Optional[str] = None,
        max_ratio: Optional[float] = None,
    ) -> Optional[Tuple[StoredStrategy, GraphDelta]]:
        """Best warm-start candidate for a request's graph signature.

        Considers entries whose cluster/options fingerprints match (when
        given — a strategy for a different machine or different search
        knobs is not a valid seed), diffs signatures, keeps candidates
        passing :meth:`GraphDelta.is_warm_startable`, and returns the
        one with the fewest total edits.
        """
        best: Optional[Tuple[StoredStrategy, GraphDelta]] = None
        best_edits = -1
        for entry in self.entries():
            if cluster and entry.fingerprints.get("cluster") != cluster:
                continue
            if options and entry.fingerprints.get("options") != options:
                continue
            if not entry.signature:
                continue
            delta = diff_signatures(entry.signature, signature)
            kwargs = {} if max_ratio is None else {"max_ratio": max_ratio}
            if not delta.is_warm_startable(**kwargs):
                continue
            edits = delta.structural_edits + len(delta.changed)
            if best is None or edits < best_edits:
                best = (entry, delta)
                best_edits = edits
        return best

    def clear_memory(self) -> None:
        """Drop the LRU tier (testing; disk entries survive)."""
        with self._lock:
            self._lru.clear()
