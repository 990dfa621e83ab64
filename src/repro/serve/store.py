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
* a write-through on-disk tier under ``<runs root>/strategies/``,
  co-located with the run registry so ``REPRO_RUNS_DIR`` relocates both
  together.  (The registry only treats directories *containing a
  manifest* as runs, so ``strategies/`` is invisible to ``runs
  list``/``gc``.)  Its layout::

      strategies/
        <key>.json                  one stored strategy per combined key
        graphs/<request_fingerprint of (model, batch, cluster fp,
                source fp)>         graph-fingerprint memo, one per triple

The memo (:meth:`StrategyStore.graph_fingerprint`) spares a restarted
server the session build that computes a request's graph fingerprint;
the source fingerprint in its key retires it when the code changes.
:meth:`StrategyStore.find_similar` filters on an in-memory index
(cluster, options, op count per key) and loads only what it keeps.

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
from ..graph.delta import DEFAULT_WARM_RATIO, GraphDelta, diff_signatures
from ..graph.rewrite import SplitDecision
from ..obs import runs as obs_runs
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

#: Subdirectory of the store root holding the graph-fingerprint memo,
#: and the discriminator inside each memo document.
GRAPH_MEMO_DIRNAME = "graphs"
GRAPH_MEMO_KIND = "repro.graph-memo"


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
    return os.path.join(obs_runs.default_runs_dir(), STORE_DIRNAME)


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
    _answer: Optional["StrategyAnswer"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def answer(self) -> "StrategyAnswer":
        """The ``strategy`` sub-document of this entry's responses.

        Built and encoded on the first call, then the same object on
        every call: a searched entry encodes it for its own answer, an
        entry read from disk on its first answer, and an entry that only
        seeds warm starts never.
        """
        answer = self._answer
        if answer is None:
            with _ANSWER_LOCK:
                if self._answer is None:
                    self._answer = StrategyAnswer(self.strategy)
                answer = self._answer
        return answer

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


#: Held while an entry builds its answer, so each entry encodes once.
_ANSWER_LOCK = threading.Lock()


class StrategyAnswer(dict):
    """A stored strategy as a response shows it, with its JSON text.

    The keys are ``label``, ``splits``, ``placement``, ``order`` and
    ``split_list``; ``placement`` and ``order`` are the stored
    :class:`~repro.core.strategy.Strategy`'s own containers, not copies.
    Every response for one entry shares this one document, so it is
    read-only.  ``text`` is ``json.dumps(self).encode()``, made once;
    the TCP front-end splices it into each response line instead of
    encoding the strategy again.
    """

    __slots__ = ("text",)

    def __init__(self, strategy: Strategy) -> None:
        super().__init__(
            label=strategy.label,
            splits=len(strategy.split_list),
            placement=strategy.placement,
            order=strategy.order,
            split_list=[
                [d.op_name, d.dim, d.num_splits] for d in strategy.split_list
            ],
        )
        self.text = json.dumps(self).encode()


class StoreSchemaError(ValueError):
    """A persisted strategy document has an unknown or malformed schema."""


class StrategyStore:
    """Two-tier (memory LRU + disk) store of :class:`StoredStrategy`.

    Thread-safe: the service's worker threads put/get concurrently.
    An enabled :class:`~repro.obs.events.EventBus` receives
    ``serve.evict`` when the LRU spills an entry or a corrupt disk entry
    is deleted: the ``events`` a call passes (each service passes its
    own, so a shared store's evictions count on the service that caused
    them), else the store's own ``events``.  Disk copies survive
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
        #: key -> _index_row of every entry this store has seen
        self._index: Dict[str, Tuple[Optional[str], Optional[str], int]] = {}
        self._lock = threading.Lock()

    # -- core mapping ---------------------------------------------------
    def get(
        self, key: str, events: Optional[EventBus] = None
    ) -> Optional[StoredStrategy]:
        """Entry for a combined fingerprint, or None (LRU then disk)."""
        entry = self.cached(key)
        if entry is None:
            entry = self._load(key, events)
            if entry is not None:
                self._admit(entry, events)
        return entry

    def cached(self, key: str) -> Optional[StoredStrategy]:
        """The LRU tier's entry for a key, or None; never reads disk."""
        with self._lock:
            entry = self._lru.get(key)
            if entry is not None:
                self._lru.move_to_end(key)
            return entry

    def put(
        self, entry: StoredStrategy, events: Optional[EventBus] = None
    ) -> bool:
        """Insert (write-through to disk when persistence is on).

        A failed disk write is logged and leaves no temporary file; the
        entry still enters the memory tier.  Returns False in that case.
        """
        if not entry.created_at:
            entry.created_at = time.time()
        written = not self.persist or self._write(
            self._path(entry.key), entry.to_json()
        )
        self._admit(entry, events)
        return written

    def _write(self, path: str, document: Dict[str, object]) -> bool:
        """Atomically replace ``path`` with ``document``; False on failure.

        Writes a temporary file beside ``path`` and renames it over the
        target, so a reader sees the old document or the new one, never
        half of one.  A failed write is logged and leaves no temporary
        file behind.
        """
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump(document, handle, indent=2)
            os.replace(tmp, path)
        except OSError:
            _logger.exception("strategy-store write of %s failed", path)
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        return True

    def _admit(
        self, entry: StoredStrategy, events: Optional[EventBus]
    ) -> None:
        evicted: List[str] = []
        with self._lock:
            self._lru[entry.key] = entry
            self._lru.move_to_end(entry.key)
            self._index[entry.key] = _index_row(entry)
            while len(self._lru) > self.capacity:
                victim, _ = self._lru.popitem(last=False)
                evicted.append(victim)
                if not self.persist:  # gone for good: no disk copy
                    del self._index[victim]
        events = events or self.events
        for victim in evicted:
            if events.enabled:
                events.emit("serve.evict", key=victim, tier="memory")

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def _load(
        self, key: str, events: Optional[EventBus] = None
    ) -> Optional[StoredStrategy]:
        if not self.persist:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # unreadable, truncated, not JSON
            self._invalidate(path, events)
            return None
        try:
            return StoredStrategy.from_json(document)
        except StoreSchemaError:
            # Unknown schema or layout: regenerate, don't migrate.
            self._invalidate(path, events)
            return None

    def _invalidate(self, path: str, events: Optional[EventBus]) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
        events = events or self.events
        if events.enabled:
            events.emit("serve.evict", key=os.path.basename(path),
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

    def find_similar(
        self,
        signature: Dict[str, str],
        *,
        cluster: Optional[str] = None,
        options: Optional[str] = None,
        max_ratio: Optional[float] = None,
        events: Optional[EventBus] = None,
    ) -> Optional[Tuple[StoredStrategy, GraphDelta]]:
        """Best warm-start candidate for a request's graph signature.

        Considers entries whose cluster/options fingerprints match (when
        given — a strategy for a different machine or different search
        knobs is not a valid seed), diffs signatures, keeps candidates
        passing :meth:`GraphDelta.is_warm_startable`, and returns the
        one with the fewest total edits (the first in key order on a
        tie).

        The filters run on the index, so an entry is loaded and diffed
        only when its fingerprints match and its op count leaves room
        for both a warm start and fewer edits than the best so far: two
        graphs whose op counts differ by ``gap`` differ by at least
        ``gap`` added or removed ops.  A disk-only entry is read once to
        index it.
        """
        ratio = DEFAULT_WARM_RATIO if max_ratio is None else max_ratio
        size = len(signature)
        with self._lock:
            index = dict(self._index)
            in_memory = dict(self._lru)
        best: Optional[Tuple[StoredStrategy, GraphDelta]] = None
        best_edits = -1
        for key in self.keys():
            entry = in_memory.get(key)
            row = index.get(key)
            if row is None:
                entry = entry or self._load(key, events)
                if entry is None:
                    continue
                row = _index_row(entry)
                with self._lock:
                    self._index[key] = row
            entry_cluster, entry_options, ops = row
            if cluster and entry_cluster != cluster:
                continue
            if options and entry_options != options:
                continue
            if not ops:
                continue
            gap = abs(ops - size)
            if gap / max(ops, size) > ratio:
                continue
            if best is not None and gap >= best_edits:
                continue
            entry = entry or self._load(key, events)
            if entry is None:  # deleted, or corrupt and now invalidated
                with self._lock:
                    self._index.pop(key, None)
                continue
            delta = diff_signatures(entry.signature, signature)
            if not delta.is_warm_startable(ratio):
                continue
            edits = delta.structural_edits + len(delta.changed)
            if best is None or edits < best_edits:
                best = (entry, delta)
                best_edits = edits
        return best

    # -- graph-fingerprint memo -----------------------------------------
    def graph_fingerprint(
        self, model: str, batch: int, cluster: str
    ) -> Optional[str]:
        """The persisted input-graph fingerprint of a (model, batch,
        cluster) triple under this source tree, or None.

        A memo file that cannot be read is deleted and reported as
        :class:`StoreSchemaError`.  Memory-only stores keep no memo.
        """
        if not self.persist:
            return None
        key = _memo_key(model, batch, cluster)
        path = self._memo_path(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # unreadable, truncated, not JSON
            document = None
        if (
            isinstance(document, dict)
            and document.get("schema") == STORE_SCHEMA_VERSION
            and document.get("kind") == GRAPH_MEMO_KIND
            and document.get("key") == key
            and isinstance(document.get("graph"), str)
        ):
            return document["graph"]
        try:
            os.remove(path)
        except OSError:
            pass
        raise StoreSchemaError(f"unreadable graph memo {path}")

    def remember_graph_fingerprint(
        self, model: str, batch: int, cluster: str, graph_fp: str
    ) -> bool:
        """Persist :meth:`graph_fingerprint`'s answer; False if the
        write failed (logged, no temporary file left)."""
        if not self.persist:
            return True
        key = _memo_key(model, batch, cluster)
        return self._write(self._memo_path(key), {
            "schema": STORE_SCHEMA_VERSION, "kind": GRAPH_MEMO_KIND,
            "key": key, "graph": graph_fp,
        })

    def _memo_path(self, key: List[object]) -> str:
        name = request_fingerprint(key, STORE_SCHEMA_VERSION)
        return os.path.join(self.root, GRAPH_MEMO_DIRNAME, name)

    def clear_memory(self) -> None:
        """Drop the LRU tier (testing; disk entries survive)."""
        with self._lock:
            self._lru.clear()
            if not self.persist:
                self._index.clear()


def _index_row(entry: StoredStrategy) -> Tuple[Optional[str], Optional[str], int]:
    """What :meth:`StrategyStore.find_similar` filters on: the entry's
    cluster and options fingerprints and its graph's op count."""
    return (
        entry.fingerprints.get("cluster"),
        entry.fingerprints.get("options"),
        len(entry.signature),
    )


def _memo_key(model: str, batch: int, cluster: str) -> List[object]:
    """The graph-memo key; the source fingerprint retires every memo
    written by other code."""
    return [model, batch, cluster, obs_runs.source_fingerprint()]
