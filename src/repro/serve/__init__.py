"""``repro.serve``: the multi-tenant strategy service.

One process answers many "optimize model M on cluster C" requests
concurrently, each on its own reentrant
:class:`~repro.core.SearchContext`, with a fingerprint-keyed
:class:`StrategyStore` answering repeats outright and seeding
warm-start searches for near-repeats (see :mod:`repro.graph.delta`).

Three ways in:

* **in process** — :func:`submit` (module-level convenience over a lazy
  shared :class:`StrategyService`), or construct your own service;
* **over TCP** — ``python -m repro.serve serve --port 7421`` plus
  :class:`Client`;
* **embedded async** — :func:`serve_forever` inside your own event loop.

>>> import repro.serve as serve
>>> serve.submit("lenet", "pcie:2")["source"]        # doctest: +SKIP
'search'
>>> serve.submit("lenet", "pcie:2")["source"]        # doctest: +SKIP
'cache'
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .client import Client, ServiceError, ServiceTimeout
from .service import (
    AccessLog,
    METRIC_HELP,
    RequestError,
    ServeTimeout,
    ServiceStats,
    StrategyService,
    new_request_id,
    normalize_request,
    serve_forever,
    serve_metrics_http,
)
from .store import (
    STORE_SCHEMA_VERSION,
    StoredStrategy,
    StoreSchemaError,
    StrategyStore,
    default_store_root,
    request_fingerprint,
)

__all__ = [
    "AccessLog",
    "Client",
    "METRIC_HELP",
    "RequestError",
    "STORE_SCHEMA_VERSION",
    "ServeTimeout",
    "ServiceError",
    "ServiceStats",
    "ServiceTimeout",
    "StoreSchemaError",
    "StoredStrategy",
    "StrategyService",
    "StrategyStore",
    "default_service",
    "default_store_root",
    "new_request_id",
    "normalize_request",
    "request_fingerprint",
    "serve_forever",
    "serve_metrics_http",
    "submit",
]

_default_service: Optional[StrategyService] = None
_default_lock = threading.Lock()


def default_service(**kwargs: object) -> StrategyService:
    """The process-wide shared service (created on first use).

    Keyword arguments are honored only on the call that creates it;
    pass none to just fetch the existing instance.  Like every service,
    it belongs to one thread at a time.
    """
    global _default_service
    with _default_lock:
        if _default_service is None:
            _default_service = StrategyService(**kwargs)  # type: ignore[arg-type]
        return _default_service


def submit(
    model: str,
    topology: object,
    *,
    global_batch: Optional[int] = None,
    config: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Answer one request through the shared in-process service."""
    request: Dict[str, object] = {"model": model, "topology": topology}
    if global_batch is not None:
        request["global_batch"] = global_batch
    if config is not None:
        request["config"] = config
    return default_service().submit(request)
