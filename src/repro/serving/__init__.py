"""The serving data plane: registry, per-model batching and the HTTP API.

Once Θ_priv is released, inference is pure post-processing — no privacy
budget is spent answering queries — so serving is an ordinary data plane:

* :mod:`repro.serving.registry` — a content-addressed, filesystem-backed
  model registry (`publish` / `resolve` / `verify`), turning sweep artefacts
  or live :class:`~repro.core.model.GCON` instances into versioned bundles,
  and the :class:`RegistryWatcher` that pre-warms a flipped ``@latest``
  before retiring the old version;
* :mod:`repro.serving.batcher` — a micro-batching request queue that
  coalesces concurrent queries into one stacked matmul;
* :mod:`repro.serving.router` — one batch queue **per model version** (own
  forming batch, own dispatch thread), so mixed traffic never head-of-line
  blocks across models; the row budget and deadline are fixed at start-up;
* :mod:`repro.serving.metrics` — per-model latency histograms
  (fixed log-spaced buckets, p50/p95/p99), batch-size and queue-depth
  distributions — the ``/stats`` payload;
* :mod:`repro.serving.service` — the :class:`InferenceService` control room
  over an LRU of propagated-feature sessions, with queue-depth admission
  control (:class:`OverloadedError` → HTTP 429 with ``Retry-After``);
* :mod:`repro.serving.httpd` — a single-threaded ``selectors``-based HTTP
  frontend (keep-alive, bounded connections, graceful drain) that parks
  connections on batch tickets instead of blocking a thread per request.

One ``repro serve`` process is the serving unit: its sessions, graph stores
and graph updates are its own, and servers share only the registry.
"""

from repro.serving.batcher import BatchStats, MicroBatcher
from repro.serving.graphstore import EdgeDelta, GraphStore
from repro.serving.httpd import SelectorHTTPServer, serve_http
from repro.serving.metrics import Histogram, ModelMetrics, ServingMetrics
from repro.serving.registry import (
    ModelRecord,
    ModelRegistry,
    RegistryWatcher,
    parse_model_ref,
    watch_models,
)
from repro.serving.router import ModelRouter
from repro.serving.service import (
    InferenceService,
    OverloadedError,
    PredictRequest,
    format_prediction,
    format_prediction_body,
    parse_graph_update_payload,
    parse_predict_payload,
    render_scores_json,
)

__all__ = [
    "BatchStats",
    "EdgeDelta",
    "GraphStore",
    "Histogram",
    "InferenceService",
    "MicroBatcher",
    "ModelMetrics",
    "ModelRecord",
    "ModelRegistry",
    "ModelRouter",
    "OverloadedError",
    "PredictRequest",
    "RegistryWatcher",
    "SelectorHTTPServer",
    "ServingMetrics",
    "format_prediction",
    "format_prediction_body",
    "parse_graph_update_payload",
    "parse_model_ref",
    "parse_predict_payload",
    "render_scores_json",
    "serve_http",
    "watch_models",
]
