"""The inference control room: sessions, per-model routing, the JSON API.

:class:`InferenceService` is the in-process API — ``predict`` /
``predict_proba`` / ``top_k`` / ``health`` / ``stats`` — over models
resolved from a :class:`~repro.serving.registry.ModelRegistry`.  Per served
model it keeps a *session*: the released Θ_priv plus the aggregated feature
matrix ``F`` of the serving graph (encoder forward pass, L2 normalisation,
Eq. 16/Eq. 11 propagation — the expensive, query-independent half of
Algorithm 4), held in an LRU so repeated queries skip propagation entirely.
Queries then flow through the :class:`~repro.serving.router.ModelRouter`:
**each model version gets its own micro-batch queue** (own row budget, own
deadline, own dispatch thread), so one model's burst can never head-of-line
block another's tickets, and every answer stays bitwise identical to offline
:func:`~repro.core.inference.private_inference_scores` /
:func:`~repro.core.inference.public_inference_scores` on the same bundle.

The serving graph is **versioned**: each graph lives in a
:class:`~repro.serving.graphstore.GraphStore` as a sequence of epochs, and
sessions are keyed by ``(model digest, graph epoch, mode)``.  A request pins
the epoch current at submit time — a concurrent ``apply_graph_update`` never
mixes old and new features into one answer — and sessions for a new epoch
are rebuilt from the previous epoch's session via
:func:`~repro.core.propagation.incremental_inference_features`: a private
session recomputes only the delta endpoints' rows and reuses every other
row bitwise, while a public session recomputes every row, because APPR
spreads a delta over most of a real graph.

The HTTP frontend lives in :mod:`repro.serving.httpd` (a single-threaded
``selectors`` loop; ``serve_http`` is re-exported from :mod:`repro.serving`):

* ``GET  /healthz``      liveness + loaded models + graph epochs
* ``GET  /stats``        per-model latency histograms (p50/p95/p99),
  batch-size and queue-depth distributions, batcher/cache counters
* ``GET  /models``       registry listing
* ``GET  /v1/graph/status``  per-graph epoch, digest and delta-log summary
* ``POST /v1/predict``   ``{"model": "name@latest", "nodes": [..],
  "mode"?: "private"|"public", "top_k"?: int, "proba"?: bool}``
* ``POST /v1/graph/update``  ``{"insert": [[u, v], ..], "delete": [..],
  "sample_insert"?: int, "sample_delete"?: int, "seed"?: int}``

This module also owns the transport-independent halves of that API:
:func:`parse_predict_payload` / :func:`parse_graph_update_payload` (request
validation) and :func:`format_prediction` (response shaping), so the
frontend stays pure plumbing.

The graph a model is served against defaults to the dataset preset recorded
in its manifest at publish time (name, scale, seed), and must hash to the
manifest's recorded ``graph_digest`` when it has one; pass ``graph=`` or a
``graph_loader`` to serve against a different node universe.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.inference import (INFERENCE_MODES, batched_inference_scores,
                                  inference_features)
from repro.core.propagation import (PropagationCache,
                                    incremental_inference_features)
from repro.exceptions import ConfigurationError, ReproError
from repro.obs.process import process_stats
from repro.serving.graphstore import EdgeDelta, GraphStore
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry
from repro.serving.router import ModelRouter
from repro.utils.lru import LRUDict
from repro.utils.math import row_normalize_l2


def softmax_scores(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over raw class scores (shared by API and HTTP layer)."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def top_k_entries(scores: np.ndarray, k: int) -> list:
    """Per row: the ``k`` best classes with their scores, best first."""
    k = max(1, min(int(k), scores.shape[1]))
    order = np.argsort(-scores, axis=1)[:, :k]
    return [
        [{"label": int(label), "score": float(row_scores[label])}
         for label in row_order]
        for row_order, row_scores in zip(order, scores)
    ]


def _default_graph_loader(manifest: dict):
    """Rebuild the serving graph from the manifest's training provenance."""
    from repro.graphs.datasets import load_dataset

    training = manifest.get("training", {})
    dataset = training.get("dataset")
    if not dataset:
        raise ConfigurationError(
            "the model manifest records no training dataset; pass an explicit "
            "graph (or graph_loader) to InferenceService")
    return load_dataset(dataset, scale=float(training.get("scale", 1.0)),
                        seed=int(training.get("graph_seed", 0)))


def _store_key_for(manifest: dict) -> str:
    """Stable store key for a manifest's training provenance."""
    training = (manifest or {}).get("training", {})
    dataset = training.get("dataset")
    if not dataset:
        return "default"
    return (f"{dataset}:{float(training.get('scale', 1.0)):g}"
            f":{int(training.get('graph_seed', 0))}")


class _ModelSession:
    """One served (model version, graph epoch, mode): theta + features.

    Beyond the scoring pair (``theta``, ``features``) a session keeps the
    inputs of the *next* incremental rebuild: the encoded ``X`` (epoch
    independent — edge deltas never touch node features), its epoch and
    store, and the propagation hyper-parameters from the model config.
    """

    __slots__ = ("record", "theta", "features", "num_classes", "encoded",
                 "epoch", "store_key", "alpha", "steps", "inference_alpha")

    def __init__(self, record, theta: np.ndarray, features: np.ndarray, *,
                 encoded: np.ndarray, epoch: int, store_key: str,
                 alpha: float, steps: tuple, inference_alpha: float):
        self.record = record
        self.theta = theta
        self.features = features
        self.num_classes = theta.shape[1]
        self.encoded = encoded
        self.epoch = int(epoch)
        self.store_key = store_key
        self.alpha = float(alpha)
        self.steps = tuple(steps)
        self.inference_alpha = float(inference_alpha)


class OverloadedError(ReproError):
    """A request was shed by admission control (queue depth over the cap).

    ``retry_after`` is the estimated seconds until the model's queue has
    drained — what the HTTP frontend serialises into the ``Retry-After``
    header (rounded up to whole seconds, as the header requires).
    """

    def __init__(self, message: str, *, retry_after: float, label: str,
                 depth: int, max_queue_depth: int):
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.label = label
        self.depth = int(depth)
        self.max_queue_depth = int(max_queue_depth)

    @property
    def retry_after_header(self) -> int:
        """``Retry-After`` header value: whole seconds, at least 1."""
        return max(1, math.ceil(self.retry_after))


def estimate_drain_seconds(depth: int, max_batch_size: int,
                           max_latency: float) -> float:
    """Rough drain time of a queue ``depth`` tickets deep: each flush clears
    up to ``max_batch_size`` tickets and a forming batch waits at most
    ``max_latency`` — a floor of 10 ms keeps the hint non-zero even for
    deadline-free queues."""
    flushes = math.ceil(max(depth, 1) / max(max_batch_size, 1))
    return flushes * max(max_latency, 0.010)


class InferenceService:
    """Batched inference over registry models (the serving control room).

    Thread-safe: sessions are built under a lock, scoring happens on the
    batcher's dispatch thread, counters are locked.  ``start()`` launches the
    micro-batching thread; without it, each call executes its batch inline
    (still through the stacked-matmul path), which is what single-threaded
    library use and the deterministic tests rely on.
    """

    def __init__(self, registry: ModelRegistry | str, *, graph=None,
                 graph_loader=None, max_batch_size: int = 64,
                 max_latency: float = 0.005, max_sessions: int = 8,
                 max_queue_depth: int | None = None,
                 mmap_bundles: bool = True):
        self.registry = (registry if isinstance(registry, ModelRegistry)
                         else ModelRegistry(registry))
        self._graph_loader = graph_loader or _default_graph_loader
        # Serving graphs, each a versioned epoch sequence.  An injected
        # graph= becomes the single "default" store every model serves
        # against; otherwise stores materialise lazily per manifest
        # provenance on first use.
        self._graph_lock = threading.Lock()
        self._graphs: dict[str, GraphStore] = {}
        if graph is not None:
            self._graphs["default"] = GraphStore(graph)
        self._sessions = LRUDict(max_entries=max_sessions)
        self._lock = threading.Lock()
        self._labels: dict[tuple, str] = {}  # session key -> human label
        self.metrics = ServingMetrics()
        self.batcher = ModelRouter(self._score_rows,
                                   max_batch_size=max_batch_size,
                                   max_latency=max_latency,
                                   metrics=self.metrics,
                                   label=self._label_for)
        # Admission control: queue depths past this cap are answered with
        # OverloadedError (HTTP 429) instead of being parked on a ticket.
        # None disables shedding (the library default).
        self.max_queue_depth = (None if max_queue_depth is None
                                else int(max_queue_depth))
        self.shed_counts: dict[str, int] = {}
        self.mmap_bundles = bool(mmap_bundles)
        self.cache_stats = {"feature_hits": 0, "feature_misses": 0}
        # The service owns its propagation cache (transition / LU solver /
        # features layers) instead of touching the process-global one:
        # session builds run on arbitrary request threads and must not race
        # a sweep's `propagation_cache(...)` context swap.
        self.propagation = PropagationCache()
        self.graph_stats = {
            "updates": 0,
            "sessions_rebuilt_incremental": 0,
            "sessions_rebuilt_full": 0,
            "rows_recomputed": 0,
            "rows_reused": 0,
        }
        self.started_at = time.time()

    def _label_for(self, key: tuple) -> str:
        """Human label for a session key: ``name@digest12:g<epoch>:mode``
        once the session has been built, a digest fallback before that."""
        label = self._labels.get(key)
        if label is None:
            digest, epoch, mode = key
            label = f"{digest[:12]}:g{epoch}:{mode}"
        return label

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceService":
        self.batcher.start()
        return self

    def close(self) -> None:
        self.batcher.close()

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # graph stores
    # ------------------------------------------------------------------ #
    def _store_for(self, manifest: dict) -> GraphStore:
        """The graph store a model serves against (built on first use).

        A graph regenerated from the manifest's provenance must be the one
        the model was trained on: its epoch-0 digest is checked against the
        manifest's ``graph_digest``, so a generator that drifted fails here
        instead of serving wrong answers.
        """
        with self._graph_lock:
            default = self._graphs.get("default")
            if default is not None:
                return default
            key = _store_key_for(manifest)
            store = self._graphs.get(key)
        if store is None:
            # Load outside the lock: dataset construction is the expensive
            # part.
            graph = self._graph_loader(manifest)
            with self._graph_lock:
                store = self._graphs.setdefault(key,
                                                GraphStore(graph, key=key))
        if self._graph_loader is _default_graph_loader:
            trained = manifest.get("training", {}).get("graph_digest")
            if trained and trained != store.base_digest:
                raise ConfigurationError(
                    f"model was trained on graph {trained}, but the graph "
                    f"regenerated for {key!r} has digest {store.base_digest}; "
                    f"refusing to serve it against a different graph")
        return store

    def _resolve_store(self, name: str | None) -> GraphStore:
        """The store a graph update targets (by key, or the only one)."""
        with self._graph_lock:
            stores = dict(self._graphs)
        if name:
            store = stores.get(name)
            if store is None:
                raise ConfigurationError(
                    f"unknown graph {name!r}; loaded graphs: "
                    f"{sorted(stores) or 'none'}")
            return store
        if not stores:
            raise ConfigurationError(
                "no serving graph is loaded yet; serve a prediction first "
                "(or construct the service with graph=)")
        if len(stores) > 1:
            raise ConfigurationError(
                f"multiple graphs are loaded ({sorted(stores)}); name one "
                f"with 'graph'")
        return next(iter(stores.values()))

    def graph_epochs(self) -> dict[str, int]:
        """Current epoch per loaded graph (``/stats``, ``/healthz`` and
        ``/metrics`` report it)."""
        with self._graph_lock:
            stores = dict(self._graphs)
        return {key: store.epoch for key, store in sorted(stores.items())}

    def graph_status(self) -> dict:
        """The ``GET /v1/graph/status`` payload: per-graph epoch state plus
        the service-level rebuild counters."""
        with self._graph_lock:
            stores = dict(self._graphs)
        with self._lock:
            stats = dict(self.graph_stats)
        return {
            "graphs": {key: store.status()
                       for key, store in sorted(stores.items())},
            "stats": stats,
        }

    # ------------------------------------------------------------------ #
    # sessions (model digest, graph epoch, mode) -> theta + features
    # ------------------------------------------------------------------ #
    def _session(self, ref: str, mode: str | None,
                 epoch: int | None = None) -> tuple[tuple, _ModelSession]:
        # The registry resolve runs per call on purpose: "@latest" must pick
        # up a concurrent publish.  The expensive part (loading the bundle,
        # building the graph, propagation) is cached by content digest and
        # graph epoch.
        record = self.registry.resolve(ref)
        mode = mode or record.inference_mode
        if mode not in INFERENCE_MODES:
            raise ConfigurationError(
                f"mode must be one of {INFERENCE_MODES}, got {mode!r}")
        return self._session_for_record(record, mode, epoch)

    def _session_for_record(self, record, mode: str,
                            epoch: int | None = None
                            ) -> tuple[tuple, _ModelSession]:
        store = self._store_for(record.manifest)
        if epoch is None:
            # Pin the epoch *now*: the returned key keeps scoring against
            # this epoch's features even if an update lands mid-request.
            epoch = store.epoch
        key = (record.digest, int(epoch), mode)
        with self._lock:
            session = self._sessions.get_or_none(key)
            if session is not None:
                self.cache_stats["feature_hits"] += 1
                return key, session
            self.cache_stats["feature_misses"] += 1
            base = self._incremental_base(record.digest, mode, store.key,
                                          int(epoch))
        # Build outside the lock: a cold load (npz + graph + encoder forward
        # + propagation) must not stall the dispatch thread or hot models.
        # Two racing builders compute bitwise-identical sessions; last put
        # wins and the loser's work is garbage-collected.
        session = (self._build_incremental(base, store, int(epoch), mode)
                   if base is not None else None)
        if session is None:
            session = self._build_full(record, store, int(epoch), mode)
        with self._lock:
            self._sessions.put(key, session)
            self._labels[key] = f"{session.record.ref}:g{epoch}:{mode}"
            evicted = [old for old in self._labels if old not in self._sessions]
        self._retire(evicted)
        return key, session

    def _retire(self, keys) -> None:
        """Retire evicted sessions' queues (flush + stop the dispatch thread),
        then drop their labels from the metrics, so a server whose "@latest"
        or graph epoch keeps advancing holds a thread and a label per live
        session only.  Labels drop after the flush, so the final
        observations still carry the human name.
        """
        for key in keys:
            self.batcher.retire(key)
        with self._lock:
            labels = [self._labels.pop(key, None) for key in keys]
        for label in filter(None, labels):
            self.metrics.forget(label)

    def _incremental_base(self, digest: str, mode: str, store_key: str,
                          epoch: int) -> _ModelSession | None:
        """The newest cached session of the same (model, graph, mode) at an
        older epoch — the bitwise starting point of an incremental rebuild.
        Caller holds ``self._lock``."""
        best = None
        for (key_digest, key_epoch, key_mode), session in self._sessions.items():
            if (key_digest == digest and key_mode == mode
                    and session.store_key == store_key
                    and key_epoch < epoch
                    and (best is None or key_epoch > best.epoch)):
                best = session
        return best

    def _build_incremental(self, base: _ModelSession, store: GraphStore,
                           epoch: int, mode: str) -> _ModelSession | None:
        """Advance ``base`` to ``epoch`` off its features and encoder output
        (private: only the intervening deltas' endpoint rows recomputed);
        ``None`` falls back to a full build (e.g. the base epoch's graph
        left the history window)."""
        try:
            graph = store.graph_at(epoch)
            digest = store.digest_at(epoch)
            endpoints = store.endpoints_between(base.epoch, epoch)
        except ConfigurationError:
            return None
        propagator = self.propagation.propagator(graph.adjacency, base.alpha,
                                                 key=digest)
        features, touched = incremental_inference_features(
            propagator, base.encoded, base.features, endpoints, base.steps,
            mode=mode, inference_alpha=base.inference_alpha)
        with self._lock:
            self.graph_stats["sessions_rebuilt_incremental"] += 1
            self.graph_stats["rows_recomputed"] += int(touched.size)
            self.graph_stats["rows_reused"] += \
                int(features.shape[0] - touched.size)
        return _ModelSession(record=base.record, theta=base.theta,
                             features=features, encoded=base.encoded,
                             epoch=epoch, store_key=store.key,
                             alpha=base.alpha, steps=base.steps,
                             inference_alpha=base.inference_alpha)

    def _build_full(self, record, store: GraphStore, epoch: int,
                    mode: str) -> _ModelSession:
        """The reference path: bundle load, encoder forward pass and a full
        propagation against the epoch's graph (bitwise identical to
        :meth:`~repro.core.model.GCON.inference_features`)."""
        model, record = self.registry.load(record.ref, mmap=self.mmap_bundles)
        graph = store.graph_at(epoch)
        encoded = row_normalize_l2(model.encoder_.encode(graph.features))
        propagator = self.propagation.propagator(graph.adjacency,
                                                 model.config.alpha,
                                                 key=store.digest_at(epoch))
        steps = tuple(model.config.normalized_steps)
        inference_alpha = model.config.effective_inference_alpha
        features = inference_features(propagator, encoded, steps, mode=mode,
                                      inference_alpha=inference_alpha)
        if epoch > 0:
            with self._lock:
                self.graph_stats["sessions_rebuilt_full"] += 1
        return _ModelSession(record=record, theta=model.theta_,
                             features=features, encoded=encoded, epoch=epoch,
                             store_key=store.key, alpha=model.config.alpha,
                             steps=steps, inference_alpha=inference_alpha)

    def _score_rows(self, session_key: tuple, nodes: np.ndarray) -> np.ndarray:
        """The batcher's compute hook: one stacked matmul over cached rows."""
        with self._lock:
            session = self._sessions.get_or_none(session_key)
        if session is None:  # evicted between submit and dispatch; rebuild
            digest, epoch, mode = session_key
            session = self._rebuild(digest, epoch, mode)
        self._validate_nodes(nodes, session.features.shape[0])
        if nodes.size == 1:
            # A one-row product may dispatch to a GEMV kernel whose last bit
            # can differ from the GEMM the offline full-matrix path uses; pad
            # to two rows so every served answer — even an uncoalesced
            # singleton — is bitwise identical to offline inference.
            padded = session.features[[int(nodes[0]), int(nodes[0])]]
            return batched_inference_scores(padded, session.theta)[:1]
        return batched_inference_scores(session.features[nodes], session.theta)

    def _rebuild(self, digest: str, epoch: int, mode: str) -> _ModelSession:
        # Rebuild at the *pinned* epoch: the graph store's bounded history
        # keeps recent epochs alive exactly so an evicted in-flight ticket
        # still scores against the epoch it was submitted under.
        for record in self.registry.list():
            if record.digest == digest:
                _key, session = self._session(record.ref, mode, epoch=epoch)
                return session
        raise ConfigurationError(f"model version {digest[:12]} left the registry")

    # ------------------------------------------------------------------ #
    # live graph mutation
    # ------------------------------------------------------------------ #
    def apply_graph_update(self, *, inserts=(), deletes=(),
                           sample_insert: int = 0, sample_delete: int = 0,
                           seed=None, graph: str | None = None) -> dict:
        """Apply one edge-delta batch and refresh the affected sessions.

        Two stages, both timed for the request trace: **apply** validates
        the batch, atomically advances the store's epoch and hashes the new
        adjacency; **repropagate** rebuilds every cached session that served
        the previous epoch off that session (private: endpoint rows
        recomputed, the rest reused bitwise; public: every row recomputed,
        all finite steps in one APPR recursion).  The rebuilds key the
        propagation cache by the store's epoch digest, so the new adjacency
        is hashed once per update.
        Requests already in flight keep their pinned epoch — the previous
        epoch's sessions and graph stay available until evicted.
        """
        store = self._resolve_store(graph)
        apply_start = time.monotonic_ns()
        delta = EdgeDelta(inserts, deletes)
        if sample_insert or sample_delete:
            sampled = store.sample_delta(sample_insert, sample_delete, seed)
            delta = EdgeDelta(delta.inserts + sampled.inserts,
                              delta.deletes + sampled.deletes)
        previous_epoch = store.epoch
        entry = store.apply(delta)
        apply_end = time.monotonic_ns()
        with self._lock:
            self.graph_stats["updates"] += 1
            refresh = [
                (key, session) for key, session in self._sessions.items()
                if session.store_key == store.key
                and session.epoch == previous_epoch
            ]
        # Rebuild eagerly so the next query hits a warm session; each
        # rebuild takes the incremental path off the session we just found.
        for (_digest, _epoch, mode), session in refresh:
            self._session_for_record(session.record, mode,
                                     epoch=entry["epoch"])
        repropagate_end = time.monotonic_ns()
        result = {
            "graph": store.key,
            "epoch": entry["epoch"],
            "previous_epoch": previous_epoch,
            "digest": entry["digest"],
            "inserted": len(delta.inserts),
            "deleted": len(delta.deletes),
            "endpoints": entry["endpoints"],
            "sessions_refreshed": len(refresh),
            "timings_ns": {
                "apply": (apply_start, apply_end),
                "repropagate": (apply_end, repropagate_end),
            },
        }
        return result

    # ------------------------------------------------------------------ #
    # hot-reload hooks (used by the registry watcher)
    # ------------------------------------------------------------------ #
    def prewarm(self, ref: str, mode: str | None = None):
        """Build (or refresh) the session for ``ref`` and return its record.

        This is the expensive half of serving a new version — bundle load,
        graph rebuild, encoder forward pass, propagation — pulled forward so
        a ``latest.json`` flip never pays the cold build on a live request.
        """
        _key, session = self._session(ref, mode)
        return session.record

    def retire_version(self, digest: str) -> int:
        """Drop every cached session of ``digest`` and retire its queues.

        The rolling-rollout back half: once the watcher has pre-warmed the
        new version, the old one's sessions are evicted and their dispatch
        queues flushed+stopped (in-flight tickets complete first — see
        ``ModelRouter.retire``), so a long-lived server does not keep one
        thread and one feature matrix per superseded publish.  Returns the
        number of sessions retired.
        """
        with self._lock:
            keys = [key for key in self._sessions if key[0] == digest]
            for key in keys:
                self._sessions.pop(key, None)
        self._retire(keys)
        return len(keys)

    def loaded_digests(self) -> list[str]:
        """Distinct content digests with a live session, sorted (the
        ``repro_sessions_loaded`` gauge counts them)."""
        with self._lock:
            return sorted({key[0] for key in self._sessions})

    @staticmethod
    def _validate_nodes(nodes: np.ndarray, num_nodes: int) -> None:
        if nodes.size == 0:
            raise ConfigurationError("at least one node index is required")
        if nodes.min() < 0 or nodes.max() >= num_nodes:
            raise ConfigurationError(
                f"node indices must be in [0, {num_nodes}), got "
                f"[{int(nodes.min())}, {int(nodes.max())}]")

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def _admit(self, key: tuple) -> None:
        """Shed-before-queue: raise :class:`OverloadedError` when the
        model's queue is at the depth cap.

        Runs *before* the request is parked on a ticket — the rejection
        costs a dict lookup and a counter read, never a matmul — and the
        retry hint is the queue's estimated drain time under the batch
        limits every queue runs with."""
        if self.max_queue_depth is None:
            return
        depth = self.batcher.depth(key)
        if depth < self.max_queue_depth:
            return
        label = self._label_for(key)
        with self._lock:
            self.shed_counts[label] = self.shed_counts.get(label, 0) + 1
        raise OverloadedError(
            f"model {label} is overloaded: queue depth {depth} >= "
            f"{self.max_queue_depth}; retry later",
            retry_after=estimate_drain_seconds(
                depth, self.batcher.max_batch_size, self.batcher.max_latency),
            label=label, depth=depth, max_queue_depth=self.max_queue_depth)

    # ------------------------------------------------------------------ #
    # the query API
    # ------------------------------------------------------------------ #
    def submit_batch(self, ref: str, nodes, mode: str | None = None, *,
                     epoch: int | None = None):
        """The non-blocking half of :meth:`predict_batch`.

        Resolves the session (pinning the current graph epoch unless an
        explicit ``epoch`` is requested), validates nodes, enqueues on the
        model's own queue and returns ``(ticket, record, mode)`` immediately
        — the selector HTTP frontend parks the connection on the ticket
        instead of blocking an OS thread per request.
        """
        key, session = self._session(ref, mode, epoch=epoch)
        self._admit(key)
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        self._validate_nodes(nodes, session.features.shape[0])
        ticket = self.batcher.submit(key, nodes)
        return ticket, session.record, key[2]

    def predict_batch(self, ref: str, nodes, mode: str | None = None,
                      timeout: float | None = 30.0, *,
                      epoch: int | None = None):
        """Scores plus the exact version and mode that produced them.

        Returns ``(scores, record, mode)``.  Node indices are validated
        *before* the request enters the batcher, so one caller's bad index
        can never fail the strangers coalesced into the same micro-batch.
        """
        key, session = self._session(ref, mode, epoch=epoch)
        self._admit(key)
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        self._validate_nodes(nodes, session.features.shape[0])
        scores = self.batcher.predict_scores(key, nodes, timeout=timeout)
        return scores, session.record, key[2]

    def predict_scores(self, ref: str, nodes, mode: str | None = None,
                       timeout: float | None = 30.0) -> np.ndarray:
        """Raw class scores for ``nodes`` — the batched Algorithm-4 data plane."""
        scores, _record, _mode = self.predict_batch(ref, nodes, mode,
                                                    timeout=timeout)
        return scores

    def predict(self, ref: str, nodes, mode: str | None = None) -> np.ndarray:
        """Predicted class labels for ``nodes``."""
        return np.argmax(self.predict_scores(ref, nodes, mode), axis=1)

    def predict_proba(self, ref: str, nodes, mode: str | None = None) -> np.ndarray:
        """Softmax-normalised class probabilities (pure post-processing)."""
        return softmax_scores(self.predict_scores(ref, nodes, mode))

    def top_k(self, ref: str, nodes, k: int = 3, mode: str | None = None):
        """Per node: the ``k`` best classes with their scores, best first."""
        return top_k_entries(self.predict_scores(ref, nodes, mode), k)

    # ------------------------------------------------------------------ #
    # health / stats
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        with self._lock:
            loaded = sorted({session.record.ref for session in self._sessions.values()})
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "models_loaded": loaded,
            "graph_epochs": self.graph_epochs(),
            "registry": str(self.registry.root),
        }

    def stats(self) -> dict:
        """Aggregate counters plus the per-model observability breakdown:
        each served model's batch counters, effective limits, latency
        histogram (p50/p95/p99 in ms) and batch/queue distributions."""
        with self._lock:
            cache = dict(self.cache_stats, sessions=len(self._sessions))
            shed = dict(self.shed_counts)
            graph_stats = dict(self.graph_stats)
        per_model = self.batcher.per_model_stats()
        histograms = self.metrics.as_dict()
        models = {label: {**per_model.get(label, {}),
                          **histograms.get(label, {})}
                  for label in set(per_model) | set(histograms)}
        return {
            "batcher": self.batcher.stats.as_dict(),
            "models": models,
            "feature_cache": cache,
            "propagation_cache": self.propagation.info(),
            "graph": {**graph_stats, "epochs": self.graph_epochs()},
            "max_batch_size": self.batcher.max_batch_size,
            "max_latency_seconds": self.batcher.max_latency,
            "admission": {
                "max_queue_depth": self.max_queue_depth,
                "shed_total": sum(shed.values()),
                "shed_per_model": shed,
            },
            # uptime + RSS; the HTTP frontend overlays its connection
            # counts (open/parked) before serialising /stats.
            "process": process_stats(self.started_at),
        }


# --------------------------------------------------------------------------- #
# the transport-independent halves of the JSON API
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PredictRequest:
    """A validated ``/v1/predict`` payload."""

    ref: str
    nodes: list
    mode: str | None
    top_k: int | None
    proba: bool


def parse_predict_payload(payload) -> PredictRequest:
    """Validate a decoded ``/v1/predict`` body; raises
    :class:`ConfigurationError` (→ HTTP 400) on every malformed shape, so a
    client typo can never surface as a 500 traceback."""
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")
    ref = payload.get("model")
    nodes = payload.get("nodes")
    if not ref or not isinstance(ref, str):
        raise ConfigurationError("'model' (e.g. 'name@latest') is required")
    if not isinstance(nodes, list) or not nodes \
            or not all(isinstance(node, int) and not isinstance(node, bool)
                       for node in nodes):
        raise ConfigurationError("'nodes' must be a non-empty list of integers")
    if not all(-(2 ** 63) <= node < 2 ** 63 for node in nodes):
        # Keep the 400-never-500 contract: a node index that overflows int64
        # would otherwise blow up inside np.asarray on the scoring path.
        raise ConfigurationError("node indices must fit in a 64-bit integer")
    mode = payload.get("mode")
    if mode is not None and not isinstance(mode, str):
        raise ConfigurationError(f"'mode' must be a string, got {mode!r}")
    top_k = payload.get("top_k")
    if top_k is not None and (isinstance(top_k, bool)
                              or not isinstance(top_k, int) or top_k < 1):
        raise ConfigurationError("'top_k' must be a positive integer")
    return PredictRequest(ref=ref, nodes=list(nodes), mode=mode,
                          top_k=top_k, proba=bool(payload.get("proba")))


def parse_graph_update_payload(payload) -> dict:
    """Validate a decoded ``/v1/graph/update`` body into
    :meth:`InferenceService.apply_graph_update` keyword arguments; raises
    :class:`ConfigurationError` (→ HTTP 400) on every malformed shape.
    Per-edge validation (self-loops, duplicates, phantom deletes) happens
    in :class:`~repro.serving.graphstore.EdgeDelta` and the store."""
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")

    def _edges(name: str) -> list:
        value = payload.get(name, [])
        if not isinstance(value, list):
            raise ConfigurationError(
                f"'{name}' must be a list of [u, v] pairs")
        return value

    def _count(name: str) -> int:
        value = payload.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigurationError(
                f"'{name}' must be a non-negative integer")
        return value

    seed = payload.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int) or seed < 0):
        raise ConfigurationError("'seed' must be a non-negative integer")
    graph = payload.get("graph")
    if graph is not None and not isinstance(graph, str):
        raise ConfigurationError("'graph' must be a string store key")
    kwargs = {
        "inserts": _edges("insert"),
        "deletes": _edges("delete"),
        "sample_insert": _count("sample_insert"),
        "sample_delete": _count("sample_delete"),
        "seed": seed,
        "graph": graph,
    }
    if not (kwargs["inserts"] or kwargs["deletes"]
            or kwargs["sample_insert"] or kwargs["sample_delete"]):
        raise ConfigurationError(
            "the update must name edges ('insert'/'delete') or sample "
            "counts ('sample_insert'/'sample_delete')")
    return kwargs


def format_prediction(request: PredictRequest, scores: np.ndarray,
                      record, mode: str) -> dict:
    """Shape the ``/v1/predict`` response (pure post-processing: labels,
    optional softmax and top-k); the metadata names exactly the version that
    produced the scores, even if ``@latest`` advanced mid-request.

    This is the structured (dict) form for library callers and tests; the
    HTTP hot path uses :func:`format_prediction_body`, which renders the
    identical bytes without materialising the nested score lists."""
    response = {
        "model": record.ref,
        "mode": mode,
        "nodes": request.nodes,
        "labels": np.argmax(scores, axis=1).tolist(),
        "scores": [[float(value) for value in row] for row in scores],
    }
    if request.proba:
        proba = softmax_scores(scores)
        response["proba"] = [[float(value) for value in row] for row in proba]
    if request.top_k is not None:
        response["top_k"] = top_k_entries(scores, request.top_k)
    return response


def render_scores_json(scores: np.ndarray) -> str:
    """JSON text of a 2-D score matrix, straight out of the matmul buffer.

    A ticket's scores are a *view* into the batch's stacked matmul output;
    this renders that view in one fused pass — a single C-level buffer
    conversion plus text formatting — instead of building the nested
    list-of-lists payload and re-walking it with ``json.dumps``.  The text
    is byte-identical to ``json.dumps`` of the nested-list form: both print
    finite doubles via ``float.__repr__``, the shortest round-tripping
    decimal, so the zero-copy path changes cost, never bytes (pinned by
    ``tests/test_serving_service.py``).
    """
    num_cols = int(scores.shape[1])
    flat = scores.ravel().tolist()  # one C pass over the contiguous buffer
    return "[" + ", ".join(
        "[" + ", ".join(map(repr, flat[start:start + num_cols])) + "]"
        for start in range(0, len(flat), num_cols)) + "]"


def format_prediction_body(request: PredictRequest, scores: np.ndarray,
                           record, mode: str) -> bytes:
    """The HTTP hot path: render the full ``/v1/predict`` response body in
    one pass, byte-identical to
    ``json.dumps(format_prediction(...), sort_keys=True) + "\\n"``.

    Keys are emitted in sorted order and the score (and optional proba)
    matrices are serialised by :func:`render_scores_json` directly from the
    stacked matmul buffer — no intermediate nested lists are built for the
    response's numeric payload."""
    parts = [
        '"labels": ' + json.dumps(np.argmax(scores, axis=1).tolist()),
        '"mode": ' + json.dumps(mode),
        '"model": ' + json.dumps(record.ref),
        '"nodes": ' + json.dumps(request.nodes),
    ]
    if request.proba:
        parts.append('"proba": ' + render_scores_json(softmax_scores(scores)))
    parts.append('"scores": ' + render_scores_json(scores))
    if request.top_k is not None:
        parts.append('"top_k": ' + json.dumps(
            top_k_entries(scores, request.top_k), sort_keys=True))
    return ("{" + ", ".join(parts) + "}\n").encode("utf-8")
