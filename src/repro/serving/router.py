"""Per-model routing of inference traffic: one micro-batch queue per model.

A single shared forming batch is wrong under mixed traffic: rows from every
model count toward one ``max_batch_size`` and share one ``max_latency``
deadline, so a cheap model's tickets queue behind an expensive model's flush
and matmul — head-of-line blocking.  The :class:`ModelRouter` kills that bug
by construction: each resolved model key gets its **own**
:class:`~repro.serving.batcher.MicroBatcher` (own forming batch, own
dispatch thread), created lazily on first traffic.  Every queue runs the
router's row budget and deadline, fixed when the router is built.

The router duck-types the public ``MicroBatcher`` surface the service and
tests already speak — ``submit`` / ``predict_scores`` / ``run_once`` /
``start`` / ``close`` / ``stats`` — so it drops into
:class:`~repro.serving.service.InferenceService` as the drop-in data plane.
``stats`` is an aggregate view merged across queues; ``per_model_stats`` and
the attached :class:`~repro.serving.metrics.ServingMetrics` (latency /
batch-size / queue-depth histograms) expose the per-model breakdown that
``/stats`` serves.
"""

from __future__ import annotations

import math
import threading
import time

from repro.serving.batcher import BatchStats, MicroBatcher
from repro.serving.metrics import ServingMetrics


class ModelRouter:
    """Routes ``submit(model_key, nodes)`` to that model's own queue.

    Parameters
    ----------
    compute:
        ``(model_key, node_indices) -> scores``, exactly the
        :class:`MicroBatcher` contract; shared by every queue.
    max_batch_size / max_latency:
        The batch limits every per-model queue runs with.
    metrics:
        A :class:`ServingMetrics` to observe into (one is created when
        omitted); wired into every queue as its observer.
    label:
        ``model_key -> str`` used for stats and metrics labels (default
        ``str``); the service maps session keys to ``name@digest:mode``.
    """

    def __init__(self, compute, *, max_batch_size: int = 64,
                 max_latency: float = 0.005, metrics: ServingMetrics | None = None,
                 clock=time.monotonic, label=str):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if not (max_latency >= 0 and math.isfinite(max_latency)):
            raise ValueError(
                f"max_latency must be finite and >= 0, got {max_latency}")
        self._compute = compute
        self.max_batch_size = int(max_batch_size)
        self.max_latency = float(max_latency)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._clock = clock
        self._label = label
        self._queues: dict = {}
        self._lock = threading.Lock()
        self._started = False

    def depth(self, model_key) -> int:
        """In-flight tickets on one model's queue (0 when it has no queue):
        the signal admission control sheds on, read without creating a
        queue so a rejected request costs no allocation."""
        with self._lock:
            queue = self._queues.get(model_key)
        return queue.depth() if queue is not None else 0

    def queue_for(self, model_key) -> MicroBatcher:
        """The model's own queue, created (and started, if the router is
        running) on first use."""
        with self._lock:
            queue = self._queues.get(model_key)
            if queue is None:
                queue = MicroBatcher(
                    self._compute, max_batch_size=self.max_batch_size,
                    max_latency=self.max_latency, clock=self._clock,
                    observer=self.metrics, label=self._label)
                self._queues[model_key] = queue
                if self._started:
                    queue.start()
            return queue

    # ------------------------------------------------------------------ #
    # the MicroBatcher surface
    # ------------------------------------------------------------------ #
    def submit(self, model_key, nodes):
        """Enqueue on the model's own queue; returns the ticket."""
        return self.queue_for(model_key).submit(model_key, nodes)

    def predict_scores(self, model_key, nodes, timeout: float | None = 30.0):
        """Submit and wait; inline execution when the router is not started
        drains only *this model's* queue (independence even in library use)."""
        queue = self.queue_for(model_key)
        ticket = queue.submit(model_key, nodes)
        if not self._started:
            queue.run_once()
        return ticket.result(timeout)

    def run_once(self) -> int:
        """Drain every queue once, synchronously; returns tickets executed.

        Each model's backlog becomes one batch on its own queue — the
        deterministic entry point tests and benchmarks share."""
        with self._lock:
            queues = list(self._queues.values())
        return sum(queue.run_once() for queue in queues)

    def retire(self, model_key) -> bool:
        """Drop one model's queue (flushing queued tickets, stopping its
        dispatch thread).  Returns True when a queue existed.  The service
        calls this when a session is evicted, so retired model versions do
        not leak a thread per publish; new traffic simply recreates the
        queue."""
        with self._lock:
            queue = self._queues.pop(model_key, None)
        if queue is None:
            return False
        queue.close()
        return True

    def start(self) -> "ModelRouter":
        """Start a dispatch thread per existing queue; future queues start
        on creation (idempotent)."""
        with self._lock:
            self._started = True
            queues = list(self._queues.values())
        for queue in queues:
            queue.start()
        return self

    def close(self) -> None:
        """Flush and stop every queue's dispatch thread."""
        with self._lock:
            self._started = False
            queues = list(self._queues.values())
        for queue in queues:
            queue.close()

    def __enter__(self) -> "ModelRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> BatchStats:
        """Aggregate counters merged across every per-model queue."""
        merged = BatchStats()
        with self._lock:
            queues = list(self._queues.values())
        for queue in queues:
            with queue._stats_lock:
                merged.merge(queue.stats)
        return merged

    def per_model_stats(self) -> dict:
        """Label -> that queue's counters plus its batch limits."""
        with self._lock:
            items = [(self._label(key), queue)
                     for key, queue in self._queues.items()]
        out = {}
        for label, queue in sorted(items):
            with queue._stats_lock:
                counters = queue.stats.as_dict()
            counters["max_batch_size"] = queue.max_batch_size
            counters["max_latency_seconds"] = queue.max_latency
            out[label] = counters
        return out

    def queue_count(self) -> int:
        with self._lock:
            return len(self._queues)
