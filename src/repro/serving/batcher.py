"""Micro-batching of inference requests: many queries, one matmul per model.

Serving traffic arrives as many small, independent queries ("scores for
nodes [3, 17]").  Answering each with its own matmul wastes the data plane:
the per-call overhead (Python dispatch, BLAS setup) dominates the handful of
fused multiply-adds a single row costs.  The :class:`MicroBatcher` coalesces
concurrently arriving requests — up to ``max_batch_size`` queried rows or
``max_latency`` seconds, whichever comes first — and answers each batch with
**one** stacked ``aggregated @ theta`` matmul per distinct model in the
batch.

Correctness does not depend on the schedule: selecting rows of the cached
feature matrix and multiplying the stack is bitwise identical to computing
every node's score individually from the full score matrix (verified by the
serving equivalence tests), so coalescing can only change latency, never
numbers.

The batcher is deliberately execution-agnostic: it calls a user-supplied
``compute(model_key, node_indices) -> scores`` and never touches models,
graphs or caches itself — :class:`repro.serving.service.InferenceService`
wires it to the feature-cache-backed scorer.  ``start()`` runs the dispatch
loop on a daemon thread (the HTTP server path); ``run_once()`` drains the
currently queued requests synchronously, which is what the deterministic
tests and benchmarks use.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class BatchStats:
    """Counters describing what the batcher has done so far.

    Coalescing and batch-row extrema are accounted **per model**: two tickets
    only count as coalesced when they share both a flush *and* a model (they
    were answered by one stacked matmul), and ``max_batch_rows`` is the
    largest single-model stack ever multiplied — not the row count of a
    mixed-model flush, which never hits BLAS as one operation.
    """

    requests: int = 0
    rows_requested: int = 0
    batches: int = 0
    matmuls: int = 0
    coalesced_requests: int = 0   # tickets that shared a matmul with others
    max_batch_rows: int = 0       # largest single-model stacked matmul
    per_model_matmuls: dict = field(default_factory=dict)
    per_model_coalesced: dict = field(default_factory=dict)
    per_model_max_rows: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rows_requested": self.rows_requested,
            "batches": self.batches,
            "matmuls": self.matmuls,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_rows": self.max_batch_rows,
            "per_model_matmuls": dict(self.per_model_matmuls),
            "per_model_coalesced": dict(self.per_model_coalesced),
            "per_model_max_rows": dict(self.per_model_max_rows),
        }

    def merge(self, other: "BatchStats") -> "BatchStats":
        """Fold ``other`` into this aggregate (used by the router's view)."""
        self.requests += other.requests
        self.rows_requested += other.rows_requested
        self.batches += other.batches
        self.matmuls += other.matmuls
        self.coalesced_requests += other.coalesced_requests
        self.max_batch_rows = max(self.max_batch_rows, other.max_batch_rows)
        for source, target in (
                (other.per_model_matmuls, self.per_model_matmuls),
                (other.per_model_coalesced, self.per_model_coalesced)):
            for label, count in source.items():
                target[label] = target.get(label, 0) + count
        for label, rows in other.per_model_max_rows.items():
            self.per_model_max_rows[label] = max(
                self.per_model_max_rows.get(label, 0), rows)
        return self


class _Ticket:
    """One submitted request: callers block on :meth:`result` (or poll
    :meth:`done`, which is what the selector HTTP frontend does)."""

    __slots__ = ("nodes", "model_key", "submitted_at", "execute_at",
                 "compute_started_at", "compute_ended_at", "on_done",
                 "_event", "_scores", "_error")

    def __init__(self, model_key, nodes: np.ndarray, submitted_at: float = 0.0):
        self.model_key = model_key
        self.nodes = nodes
        self.submitted_at = submitted_at
        # Lifecycle timestamps (same clock as submitted_at), stamped by the
        # dispatch thread as the ticket moves through its batch: flush time,
        # matmul start, matmul end.  Pure observation — the HTTP frontend
        # reconstructs queue/batch/compute trace spans from them, so the
        # batcher itself never touches a tracer.  0.0 = not reached.
        self.execute_at = 0.0
        self.compute_started_at = 0.0
        self.compute_ended_at = 0.0
        self.on_done = None  # optional wakeup hook, called after resolution
        self._event = threading.Event()
        self._scores = None
        self._error: BaseException | None = None

    def _resolve(self, scores) -> None:
        self._scores = scores
        self._event.set()
        self._notify()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()
        self._notify()

    def _notify(self) -> None:
        callback = self.on_done
        if callback is not None:
            try:
                callback()
            except Exception:  # a broken waker must not fail the batch
                pass

    def done(self) -> bool:
        """True once the ticket is resolved or failed (never blocks)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the batch executes; raise what the scorer raised."""
        if not self._event.wait(timeout):
            raise TimeoutError("inference request timed out waiting for its batch")
        if self._error is not None:
            raise self._error
        return self._scores


class MicroBatcher:
    """Coalesces inference requests into per-model stacked matmuls.

    Parameters
    ----------
    compute:
        ``(model_key, node_indices: np.ndarray) -> np.ndarray`` — scores for
        the stacked rows.  Must be thread-safe; it runs on the dispatch
        thread, never on callers.
    max_batch_size:
        Flush a forming batch once this many *rows* are queued across its
        requests.
    max_latency:
        Seconds the dispatch loop waits for more requests after the first
        one arrives before flushing regardless of size; finite, because the
        wait is a ``queue.get`` timeout.
    observer:
        Optional metrics sink (duck-typed, see
        :class:`repro.serving.metrics.ServingMetrics`): ``observe_queue_depth
        (label, depth)`` at flush time and ``observe_batch(label, tickets,
        completed_at, failed=...)`` after each per-model matmul.
    """

    def __init__(self, compute, *, max_batch_size: int = 64,
                 max_latency: float = 0.005, clock=time.monotonic,
                 observer=None, label=str):
        self._compute = compute
        self._label = label  # model_key -> str for stats/metrics labels
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if not (max_latency >= 0 and math.isfinite(max_latency)):
            raise ValueError(
                f"max_latency must be finite and >= 0, got {max_latency}")
        self.max_batch_size = int(max_batch_size)
        self.max_latency = float(max_latency)
        self._clock = clock
        self._observer = observer
        self._queue: queue.Queue[_Ticket | None] = queue.Queue()
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._inflight = 0  # submitted, not yet resolved/failed (queue depth)
        self.stats = BatchStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, model_key, nodes) -> _Ticket:
        """Enqueue one request; returns a ticket to block on."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("a request must name at least one node index")
        ticket = _Ticket(model_key, nodes, submitted_at=self._clock())
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.rows_requested += int(nodes.size)
            self._inflight += 1
        self._queue.put(ticket)
        return ticket

    def depth(self) -> int:
        """Tickets submitted but not yet resolved or failed — the queue-depth
        signal admission control sheds on (queued + forming + executing)."""
        with self._stats_lock:
            return self._inflight

    def predict_scores(self, model_key, nodes, timeout: float | None = 30.0) -> np.ndarray:
        """Submit and wait: the synchronous convenience used by the service.

        When no dispatch thread is running, the queued batch is executed
        inline (still through the exact batch path), so the batcher works
        in single-threaded library use without background machinery.
        """
        ticket = self.submit(model_key, nodes)
        if self._thread is None:
            self.run_once()
        return ticket.result(timeout)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def start(self) -> "MicroBatcher":
        """Run the dispatch loop on a daemon thread (idempotent)."""
        if self._thread is None:
            self._stopping.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="repro-serving-batcher")
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the dispatch thread after flushing queued requests.

        Also flushes when no thread was ever started, so closing a queue in
        inline/library use never strands submitted tickets."""
        if self._thread is not None:
            self._stopping.set()
            self._queue.put(None)  # wake the blocked get()
            self._thread.join()
            self._thread = None
        self.run_once()  # resolve anything queued or racing the shutdown

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _loop(self) -> None:
        while not self._stopping.is_set():
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if first is None:
                continue
            batch = [first]
            rows = int(first.nodes.size)
            deadline = self._clock() + self.max_latency
            while rows < self.max_batch_size:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                try:
                    ticket = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if ticket is None:
                    break
                batch.append(ticket)
                rows += int(ticket.nodes.size)
            self._execute(batch)

    def run_once(self) -> int:
        """Drain everything currently queued into one batch; returns the
        number of requests executed.  Deterministic (no timing involved):
        the test/benchmark entry point."""
        batch: list[_Ticket] = []
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                break
            if ticket is not None:
                batch.append(ticket)
        if batch:
            self._execute(batch)
        return len(batch)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, batch: list[_Ticket]) -> None:
        """One stacked matmul per distinct model in ``batch``."""
        try:
            self._execute_batch(batch)
        finally:
            with self._stats_lock:
                self._inflight -= len(batch)

    def _execute_batch(self, batch: list[_Ticket]) -> None:
        flushed_at = self._clock()
        by_model: dict = {}
        for ticket in batch:
            ticket.execute_at = flushed_at
            by_model.setdefault(ticket.model_key, []).append(ticket)
        if self._observer is not None:
            backlog = self._queue.qsize()  # still queued behind this flush
            for model_key, tickets in by_model.items():
                self._observer.observe_queue_depth(self._label(model_key),
                                                   len(tickets) + backlog)
        with self._stats_lock:
            self.stats.batches += 1
            for model_key, tickets in by_model.items():
                # Coalescing and row extrema are per model: tickets of
                # different models in one flush still cost one matmul each,
                # so nothing coalesced and no larger stack was multiplied.
                label = self._label(model_key)
                rows = sum(int(ticket.nodes.size) for ticket in tickets)
                self.stats.max_batch_rows = max(self.stats.max_batch_rows, rows)
                self.stats.per_model_max_rows[label] = max(
                    self.stats.per_model_max_rows.get(label, 0), rows)
                if len(tickets) > 1:
                    self.stats.coalesced_requests += len(tickets)
                    self.stats.per_model_coalesced[label] = \
                        self.stats.per_model_coalesced.get(label, 0) + len(tickets)
        try:
            for model_key, tickets in by_model.items():
                stacked = np.concatenate([ticket.nodes for ticket in tickets])
                compute_started = self._clock()
                for ticket in tickets:
                    ticket.compute_started_at = compute_started
                try:
                    scores = self._compute(model_key, stacked)
                except Exception as error:  # forwarded to the blocked callers
                    compute_ended = self._clock()
                    for ticket in tickets:
                        ticket.compute_ended_at = compute_ended
                        ticket._fail(error)
                    self._observe(model_key, tickets, failed=True)
                    continue
                compute_ended = self._clock()
                for ticket in tickets:
                    ticket.compute_ended_at = compute_ended
                with self._stats_lock:
                    self.stats.matmuls += 1
                    label = self._label(model_key)
                    per_model = self.stats.per_model_matmuls
                    per_model[label] = per_model.get(label, 0) + 1
                offset = 0
                for ticket in tickets:
                    ticket._resolve(scores[offset:offset + ticket.nodes.size])
                    offset += ticket.nodes.size
                self._observe(model_key, tickets, failed=False)
        except BaseException as error:
            # A non-Exception (KeyboardInterrupt, SystemExit, ...) from the
            # compute hook must not strand callers blocked on their tickets
            # until timeout: fail every still-unresolved ticket, then
            # re-raise for the dispatch loop / inline caller to handle.
            for ticket in batch:
                if not ticket.done():
                    ticket._fail(error)
            raise

    def _observe(self, model_key, tickets: list[_Ticket], *, failed: bool) -> None:
        if self._observer is None:
            return
        self._observer.observe_batch(self._label(model_key), tickets,
                                     self._clock(), failed=failed)
