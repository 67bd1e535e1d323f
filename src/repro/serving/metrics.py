"""Serving observability: per-model latency histograms and distributions.

The data plane's only promise is bitwise-identical scores; everything else a
production server is judged on is *latency shape*.  This module keeps that
shape observable without touching the hot path beyond a few integer bumps:

* :class:`Histogram` — fixed, pre-computed buckets (log-spaced for seconds,
  power-of-two for sizes), counts only.  Percentiles are read back with
  linear interpolation inside the winning bucket, the standard
  Prometheus-style estimate: cheap, bounded error, and comparable across
  models and scrapes because buckets never depend on the data.
* :class:`ModelMetrics` — one model's request-latency histogram plus
  batch-size (tickets and rows per matmul), queue-depth distributions and
  failure count.
* :class:`ServingMetrics` — the per-model registry the router wires into
  every :class:`~repro.serving.batcher.MicroBatcher` as its ``observer``;
  ``as_dict()`` is what ``/stats`` and the ``--stats-interval`` log line
  serialise.

Everything is thread-safe under one lock per :class:`ServingMetrics`; the
observer callbacks run on batcher dispatch threads.
"""

from __future__ import annotations

import threading

# Request latencies: 40 log-spaced buckets, 10 µs .. ~84 s (factor 1.5).
# Fixed at import time, so every model's histogram shares the same bounds.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-5 * (1.5 ** i) for i in range(40))
# Sizes (rows, tickets, queue depths): powers of two up to 64 Ki.
SIZE_BUCKETS: tuple[float, ...] = tuple(float(2 ** i) for i in range(17))

DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def bucket_quantile(bounds, counts, q: float, *,
                    overflow_value: float | None = None) -> float:
    """Interpolated ``q``-quantile of a raw bucket-count vector.

    The loop behind :meth:`Histogram.quantile`, usable on any counts vector
    — a scraped ``/metrics`` page, or the *difference* of two scrapes for a
    windowed quantile out of histograms that only ever accumulate.
    ``overflow_value`` is reported when the target rank lands in the
    overflow bucket (callers pass the histogram's observed max); returns
    0.0 when the window is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    if q == 0.0:
        # Well-defined floor: the lower edge of the first occupied bucket
        # (a counts vector carries no observed minimum to report).
        for index, bucket_count in enumerate(counts):
            if bucket_count:
                return bounds[index - 1] if 0 < index <= len(bounds) else 0.0
        return 0.0
    rank = q * total
    seen = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if seen + bucket_count < rank:
            seen += bucket_count
            continue
        if index >= len(bounds):  # overflow: no upper edge to lerp toward
            break
        lower = bounds[index - 1] if index > 0 else 0.0
        upper = bounds[index]
        return lower + (upper - lower) * ((rank - seen) / bucket_count)
    return overflow_value if overflow_value is not None else float(bounds[-1])


class Histogram:
    """A fixed-bucket histogram: observe values, read interpolated quantiles.

    ``bounds`` are inclusive upper bucket edges, strictly increasing; one
    implicit overflow bucket catches everything above the last edge.  Not
    thread-safe on its own — the owning :class:`ServingMetrics` locks.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds=LATENCY_BUCKETS):
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def _bucket(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)  # hi == overflow
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def snapshot(self) -> dict:
        """Raw state for the Prometheus renderer: bounds, a counts *copy*,
        sum and count (callers copy under their own lock)."""
        return {"bounds": self.bounds, "counts": tuple(self.counts),
                "sum": self.total, "count": self.count}

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) from bucket counts.

        Linear interpolation inside the bucket that crosses the target rank;
        the overflow bucket reports the observed maximum (there is no upper
        edge to interpolate toward).  The edges are exact, not interpolation
        artifacts: ``q=0.0`` is the observed minimum, ``q=1.0`` the observed
        maximum, and every quantile of an empty histogram is 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        estimate = bucket_quantile(self.bounds, self.counts, q,
                                   overflow_value=self.max)
        # Never report outside what was actually observed.
        return min(max(estimate, self.min), self.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self, quantiles=DEFAULT_QUANTILES, *, scale: float = 1.0,
                unit: str = "") -> dict:
        """Serialise for ``/stats``: count/mean/min/max, the requested
        quantiles and the non-empty buckets (``le`` upper edge -> count)."""
        suffix = f"_{unit}" if unit else ""
        out = {
            "count": self.count,
            f"mean{suffix}": self.mean * scale,
            f"min{suffix}": (self.min if self.count else 0.0) * scale,
            f"max{suffix}": self.max * scale,
        }
        for q in quantiles:
            out[f"p{q * 100:g}".replace(".", "_") + suffix] = \
                self.quantile(q) * scale
        out["buckets"] = {
            ("+Inf" if index >= len(self.bounds)
             else f"{self.bounds[index] * scale:g}"): count
            for index, count in enumerate(self.counts) if count}
        return out


class ModelMetrics:
    """Latency/size/depth histograms for one served model."""

    __slots__ = ("latency", "batch_tickets", "batch_rows", "queue_depth",
                 "failures")

    def __init__(self):
        self.latency = Histogram(LATENCY_BUCKETS)
        self.batch_tickets = Histogram(SIZE_BUCKETS)
        self.batch_rows = Histogram(SIZE_BUCKETS)
        self.queue_depth = Histogram(SIZE_BUCKETS)
        self.failures = 0

    def as_dict(self) -> dict:
        return {
            "latency_ms": self.latency.as_dict(scale=1e3),
            "batch_tickets": self.batch_tickets.as_dict(),
            "batch_rows": self.batch_rows.as_dict(),
            "queue_depth": self.queue_depth.as_dict(),
            "failed_requests": self.failures,
        }


class ServingMetrics:
    """Per-model metrics registry; the batcher observer the router installs.

    Labels are whatever the router keys queues by (model digest + mode).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._models: dict[str, ModelMetrics] = {}

    def model(self, label: str) -> ModelMetrics:
        with self._lock:
            metrics = self._models.get(label)
            if metrics is None:
                metrics = self._models[label] = ModelMetrics()
            return metrics

    # -- the MicroBatcher observer protocol ----------------------------- #
    def observe_batch(self, label: str, tickets, completed_at: float, *,
                      failed: bool = False) -> None:
        metrics = self.model(label)
        with self._lock:
            if failed:
                metrics.failures += len(tickets)
                return
            metrics.batch_tickets.observe(len(tickets))
            metrics.batch_rows.observe(
                sum(int(ticket.nodes.size) for ticket in tickets))
            for ticket in tickets:
                metrics.latency.observe(
                    max(0.0, completed_at - ticket.submitted_at))

    def observe_queue_depth(self, label: str, depth: int) -> None:
        metrics = self.model(label)
        with self._lock:
            metrics.queue_depth.observe(depth)

    # -- reading -------------------------------------------------------- #
    def export(self) -> dict:
        """Per model: raw histogram snapshots plus the failure counter,
        copied under the lock — what the Prometheus renderer serialises
        (cumulative buckets are computed outside the lock)."""
        with self._lock:
            return {label: {
                "latency": metrics.latency.snapshot(),
                "batch_tickets": metrics.batch_tickets.snapshot(),
                "batch_rows": metrics.batch_rows.snapshot(),
                "queue_depth": metrics.queue_depth.snapshot(),
                "failures": metrics.failures,
            } for label, metrics in sorted(self._models.items())}

    def labels(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def forget(self, label: str) -> None:
        """Drop a retired model's histograms (a no-op for unknown labels)."""
        with self._lock:
            self._models.pop(label, None)

    def as_dict(self) -> dict:
        with self._lock:
            return {label: metrics.as_dict()
                    for label, metrics in sorted(self._models.items())}

    def summary_line(self) -> str:
        """One human line per model — the ``--stats-interval`` log format."""
        parts = []
        with self._lock:
            for label, metrics in sorted(self._models.items()):
                latency = metrics.latency
                parts.append(
                    f"{label}: n={latency.count} "
                    f"p50={latency.quantile(0.5) * 1e3:.2f}ms "
                    f"p95={latency.quantile(0.95) * 1e3:.2f}ms "
                    f"p99={latency.quantile(0.99) * 1e3:.2f}ms")
        return " | ".join(parts) if parts else "no traffic yet"
