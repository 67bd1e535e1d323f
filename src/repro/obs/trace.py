"""Request tracing: spans, context propagation and a bounded trace store.

A *trace* is one logical request — a ``/v1/predict`` hitting a server, or a
distributed worker executing one cell group — decomposed into *spans*: named,
timed segments (``parse``, ``queue``, ``compute``, ...) linked by
``parent_id`` into a tree.  The design constraints, in order:

1. **Observe, never touch.**  Spans carry monotonic timestamps and attrs
   around the data plane; they never see scores, so every bitwise-equivalence
   pin holds verbatim with tracing on (pinned by ``tests/test_obs_http.py``).
2. **Cheap enough to be on by default.**  Starting/ending a span is a dict
   append plus two ``time.monotonic_ns()`` reads under a lock that is never
   held across user code; the serving path's hot spans are reconstructed from
   timestamps the batcher stamps on its tickets anyway, so the selector loop
   pays the tracer only once per request, not per stage.
3. **Bounded memory.**  Finished traces land in a ring-buffer
   :class:`TraceStore` (oldest evicted first); traces whose root never ends
   (a client that vanished mid-request) are capped by ``max_active`` and
   flushed out as ``incomplete`` rather than accumulating forever.

Cross-process propagation uses one header, ``X-Repro-Trace:
<trace_id>-<span_id>``: an instrumented client puts its *calling* span's
ids on the wire, and the server starts its local root with that
``trace_id`` and ``parent_id=<span_id>``.  Within a process,
``contextvars`` carry the current span so sequential code (the distributed
worker) nests spans implicitly; the selector HTTP loop, which interleaves
many requests on one thread, threads span objects through its
parked-connection state explicitly instead.

Span timestamps are ``time.monotonic_ns()`` — comparable within one process
only, so a client's spans and the server's share parent links, not a
timeline.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from collections import OrderedDict

TRACE_HEADER = "X-Repro-Trace"

_HEX = set("0123456789abcdef")

_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "repro_current_span", default=None)


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


def current_span():
    """The span the calling context is inside, or ``None``."""
    return _current_span.get()


def current_trace_id() -> str | None:
    """The active trace id, or ``None`` — what structured logging emits."""
    span = _current_span.get()
    return span.trace_id if span is not None else None


def format_trace_header(span: "Span") -> str:
    """The ``X-Repro-Trace`` wire value continuing the trace under ``span``."""
    return f"{span.trace_id}-{span.span_id}"


def parse_trace_header(value: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a header value, ``None`` if absent
    or malformed (a garbage header starts a fresh trace, never an error)."""
    if not value:
        return None
    trace_id, sep, span_id = value.strip().rpartition("-")
    if not sep or len(trace_id) != 32 or len(span_id) != 16:
        return None
    if not (set(trace_id) <= _HEX and set(span_id) <= _HEX):
        return None
    return trace_id, span_id


class Span:
    """One named, timed segment of a trace.

    ``end_ns`` stays 0 while open.  ``attrs`` is a plain mutable dict the
    instrumentation points annotate (http status, row counts, model refs);
    values must be JSON-serialisable because ``/debug/traces`` ships them.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_ns",
                 "end_ns", "attrs", "status")

    def __init__(self, trace_id: str, span_id: str, parent_id: str | None,
                 name: str, start_ns: int, attrs: dict | None = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = int(start_ns)
        self.end_ns = 0
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"

    @property
    def duration_ms(self) -> float:
        if not self.end_ns:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e6

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id[:8]}, "
                f"span={self.span_id}, parent={self.parent_id})")


class TraceStore:
    """A bounded ring of finished traces, newest kept, oldest evicted.

    Keys are trace ids; ``add`` of an id already present merges the span
    lists (the failover path can finish a trace in two installments).
    Thread-safe: the store is written from the selector loop, batcher
    threads and worker threads, and read by ``/debug/traces``.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, dict] = OrderedDict()

    def add(self, trace: dict) -> None:
        trace_id = trace["trace_id"]
        with self._lock:
            existing = self._traces.pop(trace_id, None)
            if existing is not None:
                merged_spans = existing["spans"] + trace["spans"]
                trace = {**existing, **trace, "spans": merged_spans,
                         "span_count": len(merged_spans)}
            self._traces[trace_id] = trace
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            return self._traces.get(trace_id)

    def recent(self, limit: int = 50) -> list[dict]:
        """Newest-first summaries (no span bodies) for ``/debug/traces``."""
        with self._lock:
            traces = list(self._traces.values())
        summaries = []
        for trace in reversed(traces[-limit:] if limit else traces):
            summaries.append({key: trace[key]
                              for key in ("trace_id", "root", "span_count",
                                          "duration_ms", "status")
                              if key in trace})
        return summaries

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class StageMetrics:
    """Per-stage-name duration histograms fed by finished spans.

    Rendered into ``/metrics`` as ``repro_stage_duration_seconds{stage=...}``
    — the trace-derived aggregate view: where predict time goes across *all*
    requests, not just the ones whose traces are still in the ring.
    """

    def __init__(self):
        # Imported lazily: repro.serving.httpd imports this module, so a
        # top-level import of repro.serving.metrics would be circular.
        from repro.serving.metrics import LATENCY_BUCKETS, Histogram
        self._histogram_factory = lambda: Histogram(LATENCY_BUCKETS)
        self._lock = threading.Lock()
        self._stages: dict[str, object] = {}

    def observe(self, stage: str, seconds: float) -> None:
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = self._histogram_factory()
            histogram.observe(max(0.0, seconds))

    def export(self) -> dict:
        """Per stage: ``(bounds, counts, sum, count)`` copied under the lock
        — the raw material of the Prometheus renderer."""
        with self._lock:
            return {stage: {"bounds": histogram.bounds,
                            "counts": tuple(histogram.counts),
                            "sum": histogram.total,
                            "count": histogram.count}
                    for stage, histogram in sorted(self._stages.items())}

    def as_dict(self) -> dict:
        with self._lock:
            return {stage: histogram.as_dict(scale=1e3)
                    for stage, histogram in sorted(self._stages.items())}


class Tracer:
    """Creates spans, tracks open traces, exports finished ones.

    One tracer per server (or one process-global one for worker code, see
    :func:`get_tracer`).  A trace is *open* from ``start_trace`` until its
    root span ends; ending the root assembles every span registered under
    the trace id into one record and hands it to the :class:`TraceStore`.
    Ending any span feeds its duration into :class:`StageMetrics` keyed by
    span name.
    """

    def __init__(self, store: TraceStore | None = None, *,
                 max_active: int = 256, stages: StageMetrics | None = None,
                 clock_ns=time.monotonic_ns):
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        self.store = store if store is not None else TraceStore()
        self.stages = stages if stages is not None else StageMetrics()
        self.clock_ns = clock_ns
        self.max_active = int(max_active)
        self._lock = threading.Lock()
        # trace_id -> (root span_id, [spans]); insertion-ordered so the
        # oldest never-finished trace is the one flushed at the cap.
        self._active: OrderedDict[str, tuple[str, list[Span]]] = OrderedDict()
        self.traces_started = 0
        self.traces_finished = 0
        self.traces_flushed = 0  # hit max_active before their root ended

    # ------------------------------------------------------------------ #
    # creating spans
    # ------------------------------------------------------------------ #
    def start_trace(self, name: str, *, trace_id: str | None = None,
                    parent_id: str | None = None,
                    attrs: dict | None = None) -> Span:
        """Open a trace: a root span, optionally continuing a remote parent
        (``trace_id``/``parent_id`` from a parsed ``X-Repro-Trace``)."""
        span = Span(trace_id or new_trace_id(), new_span_id(), parent_id,
                    name, self.clock_ns(), attrs)
        overflow = None
        with self._lock:
            self.traces_started += 1
            if span.trace_id in self._active:
                # A second root on a live trace id (a client that sent one
                # X-Repro-Trace parent on two requests): join, don't clobber.
                self._active[span.trace_id][1].append(span)
            else:
                if len(self._active) >= self.max_active:
                    _evicted_id, overflow = self._active.popitem(last=False)
                    self.traces_flushed += 1
                self._active[span.trace_id] = (span.span_id, [span])
        if overflow is not None:
            self._export(overflow[1], incomplete=True)
        return span

    def start_span(self, name: str, *, parent: Span,
                   attrs: dict | None = None) -> Span:
        """Open a child span under ``parent`` (explicit-parent form, used by
        the selector loop where contextvars cannot follow the request)."""
        span = Span(parent.trace_id, new_span_id(), parent.span_id, name,
                    self.clock_ns(), attrs)
        self._register(span)
        return span

    def add_span(self, name: str, *, parent: Span, start_ns: int, end_ns: int,
                 attrs: dict | None = None) -> Span | None:
        """Record an already-finished child span from captured timestamps
        (how the ticket's queue/batch/compute stages reach the trace).
        Invalid or unset timestamps are dropped, never raised — a failed
        batch may have stamped only part of its lifecycle."""
        start_ns, end_ns = int(start_ns), int(end_ns)
        if start_ns <= 0 or end_ns < start_ns:
            return None
        span = Span(parent.trace_id, new_span_id(), parent.span_id, name,
                    start_ns, attrs)
        span.end_ns = end_ns
        self._register(span)
        self.stages.observe(name, (end_ns - start_ns) / 1e9)
        return span

    def _register(self, span: Span) -> None:
        with self._lock:
            entry = self._active.get(span.trace_id)
            if entry is not None:
                entry[1].append(span)
            # else: the trace was already exported (root ended first, or it
            # was flushed at the cap) — drop the straggler.

    # ------------------------------------------------------------------ #
    # ending spans / exporting traces
    # ------------------------------------------------------------------ #
    def end(self, span: Span, *, status: str | None = None) -> None:
        """Close ``span``; closing a trace's root exports the whole trace."""
        if span.end_ns:  # idempotent: error paths may end defensively
            return
        span.end_ns = self.clock_ns()
        if status is not None:
            span.status = status
        self.stages.observe(span.name, (span.end_ns - span.start_ns) / 1e9)
        finished = None
        with self._lock:
            entry = self._active.get(span.trace_id)
            if entry is not None and entry[0] == span.span_id:
                del self._active[span.trace_id]
                self.traces_finished += 1
                finished = entry[1]
        if finished is not None:
            self._export(finished)

    def _export(self, spans: list[Span], *, incomplete: bool = False) -> None:
        root = spans[0]
        trace = {
            "trace_id": root.trace_id,
            "root": root.name,
            "root_span_id": root.span_id,
            "status": root.status,
            "duration_ms": round(root.duration_ms, 4),
            "span_count": len(spans),
            "spans": [span.as_dict() for span in spans],
        }
        if incomplete:
            trace["incomplete"] = True
        self.store.add(trace)

    # ------------------------------------------------------------------ #
    # context-local use (sequential code: workers, library callers)
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def activate(self, span: Span):
        """Make ``span`` the context's current span without owning its end
        (the caller still ends it — the worker's root span pattern)."""
        token = _current_span.set(span)
        try:
            yield span
        finally:
            _current_span.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Context-managed span: nests under the context's current span, or
        opens a fresh trace when there is none; always ended on exit, with
        ``status="error"`` if the body raised."""
        parent = _current_span.get()
        if parent is None:
            span = self.start_trace(name, attrs=attrs)
        else:
            span = self.start_span(name, parent=parent, attrs=attrs)
        token = _current_span.set(span)
        try:
            yield span
        except BaseException:
            _current_span.reset(token)
            self.end(span, status="error")
            raise
        else:
            _current_span.reset(token)
            self.end(span)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def counters(self) -> dict:
        with self._lock:
            return {"traces_started": self.traces_started,
                    "traces_finished": self.traces_finished,
                    "traces_flushed": self.traces_flushed,
                    "traces_active": len(self._active)}


# --------------------------------------------------------------------------- #
# the process-global tracer (worker code, logging)
# --------------------------------------------------------------------------- #
_default_tracer: Tracer | None = None
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The lazily-created process-global tracer.

    Servers build their own :class:`Tracer` (one store per frontend); code
    without a natural owner — the distributed worker, library callers —
    shares this one.
    """
    global _default_tracer
    with _default_lock:
        if _default_tracer is None:
            _default_tracer = Tracer()
        return _default_tracer


def set_tracer(tracer: Tracer | None) -> None:
    """Replace the process-global tracer (tests install a fresh one)."""
    global _default_tracer
    with _default_lock:
        _default_tracer = tracer
