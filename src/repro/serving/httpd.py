"""A single-threaded, ``selectors``-based HTTP/1.1 frontend for serving.

The PR 4 frontend was ``ThreadingHTTPServer``: one OS thread per connection,
each parked in a blocking ``predict`` while its ticket waited on the batcher.
That caps connection count at thread count and spends a context switch per
request.  This frontend multiplexes every connection on **one** event loop
(stdlib ``selectors``, no dependencies):

* reads are non-blocking; complete requests are parsed out of per-connection
  buffers (HTTP/1.1 keep-alive and pipelined requests included);
* ``GET`` routes answer immediately;
* ``POST /v1/predict`` *submits* a ticket to the service's per-model router
  and parks the connection — the loop keeps serving other sockets while the
  model's own micro-batch queue coalesces and executes the matmul on its
  dispatch thread — then writes the response when the ticket resolves;
* connections are bounded (``max_connections``; excess accepts get an
  immediate 503), idle sockets are reaped, and ``shutdown()`` drains
  in-flight tickets and buffered writes before returning (graceful drain).

Because tickets are *polled*, never waited on, a slow model cannot stall the
loop; the only blocking work on the loop is building a cold model session
(first query to an unwarmed model), which ``repro serve`` avoids by warming
sessions before binding the socket.

The surface mirrors ``socketserver`` so existing callers and tests drop in:
``serve_forever()`` / ``shutdown()`` / ``server_close()`` /
``server_address``.
"""

from __future__ import annotations

import json
import queue
import re
import selectors
import socket
import sys
import threading
import time

from repro.exceptions import ConfigurationError, GraphDataError
from repro.obs.prometheus import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import (
    TRACE_HEADER,
    Tracer,
    format_trace_header,
    parse_trace_header,
)
from repro.serving.service import (
    InferenceService,
    OverloadedError,
    format_prediction_body,
    parse_graph_update_payload,
    parse_predict_payload,
)

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024
RECV_CHUNK = 64 * 1024

_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 §5.6.2

_WAKER = object()  # selector data marker for the self-pipe read end


class _UpdateJob:
    """One admitted ``/v1/graph/update``: apply + re-propagate off-loop.

    Duck-types the parked-ticket contract the event loop already speaks
    (``done()`` + an ``on_done`` self-pipe hook).  The service call runs on
    the server's one long-lived update thread (:func:`_run_updates`)
    because re-propagation is a real computation; the event loop keeps
    serving predict traffic — pinned to the previous epoch — meanwhile.
    Updates are admitted one at a time (the server rejects a second with
    429 while one is in flight), which keeps the epoch sequence linear.
    ``run`` turns every ``Exception`` into a 400 or 500, so a failed job
    leaves the thread serving the next one.
    """

    __slots__ = ("service", "kwargs", "result", "error", "status",
                 "on_done", "_event")

    def __init__(self, service: InferenceService, kwargs: dict):
        self.service = service
        self.kwargs = kwargs
        self.result: dict | None = None
        self.error: str | None = None
        self.status = 200
        self.on_done = None
        self._event = threading.Event()

    def done(self) -> bool:
        return self._event.is_set()

    def run(self) -> None:
        try:
            self.result = self.service.apply_graph_update(**self.kwargs)
        except (ConfigurationError, GraphDataError) as error:
            self.status, self.error = 400, str(error)
        except Exception as error:  # surfaced, not swallowed
            self.status, self.error = 500, repr(error)
        self._event.set()
        hook = self.on_done
        if hook is not None:
            hook()


def _run_updates(jobs: queue.SimpleQueue) -> None:
    """The update thread's body: run each admitted job in turn until the
    ``None`` that ``server_close`` sends.  One thread serves every update
    for the server's lifetime, instead of one new thread per update."""
    for job in iter(jobs.get, None):
        job.run()


class _BadRequest(Exception):
    """Malformed HTTP framing: respond with ``status`` and close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Connection:
    """Per-socket state: buffers, keep-alive flag and the parked ticket."""

    __slots__ = ("sock", "addr", "inbuf", "outbuf", "close_after_write",
                 "pending", "last_activity")

    def __init__(self, sock: socket.socket, addr, now: float):
        self.sock = sock
        self.addr = addr
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.close_after_write = False
        self.pending: dict | None = None  # parked /v1/predict ticket + context
        self.last_activity = now


class SelectorHTTPServer:
    """One event loop, many connections, per-model batch queues underneath."""

    def __init__(self, address, service: InferenceService, *,
                 max_connections: int = 512, request_timeout: float = 30.0,
                 idle_timeout: float = 120.0, drain_timeout: float = 5.0,
                 stats_interval: float | None = None, log_stream=None,
                 tracer: Tracer | None = None):
        self.service = service
        self.tracer = tracer  # a repro.obs.trace.Tracer, or None (untraced)
        self.max_connections = int(max_connections)
        self.request_timeout = float(request_timeout)
        self.idle_timeout = float(idle_timeout)
        self.drain_timeout = float(drain_timeout)
        self.stats_interval = stats_interval
        self.log_stream = log_stream

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(min(self.max_connections, 128))
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()[:2]

        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        # Self-pipe: batcher threads poke the write end when a parked ticket
        # resolves, so the loop wakes exactly then instead of busy-polling.
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        self._selector.register(self._waker_r, selectors.EVENT_READ, _WAKER)
        self._connections: dict[socket.socket, _Connection] = {}
        self._parked: set[_Connection] = set()
        # The in-flight /v1/graph/update, if any: updates are admitted one
        # at a time so the serving graph's epoch sequence stays linear.
        self._graph_update: _UpdateJob | None = None
        # Admitted updates' queue to the update thread, both created on the
        # first admitted update: a server that takes none runs no thread.
        self._update_jobs: queue.SimpleQueue | None = None

        self._shutdown_request = False
        self._is_shut_down = threading.Event()
        self._is_shut_down.set()

    # ------------------------------------------------------------------ #
    # lifecycle (the socketserver-shaped surface)
    # ------------------------------------------------------------------ #
    def serve_forever(self, poll_interval: float = 0.05) -> None:
        self._is_shut_down.clear()
        next_stats = (time.monotonic() + self.stats_interval
                      if self.stats_interval else None)
        last_sweep = time.monotonic()
        try:
            while not self._shutdown_request:
                # Parked tickets wake the loop through the self-pipe the
                # moment they resolve; the timeout only paces deadline
                # checks, idle sweeps and the stats line.
                self._tick(poll_interval)
                now = time.monotonic()
                if now - last_sweep >= 5.0:
                    self._sweep_idle(now)
                    last_sweep = now
                if next_stats is not None and now >= next_stats:
                    # Explicitly requested, so it prints even under --quiet
                    # (which only nulls the per-request log_stream).
                    stream = (self.log_stream if self.log_stream is not None
                              else sys.stderr)
                    shed = sum(dict(self.service.shed_counts).values())
                    print(f"[serve] stats: "
                          f"{self.service.batcher.metrics.summary_line()} | "
                          f"shed={shed}",
                          file=stream, flush=True)
                    next_stats = now + self.stats_interval
            self._drain()
        finally:
            self._shutdown_request = False
            self._is_shut_down.set()

    def shutdown(self) -> None:
        """Ask the loop to drain and stop; blocks until it has."""
        self._shutdown_request = True
        self._is_shut_down.wait()

    def server_close(self) -> None:
        """Close the listener and every remaining connection, and stop the
        update thread once its current job (if any) is done."""
        if self._update_jobs is not None:
            self._update_jobs.put(None)
            self._update_jobs = None
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        for sock in (self._listener, self._waker_r, self._waker_w):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            sock.close()
        self._selector.close()

    def __enter__(self) -> "SelectorHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.server_close()

    # ------------------------------------------------------------------ #
    # the event loop body
    # ------------------------------------------------------------------ #
    def _tick(self, timeout: float) -> None:
        for key, events in self._selector.select(timeout):
            if key.data is None:
                self._accept()
                continue
            if key.data is _WAKER:
                try:  # drain every pending poke; completion runs below
                    while self._waker_r.recv(4096):
                        pass
                except (BlockingIOError, InterruptedError):
                    pass
                continue
            conn: _Connection = key.data
            if events & selectors.EVENT_READ:
                self._readable(conn)
            if conn.sock in self._connections and events & selectors.EVENT_WRITE:
                self._writable(conn)
        self._complete_parked(time.monotonic())

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if len(self._connections) >= self.max_connections:
                # Bounded: tell the client to back off, immediately.
                try:
                    sock.setblocking(False)
                    sock.send(_render(503, {"error": "connection limit reached"},
                                      keep_alive=False))
                except OSError:
                    pass
                sock.close()
                self._log(f"{addr[0]} rejected (connection limit "
                          f"{self.max_connections})")
                continue
            sock.setblocking(False)
            conn = _Connection(sock, addr, time.monotonic())
            self._connections[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_connection(conn)
            return
        if not data:
            self._close_connection(conn)
            return
        conn.inbuf += data
        conn.last_activity = time.monotonic()
        self._process_input(conn)

    def _writable(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_connection(conn)
            return
        del conn.outbuf[:sent]
        conn.last_activity = time.monotonic()
        if conn.outbuf:
            return
        if conn.close_after_write:
            self._close_connection(conn)
            return
        self._update_interest(conn)
        self._process_input(conn)  # pipelined requests behind the response

    def _process_input(self, conn: _Connection) -> None:
        """Parse and dispatch as many buffered requests as possible.

        Stops at the first parked predict (responses must stay in request
        order on one connection) and while a response is still flushing.
        """
        while conn.pending is None and not conn.close_after_write:
            try:
                parsed = _parse_request(conn.inbuf)
            except _BadRequest as error:
                self._respond(conn, error.status, {"error": str(error)},
                              keep_alive=False)
                return
            if parsed is None:
                return
            method, path, headers, body, keep_alive = parsed
            self._dispatch(conn, method, path, headers, body, keep_alive)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _dispatch(self, conn: _Connection, method: str, path: str,
                  headers: dict, body: bytes, keep_alive: bool) -> None:
        try:
            if method == "GET":
                if path == "/metrics":
                    self._serve_metrics(conn, keep_alive)
                    return
                status, payload = self._route_get(path)
            elif method == "POST":
                if path == "/v1/graph/update":
                    self._submit_graph_update(conn, headers, body, keep_alive)
                    return  # parked (the completion pass responds) or errored
                if path not in ("/v1/predict", "/predict"):
                    status, payload = 404, {"error": f"unknown path {path!r}"}
                else:
                    span = self._start_predict_trace(headers)
                    self._submit_predict(conn, body, keep_alive, span)
                    return  # parked (the completion pass responds) or errored
            else:
                status, payload = 405, {"error": f"method {method} not allowed"}
        except ConfigurationError as error:
            status, payload = 400, {"error": str(error)}
        except Exception as error:  # surfaced, not swallowed: 500 + message
            status, payload = 500, {"error": repr(error)}
        self._log_request(conn, method, path, status)
        self._respond(conn, status, payload, keep_alive=keep_alive)

    def _route_get(self, path: str) -> tuple[int, dict]:
        if path in ("/healthz", "/health"):
            return 200, self.service.health()
        if path == "/stats":
            payload = self.service.stats()
            process = payload.get("process")
            if isinstance(process, dict):
                # Only the frontend knows its sockets; overlay them on the
                # service's uptime/RSS section.
                process["open_connections"] = len(self._connections)
                process["parked_requests"] = len(self._parked)
            return 200, payload
        if path == "/debug/traces":
            if self.tracer is None:
                return 200, {"enabled": False, "traces": []}
            return 200, {"enabled": True,
                         "traces": self.tracer.store.recent()}
        if path.startswith("/debug/traces/"):
            trace_id = path[len("/debug/traces/"):]
            trace = (self.tracer.store.get(trace_id)
                     if self.tracer is not None else None)
            if trace is None:
                return 404, {"error": f"unknown trace {trace_id!r}"}
            return 200, trace
        if path == "/v1/graph/status":
            return 200, self.service.graph_status()
        if path == "/models":
            return 200, {"models": [
                {"ref": record.ref, "name": record.name, "digest": record.digest,
                 "privacy": record.manifest.get("privacy", {}),
                 "inference": record.manifest.get("inference", {})}
                for record in self.service.registry.list()
            ]}
        return 404, {"error": f"unknown path {path!r}"}

    def _serve_metrics(self, conn: _Connection, keep_alive: bool) -> None:
        """``GET /metrics``: Prometheus text, rendered from snapshots."""
        from repro.obs.prometheus import render_server_metrics

        try:
            body = render_server_metrics(self.service, server=self,
                                         tracer=self.tracer).encode("utf-8")
        except Exception as error:  # surfaced, not swallowed
            self._log_request(conn, "GET", "/metrics", 500)
            self._respond(conn, 500, {"error": repr(error)},
                          keep_alive=keep_alive)
            return
        self._log_request(conn, "GET", "/metrics", 200)
        self._respond_body(conn, 200, body, keep_alive=keep_alive,
                           content_type=PROMETHEUS_CONTENT_TYPE)

    # ------------------------------------------------------------------ #
    # tracing the predict path
    # ------------------------------------------------------------------ #
    def _start_predict_trace(self, headers: dict, name: str = "predict"):
        """Open the request's root span, continuing an ``X-Repro-Trace``
        parent when an instrumented client sent one.  Returns ``None`` when
        tracing is off."""
        if self.tracer is None:
            return None
        parent = parse_trace_header(headers.get(TRACE_HEADER.lower()))
        if parent is not None:
            trace_id, parent_id = parent
            return self.tracer.start_trace(name, trace_id=trace_id,
                                           parent_id=parent_id)
        return self.tracer.start_trace(name)

    def _finish_trace(self, span, status: int) -> None:
        """End the request's root span with its HTTP outcome (idempotent)."""
        if span is None or self.tracer is None:
            return
        span.attrs["http_status"] = int(status)
        self.tracer.end(span,
                        status="ok" if int(status) < 400 else "error")

    def _add_ticket_spans(self, span, ticket, render_start_ns: int,
                          render_end_ns: int) -> None:
        """Reconstruct the queue → batch → compute spans from the monotonic
        timestamps the batcher stamped on the ticket (same clock family as
        ``time.monotonic_ns``), plus the render span measured inline.
        Unset timestamps (a failed or short-circuited batch) drop their
        span rather than fabricating an interval."""
        tracer = self.tracer
        as_ns = (lambda seconds: int(seconds * 1e9))
        tracer.add_span("queue", parent=span,
                        start_ns=as_ns(ticket.submitted_at),
                        end_ns=as_ns(ticket.execute_at))
        tracer.add_span("batch", parent=span,
                        start_ns=as_ns(ticket.execute_at),
                        end_ns=as_ns(ticket.compute_started_at))
        tracer.add_span("compute", parent=span,
                        start_ns=as_ns(ticket.compute_started_at),
                        end_ns=as_ns(ticket.compute_ended_at),
                        attrs={"rows": int(ticket.nodes.size)})
        tracer.add_span("render", parent=span, start_ns=render_start_ns,
                        end_ns=render_end_ns)

    def _trace_echo_headers(self, span) -> dict | None:
        """The response's ``X-Repro-Trace`` echo, so clients (and the CI
        smoke test) can fetch the trace they just created."""
        if span is None:
            return None
        return {TRACE_HEADER: format_trace_header(span)}

    # ------------------------------------------------------------------ #
    # live graph mutation (POST /v1/graph/update)
    # ------------------------------------------------------------------ #
    def _submit_graph_update(self, conn: _Connection, headers: dict,
                             body: bytes, keep_alive: bool) -> None:
        """Validate, admit (one update in flight) and park the connection
        while the update thread applies the delta and re-propagates."""
        span = self._start_predict_trace(headers, name="graph_update")
        parse_start = time.monotonic_ns() if span is not None else 0
        try:
            payload = json.loads(body or b"{}")
            kwargs = parse_graph_update_payload(payload)
        except ConfigurationError as error:
            # ConfigurationError IS a ValueError — catch it first so the
            # caller sees the specific validation message, not the generic
            # malformed-JSON one.
            self._finish_trace(span, 400)
            self._log_request(conn, "POST", "/v1/graph/update", 400)
            self._respond(conn, 400, {"error": str(error)},
                          keep_alive=keep_alive)
            return
        except (ValueError, json.JSONDecodeError):
            self._finish_trace(span, 400)
            self._log_request(conn, "POST", "/v1/graph/update", 400)
            self._respond(conn, 400,
                          {"error": "request body must be a JSON object"},
                          keep_alive=keep_alive)
            return
        parse_end = time.monotonic_ns() if span is not None else 0
        active = self._graph_update
        if active is not None and not active.done():
            # Admission control: one epoch advance at a time.  The epoch
            # sequence stays linear and a second writer gets a cheap 429
            # instead of queueing a re-propagation behind the first.
            if span is not None:
                span.attrs["shed"] = True
            self._finish_trace(span, 429)
            self._log_request(conn, "POST", "/v1/graph/update", 429)
            self._respond(conn, 429,
                          {"error": "a graph update is already in flight; "
                                    "retry later"},
                          keep_alive=keep_alive,
                          extra_headers={"Retry-After": "1"})
            return
        if span is not None:
            self.tracer.add_span("parse", parent=span,
                                 start_ns=parse_start, end_ns=parse_end)
        job = _UpdateJob(self.service, kwargs)
        self._graph_update = job
        conn.pending = {
            "graph_update": job, "keep_alive": keep_alive, "span": span,
            # Re-propagation is a real computation on large graphs; give
            # the update more headroom than a predict ticket.
            "deadline": time.monotonic() + max(self.request_timeout, 60.0),
        }
        self._parked.add(conn)
        job.on_done = self._wake
        if self._update_jobs is None:
            # A daemon: process exit never waits on an update.
            self._update_jobs = queue.SimpleQueue()
            threading.Thread(target=_run_updates, args=(self._update_jobs,),
                             name="graph-update", daemon=True).start()
        self._update_jobs.put(job)

    def _complete_graph_update(self, conn: _Connection, entry: dict,
                               now: float) -> None:
        job = entry["graph_update"]
        span = entry.get("span")
        if job.done():
            self._parked.discard(conn)
            conn.pending = None
            if job.error is not None:
                status, payload = job.status, {"error": job.error}
            else:
                status = 200
                payload = dict(job.result)
                timings = payload.pop("timings_ns", {})
                payload["timings_ms"] = {
                    stage: round((end - start) / 1e6, 3)
                    for stage, (start, end) in timings.items()}
                if span is not None:
                    span.attrs["epoch"] = payload.get("epoch")
                    span.attrs["graph"] = payload.get("graph")
                    for stage in ("apply", "repropagate"):
                        bounds = timings.get(stage)
                        if bounds:
                            self.tracer.add_span(stage, parent=span,
                                                 start_ns=bounds[0],
                                                 end_ns=bounds[1])
            self._finish_trace(span, status)
            self._log_request(conn, "POST", "/v1/graph/update", status)
            self._respond(conn, status, payload,
                          keep_alive=entry["keep_alive"],
                          extra_headers=self._trace_echo_headers(span))
            if conn.sock in self._connections:
                self._process_input(conn)
        elif now >= entry["deadline"]:
            # The connection gives up, the update thread finishes the job
            # regardless — admission keeps further updates out until it does.
            self._parked.discard(conn)
            conn.pending = None
            self._finish_trace(span, 503)
            self._log_request(conn, "POST", "/v1/graph/update", 503)
            self._respond(conn, 503,
                          {"error": "graph update timed out"},
                          keep_alive=False)

    def _submit_predict(self, conn: _Connection, body: bytes,
                        keep_alive: bool, span=None) -> bool:
        """Validate and submit; returns True when a ticket was parked."""
        parse_start = time.monotonic_ns() if span is not None else 0
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, json.JSONDecodeError):
            self._finish_trace(span, 400)
            self._log_request(conn, "POST", "/v1/predict", 400)
            self._respond(conn, 400, {"error": "request body must be a JSON object"},
                          keep_alive=keep_alive)
            return False
        try:
            request = parse_predict_payload(payload)
            parse_end = time.monotonic_ns() if span is not None else 0
            ticket, record, mode = self.service.submit_batch(
                request.ref, request.nodes, request.mode)
        except OverloadedError as error:
            # Shed-before-queue: the model's queue is at the admission cap,
            # so the request is rejected *before* parking on a ticket — a
            # cheap 429 with a drain-time hint instead of a queued matmul.
            if span is not None:
                span.attrs["shed"] = True
            self._finish_trace(span, 429)
            self._log_request(conn, "POST", "/v1/predict", 429)
            self._respond(conn, 429,
                          {"error": str(error),
                           "retry_after_seconds": error.retry_after},
                          keep_alive=keep_alive,
                          extra_headers={"Retry-After":
                                         str(error.retry_after_header)})
            return False
        except ConfigurationError as error:
            self._finish_trace(span, 400)
            self._log_request(conn, "POST", "/v1/predict", 400)
            self._respond(conn, 400, {"error": str(error)}, keep_alive=keep_alive)
            return False
        except Exception as error:
            self._finish_trace(span, 500)
            self._log_request(conn, "POST", "/v1/predict", 500)
            self._respond(conn, 500, {"error": repr(error)}, keep_alive=keep_alive)
            return False
        if span is not None:
            span.attrs["model"] = record.ref
            span.attrs["nodes"] = len(request.nodes)
            # Session resolution + admission control sit between parse end
            # and the ticket entering its queue (= submitted_at).
            self.tracer.add_span("parse", parent=span,
                                 start_ns=parse_start, end_ns=parse_end)
            self.tracer.add_span("admission", parent=span,
                                 start_ns=parse_end,
                                 end_ns=int(ticket.submitted_at * 1e9))
        conn.pending = {
            "ticket": ticket, "request": request, "record": record,
            "mode": mode, "keep_alive": keep_alive, "span": span,
            "deadline": time.monotonic() + self.request_timeout,
        }
        self._parked.add(conn)
        ticket.on_done = self._wake
        if ticket.done():  # resolved before the hook landed: wake ourselves
            self._wake()
        return True

    def _wake(self) -> None:
        """Poke the self-pipe (called from batcher dispatch threads)."""
        try:
            self._waker_w.send(b"\x00")
        except (BlockingIOError, InterruptedError, OSError):
            pass  # pipe already full (a wakeup is pending) or closing

    def _complete_parked(self, now: float) -> None:
        for conn in list(self._parked):
            entry = conn.pending
            if entry is None:  # connection died while parked
                self._parked.discard(conn)
                continue
            if "graph_update" in entry:
                self._complete_graph_update(conn, entry, now)
                continue
            ticket = entry["ticket"]
            span = entry.get("span")
            if ticket.done():
                self._parked.discard(conn)
                conn.pending = None
                body = None
                render_start = time.monotonic_ns() if span is not None else 0
                try:
                    scores = ticket.result(0)
                    # The zero-copy hot path: the response body is rendered
                    # straight out of the ticket's view into the stacked
                    # matmul buffer (no intermediate nested lists, no
                    # second json.dumps walk).
                    status = 200
                    body = format_prediction_body(
                        entry["request"], scores, entry["record"], entry["mode"])
                except ConfigurationError as error:
                    status, payload = 400, {"error": str(error)}
                except Exception as error:
                    status, payload = 500, {"error": repr(error)}
                if span is not None:
                    self._add_ticket_spans(span, ticket, render_start,
                                           time.monotonic_ns())
                    self._finish_trace(span, status)
                self._log_request(conn, "POST", "/v1/predict", status)
                if body is not None:
                    self._respond_body(conn, status, body,
                                       keep_alive=entry["keep_alive"],
                                       extra_headers=self._trace_echo_headers(span))
                else:
                    self._respond(conn, status, payload,
                                  keep_alive=entry["keep_alive"],
                                  extra_headers=self._trace_echo_headers(span))
                if conn.sock in self._connections:
                    self._process_input(conn)
            elif now >= entry["deadline"]:
                self._parked.discard(conn)
                conn.pending = None
                self._finish_trace(span, 503)
                self._log_request(conn, "POST", "/v1/predict", 503)
                self._respond(conn, 503,
                              {"error": "inference request timed out waiting "
                                        "for its batch"},
                              keep_alive=False)

    # ------------------------------------------------------------------ #
    # responses / connection bookkeeping
    # ------------------------------------------------------------------ #
    def _respond(self, conn: _Connection, status: int, payload: dict, *,
                 keep_alive: bool, extra_headers: dict | None = None) -> None:
        self._respond_body(conn, status, _render_body(payload),
                           keep_alive=keep_alive, extra_headers=extra_headers)

    def _respond_body(self, conn: _Connection, status: int, body: bytes, *,
                      keep_alive: bool, extra_headers: dict | None = None,
                      content_type: str = "application/json") -> None:
        """Queue pre-rendered body bytes (the predict hot path hands the
        fused zero-copy body straight in here)."""
        if conn.sock not in self._connections:
            return
        if not keep_alive:
            conn.close_after_write = True
        conn.outbuf += _render_head(status, len(body), keep_alive=keep_alive,
                                    extra_headers=extra_headers,
                                    content_type=content_type) + body
        self._flush_now(conn)

    def _flush_now(self, conn: _Connection) -> None:
        """Opportunistic synchronous send; the selector finishes the rest."""
        try:
            sent = conn.sock.send(conn.outbuf)
            del conn.outbuf[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._close_connection(conn)
            return
        if not conn.outbuf and conn.close_after_write:
            self._close_connection(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        if conn.sock not in self._connections:
            return
        events = selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        self._selector.modify(conn.sock, events, conn)

    def _close_connection(self, conn: _Connection) -> None:
        if self._connections.pop(conn.sock, None) is None:
            return
        self._parked.discard(conn)
        conn.pending = None
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _sweep_idle(self, now: float) -> None:
        for conn in list(self._connections.values()):
            if conn.pending is None and not conn.outbuf \
                    and now - conn.last_activity > self.idle_timeout:
                self._close_connection(conn)

    def _drain(self) -> None:
        """Graceful close: stop accepting, finish parked tickets and writes."""
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        deadline = time.monotonic() + self.drain_timeout
        while (self._parked or any(c.outbuf for c in self._connections.values())) \
                and time.monotonic() < deadline:
            self._tick(0.005)

    # ------------------------------------------------------------------ #
    # logging
    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        if self.log_stream is not None:
            print(f"[serve] {message}", file=self.log_stream, flush=True)

    def _log_request(self, conn: _Connection, method: str, path: str,
                     status: int) -> None:
        self._log(f"{conn.addr[0]} \"{method} {path}\" {status}")


# --------------------------------------------------------------------------- #
# HTTP framing helpers (module-level: pure bytes in, bytes out)
# --------------------------------------------------------------------------- #
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _render_body(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _render_head(status: int, content_length: int, *, keep_alive: bool,
                 extra_headers: dict | None = None,
                 content_type: str = "application/json") -> bytes:
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (extra_headers or {}).items())
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Server: gcon-repro-serving\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {content_length}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("latin-1")


def _render(status: int, payload: dict, *, keep_alive: bool) -> bytes:
    body = _render_body(payload)
    return _render_head(status, len(body), keep_alive=keep_alive) + body


def _parse_request(buf: bytearray):
    """Pop one complete request off ``buf``.

    Returns ``None`` while incomplete, else ``(method, path, headers, body,
    keep_alive)``; raises :class:`_BadRequest` on malformed framing.
    """
    head_end = buf.find(b"\r\n\r\n")
    # The same bound whether or not the head is complete yet, so a request
    # is judged alike however its bytes were split across reads.
    if (len(buf) if head_end < 0 else head_end + 4) > MAX_HEADER_BYTES:
        raise _BadRequest(431, "request headers too large")
    if head_end < 0:
        return None
    try:
        head = buf[:head_end].decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes anything
        raise _BadRequest(400, "undecodable request head")
    lines = head.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        # RFC 9112 §5.1: the field name is a token, with no whitespace
        # before the colon (nor before the name: that is line folding).
        if not sep or not _TOKEN.fullmatch(name):
            raise _BadRequest(400, f"malformed header line {line!r}")
        name, value = name.lower(), value.strip(" \t")
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 §6.3: differing lengths make the framing ambiguous.
            raise _BadRequest(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        # No transfer coding is decoded here, chunked or otherwise.
        raise _BadRequest(400, "Transfer-Encoding is not supported")
    length = headers.get("content-length", "0")
    # ASCII digits only: int() alone would also take "+3" and "1_0".
    if not (length.isascii() and length.isdigit()):
        raise _BadRequest(400, "invalid Content-Length")
    try:
        content_length = int(length)
    except ValueError:  # more digits than int() converts
        raise _BadRequest(413, "request body too large") from None
    if content_length > MAX_BODY_BYTES:
        raise _BadRequest(413, "request body too large")
    total = head_end + 4 + content_length
    if len(buf) < total:
        return None
    body = bytes(buf[head_end + 4:total])
    del buf[:total]
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    path = target.split("?", 1)[0]
    return method, path, headers, body, keep_alive


def serve_http(service: InferenceService, host: str = "127.0.0.1",
               port: int = 8151, *, log_stream=None,
               max_connections: int = 512,
               stats_interval: float | None = None,
               tracer: Tracer | None = None,
               trace: bool = True) -> SelectorHTTPServer:
    """Bind a :class:`SelectorHTTPServer`; the caller runs ``serve_forever()``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address[1]`` — the tests do).  The service's router is
    started so every model's queue coalesces on its own dispatch thread.
    Tracing is on by default (``trace=False`` disables it; an explicit
    ``tracer`` wins).
    """
    service.start()
    if tracer is None and trace:
        tracer = Tracer()
    return SelectorHTTPServer((host, port), service,
                              max_connections=max_connections,
                              stats_interval=stats_interval,
                              log_stream=log_stream, tracer=tracer)
