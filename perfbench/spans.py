"""In-memory spans around the program's layer entry points.

:func:`install` replaces each entry point in :data:`TARGETS` with a timing
wrapper.  A span records the call's name, its start and end on the
system-wide monotonic clock (so the benchmark can keep only the spans that
started inside its own measurement window), its *self* time (the duration
minus the wrapped calls made inside it on the same thread), whether it is
nested inside a span of the same name, and a few attributes read off the
call.  Spans stay in memory and are written as JSON lines when the process
exits.  Forked pool workers leave through ``os._exit``, which skips exit
handlers, so a worker appends its spans to its own file after every cell
group instead.

Nothing here changes what a wrapped function computes or returns.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import threading
import time


def _iterations(_args, _kwargs, result) -> dict:
    results = result if isinstance(result, list) else [result]
    return {"iterations": sum(int(item.iterations) for item in results)}


def _incremental(_args, kwargs, result) -> dict:
    _features, touched = result
    return {"mode": kwargs.get("mode", "private"), "rows": int(touched.size)}


def _rows(args, _kwargs, _result) -> dict:
    return {"rows": int(args[0].shape[0])}


# (module, attribute, span name, attribute reader).  Functions that a module
# imports by name are wrapped at the binding its callers look up.
TARGETS = (
    ("repro.serving.httpd", "parse_predict_payload", "httpd.parse", None),
    ("repro.serving.httpd", "parse_graph_update_payload", "httpd.parse", None),
    ("repro.serving.httpd", "format_prediction_body", "httpd.render", None),
    ("repro.serving.registry", "ModelRegistry.resolve", "registry.resolve", None),
    ("repro.serving.service", "InferenceService.submit_batch", "service.submit",
     None),
    ("repro.serving.service", "InferenceService.apply_graph_update",
     "service.update", None),
    ("repro.serving.service", "batched_inference_scores", "batcher.compute",
     _rows),
    ("repro.serving.service", "incremental_inference_features",
     "propagation.incremental", _incremental),
    ("repro.serving.service", "inference_features", "propagation.full", None),
    ("repro.serving.graphstore", "GraphStore.apply", "graphstore.apply", None),
    ("repro.core.encoder", "MLPEncoder.fit", "encoder.fit", None),
    ("repro.core.propagation", "Propagator.propagate_concat",
     "propagation.propagate", None),
    ("repro.core.solver", "minimize_objective", "solver.solve", _iterations),
    ("repro.core.model", "minimize_objective", "solver.solve", _iterations),
    ("repro.core.solver", "solve_objective_sweep", "solver.solve", _iterations),
    ("repro.core.sweep", "solve_objective_sweep", "solver.solve", _iterations),
    ("repro.core.solver", "minimize_batched_objective", "solver.solve",
     _iterations),
    ("repro.core.sweep", "minimize_batched_objective", "solver.solve",
     _iterations),
    ("repro.runtime.workers", "score_estimator", "inference.score", None),
    ("repro.runtime.workers", "_shared_inference_features", "inference.score",
     None),
    ("repro.runtime.engine", "run_cell_group", "engine.group", None),
    ("repro.runtime.engine", "ParallelExperimentRunner.run", "engine.run",
     lambda args, _kwargs, _result: {"jobs": int(args[0].jobs)}),
)


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Record a span measured elsewhere (e.g. a ticket's queue wait)."""
        self.spans.append([name, start_ns, end_ns, end_ns - start_ns, False,
                           threading.get_ident(), attrs])

    def wrap(self, name: str, function, describe=None):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            nested = bool(stack) and stack[-1][0] == name
            frame = [name, 0]  # name, time spent in wrapped children
            stack.append(frame)
            start = time.monotonic_ns()
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                attrs = {"failed": True} if failed else (
                    describe(args, kwargs, result) if describe else {})
                recorder.spans.append([name, start, end, end - start - frame[1],
                                       nested, threading.get_ident(), attrs])

        return wrapper

    def forget(self) -> None:
        """Drop what a forked child inherited from its parent."""
        self.spans = []
        self._local = threading.local()

    def dump(self) -> None:
        """Append this process's spans to its file and forget them."""
        spans, self.spans = self.spans, []
        path = self.path if os.getpid() == self.pid else \
            f"{self.path}.{os.getpid()}"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def _observe_batch_hook(recorder: Recorder, original):
    """Read queue waits and batch sizes off the tickets of each executed
    batch; the observer itself is not timed."""

    @functools.wraps(original)
    def observe_batch(self, label, tickets, completed_at, *args, **kwargs):
        for ticket in tickets:
            recorder.add("batcher.queue_wait", int(ticket.submitted_at * 1e9),
                         int(ticket.execute_at * 1e9))
        if tickets:
            recorder.add("batcher.batch", int(tickets[0].execute_at * 1e9),
                         int(completed_at * 1e9), requests=len(tickets),
                         rows=sum(int(ticket.nodes.size) for ticket in tickets))
        return original(self, label, tickets, completed_at, *args, **kwargs)

    return observe_batch


def _flush_after_group(recorder: Recorder, run_group):
    """In a forked worker, write the spans out after every cell group."""

    @functools.wraps(run_group)
    def wrapper(*args, **kwargs):
        try:
            return run_group(*args, **kwargs)
        finally:
            if os.getpid() != recorder.pid:
                recorder.dump()

    return wrapper


def install(path: str) -> Recorder:
    """Wrap every target and write the spans to ``path`` at exit."""
    recorder = Recorder(path)
    for module_name, attribute, name, describe in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, leaf = attribute.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        wrapped = recorder.wrap(name, getattr(owner, leaf), describe)
        if name == "engine.group":
            wrapped = _flush_after_group(recorder, wrapped)
        setattr(owner, leaf, wrapped)
    from repro.serving.metrics import ServingMetrics

    ServingMetrics.observe_batch = _observe_batch_hook(
        recorder, ServingMetrics.observe_batch)
    os.register_at_fork(after_in_child=recorder.forget)
    atexit.register(recorder.dump)
    return recorder
