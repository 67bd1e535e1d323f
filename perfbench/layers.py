"""Per-layer metrics from the spans of a traced run.

Every metric is computed over the spans that started inside the
measurement window, so the warm-up and the set-up do not leak in.  Timings
are per call (median) on the serving path and per sweep (sum) on the
offline path, where the layers run back to back inside one wall-clock
figure.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Every per-layer metric BENCHMARK.json declares (units live there).
LAYER_METRICS = (
    "httpd.parse_ms", "httpd.render_ms", "registry.resolve_ms",
    "registry.resolve_calls", "service.submit_ms", "batcher.queue_wait_ms",
    "batcher.rows_per_batch", "batcher.requests_per_batch",
    "batcher.compute_ms", "graphstore.apply_ms", "service.repropagate_ms",
    "propagation.incremental_ms.private", "propagation.incremental_ms.public",
    "propagation.rows_recomputed", "service.rebuilds_per_update",
    "encoder.fit_s", "propagation.propagate_s", "solver.solve_s",
    "solver.iterations", "inference.score_s", "engine.group_s",
    "engine.busy_share", "loadgen.late_ms_p99", "trace.overhead_pct",
)

NAME, START, END, SELF, NESTED, THREAD, ATTRS = range(7)


def load_spans(path: Path) -> list:
    """Spans written to ``path`` and to the ``path.<pid>`` files of its
    forked workers."""
    spans = []
    for file in sorted(path.parent.glob(path.name + "*")):
        with open(file, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _median_ms(values) -> float:
    return statistics.median(values) / 1e6 if values else 0.0


def serving_layers(spans: list, window: tuple[int, int], predicts: int,
                   updates: int) -> dict:
    """The serving-path metrics for spans started in ``window``."""
    start, end = window
    by_name: dict[str, list] = {}
    for span in spans:
        if start <= span[START] < end:
            by_name.setdefault(span[NAME], []).append(span)

    def durations(name, mode=None):
        return [span[END] - span[START] for span in by_name.get(name, [])
                if mode is None or span[ATTRS].get("mode") == mode]

    batches = by_name.get("batcher.batch", [])
    applies = by_name.get("graphstore.apply", [])
    repropagate = []
    for update in by_name.get("service.update", []):
        inner = sum(apply[END] - apply[START] for apply in applies
                    if apply[THREAD] == update[THREAD]
                    and update[START] <= apply[START] <= update[END])
        repropagate.append(update[END] - update[START] - inner)
    incremental = by_name.get("propagation.incremental", [])
    rebuilds = len(incremental) + len(by_name.get("propagation.full", []))
    return {
        "httpd.parse_ms": _median_ms(durations("httpd.parse")),
        "httpd.render_ms": _median_ms(durations("httpd.render")),
        "registry.resolve_ms": _median_ms(durations("registry.resolve")),
        "registry.resolve_calls": (len(by_name.get("registry.resolve", []))
                                   / predicts if predicts else 0.0),
        "service.submit_ms": _median_ms(
            [span[SELF] for span in by_name.get("service.submit", [])]),
        "batcher.queue_wait_ms": _median_ms(durations("batcher.queue_wait")),
        "batcher.rows_per_batch": (statistics.fmean(
            span[ATTRS]["rows"] for span in batches) if batches else 0.0),
        "batcher.requests_per_batch": (statistics.fmean(
            span[ATTRS]["requests"] for span in batches) if batches else 0.0),
        "batcher.compute_ms": _median_ms(durations("batcher.compute")),
        "graphstore.apply_ms": _median_ms(durations("graphstore.apply")),
        "service.repropagate_ms": _median_ms(repropagate),
        "propagation.incremental_ms.private": _median_ms(
            durations("propagation.incremental", "private")),
        "propagation.incremental_ms.public": _median_ms(
            durations("propagation.incremental", "public")),
        "propagation.rows_recomputed": (sum(
            span[ATTRS].get("rows", 0) for span in incremental) / updates
            if updates else 0.0),
        "service.rebuilds_per_update": rebuilds / updates if updates else 0.0,
    }


def sweep_layers(spans: list, sweeps: int) -> dict:
    """The offline-path metrics, per sweep, over every span of the traced
    sweeps (each sweep is its own process, so nothing else is recorded)."""
    totals: dict[str, float] = {}
    iterations = 0
    engine_ns = 0.0
    for span in spans:
        if span[NESTED]:
            continue  # counted in the enclosing call of the same layer
        name = span[NAME]
        totals[name] = totals.get(name, 0) + span[END] - span[START]
        if name == "solver.solve":
            iterations += span[ATTRS].get("iterations", 0)
        if name == "engine.run":
            engine_ns += (span[END] - span[START]) * span[ATTRS].get("jobs", 1)

    def per_sweep_s(name):
        return totals.get(name, 0) / 1e9 / sweeps

    return {
        "encoder.fit_s": per_sweep_s("encoder.fit"),
        "propagation.propagate_s": per_sweep_s("propagation.propagate"),
        "solver.solve_s": per_sweep_s("solver.solve"),
        "solver.iterations": iterations / sweeps,
        "inference.score_s": per_sweep_s("inference.score"),
        "engine.group_s": per_sweep_s("engine.group"),
        "engine.busy_share": (totals.get("engine.group", 0) / engine_ns
                              if engine_ns else 0.0),
    }
