"""Prometheus text exposition (format 0.0.4): render and parse.

The renderer turns the serving stack's histogram snapshots into the
cumulative-bucket text format every Prometheus-compatible scraper speaks:

    repro_request_latency_seconds_bucket{model="m@...",le="0.005"} 41
    repro_request_latency_seconds_bucket{model="m@...",le="+Inf"} 44
    repro_request_latency_seconds_sum{model="m@..."} 0.112
    repro_request_latency_seconds_count{model="m@..."} 44

It renders from *snapshots* — ``(bounds, counts, sum, count)`` tuples copied
under the owning lock (``ServingMetrics.export`` /
``StageMetrics.export``) — never from live histogram objects, so a scrape
can't observe a torn update and costs the data plane nothing.

The parser reads a page back into samples, and :func:`histogram_series`
folds a histogram family's bucket samples into raw count vectors.  The
parser is strict (malformed lines raise :class:`ValueError`), which doubles
as the CI smoke check that the endpoint emits valid exposition text.
"""

from __future__ import annotations

import re

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\d+)?$")
# One `name="value"` pair, which blanks and tabs may surround.
_LABEL = re.compile(r'[ \t]*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"[ \t]*')
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPED = {"\\": "\\", '"': '"', "n": "\n"}


def escape_label_value(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape(match: re.Match) -> str:
    try:
        return _UNESCAPED[match.group(1)]
    except KeyError:
        raise ValueError(
            f"invalid escape sequence {match.group(0)!r} in a label value"
        ) from None


def _unescape_label_value(value: str) -> str:
    """Undo :func:`escape_label_value` in one left-to-right pass, so an
    escaped backslash is never re-read as the start of another escape."""
    return _ESCAPE.sub(_unescape, value)


def _parse_labels(text: str, lineno: int) -> dict[str, str]:
    """The pairs between a sample's braces: matched one after another from
    the opening brace, comma-separated, with at most one trailing comma,
    each name at most once."""
    labels: dict[str, str] = {}
    pos = 0
    while text[pos:].strip(" \t"):
        match = _LABEL.match(text, pos)
        if match is None or match.group(1) in labels:
            raise ValueError(f"malformed labels on line {lineno}: {text!r}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        pos = match.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValueError(
                    f"malformed labels on line {lineno}: {text!r}")
            pos += 1
    return labels


def format_le(edge: float) -> str:
    """A bucket edge as a ``le`` label value; round-trips through ``float``
    so :func:`histogram_series` can rebuild the exact bounds vector."""
    return repr(float(edge))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labels_text(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{escape_label_value(value)}"'
                     for name, value in labels.items())
    return "{" + inner + "}"


class MetricsRenderer:
    """Accumulates one exposition page; families are emitted in add order."""

    def __init__(self):
        self._lines: list[str] = []
        self._seen: set[str] = set()

    def _header(self, name: str, kind: str, help_text: str) -> None:
        if name in self._seen:
            return
        if not _NAME.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        self._seen.add(name)
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def counter(self, name: str, value, help_text: str,
                labels: dict | None = None) -> None:
        self._header(name, "counter", help_text)
        self._lines.append(f"{name}{_labels_text(labels)} "
                           f"{_format_value(value)}")

    def gauge(self, name: str, value, help_text: str,
              labels: dict | None = None) -> None:
        self._header(name, "gauge", help_text)
        self._lines.append(f"{name}{_labels_text(labels)} "
                           f"{_format_value(value)}")

    def histogram(self, name: str, snapshot: dict, help_text: str,
                  labels: dict | None = None) -> None:
        """One histogram series from a ``(bounds, counts, sum, count)``
        snapshot; raw per-bucket counts become cumulative ``le`` samples."""
        self._header(name, "histogram", help_text)
        labels = dict(labels or {})
        cumulative = 0
        for edge, bucket_count in zip(snapshot["bounds"], snapshot["counts"]):
            cumulative += int(bucket_count)
            series = _labels_text({**labels, "le": format_le(edge)})
            self._lines.append(f"{name}_bucket{series} {cumulative}")
        cumulative += int(snapshot["counts"][-1])  # overflow bucket
        inf_series = _labels_text({**labels, "le": "+Inf"})
        self._lines.append(f"{name}_bucket{inf_series} {cumulative}")
        base = _labels_text(labels)
        self._lines.append(f"{name}_sum{base} {_format_value(snapshot['sum'])}")
        self._lines.append(f"{name}_count{base} {cumulative}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_server_metrics(service, *, server=None, tracer=None) -> str:
    """The full ``GET /metrics`` page of one server.

    ``service`` is the :class:`~repro.serving.service.InferenceService`;
    ``server`` (the :class:`~repro.serving.httpd.SelectorHTTPServer`, when
    called from inside one) contributes connection gauges; ``tracer``
    contributes the trace-derived stage histograms.
    """
    from repro.obs.process import process_stats

    out = MetricsRenderer()

    export = service.metrics.export()
    # Families stay contiguous (every sample of one metric in one block),
    # as the exposition format requires: outer loop over families, inner
    # over model labels.
    families = (
        ("repro_request_latency_seconds", "latency",
         "End-to-end request latency per served model."),
        ("repro_batch_tickets", "batch_tickets",
         "Requests coalesced per executed micro-batch."),
        ("repro_batch_rows", "batch_rows",
         "Rows stacked per single-model matmul."),
        ("repro_queue_depth", "queue_depth",
         "Model queue depth observed at flush time."),
    )
    for family, key, help_text in families:
        for label, snapshot in export.items():
            out.histogram(family, snapshot[key], help_text, {"model": label})
    for label, snapshot in export.items():
        out.counter("repro_failed_requests_total", snapshot["failures"],
                    "Requests failed by their batch's compute.",
                    {"model": label})

    stats = service.batcher.stats
    out.counter("repro_requests_total", stats.requests,
                "Requests submitted to the batcher.")
    out.counter("repro_rows_requested_total", stats.rows_requested,
                "Node rows requested across all submissions.")
    out.counter("repro_batches_total", stats.batches,
                "Micro-batch flushes executed.")
    out.counter("repro_matmuls_total", stats.matmuls,
                "Stacked matmuls executed (one per model per flush).")
    out.counter("repro_coalesced_requests_total", stats.coalesced_requests,
                "Requests that shared a matmul with others.")

    shed = dict(service.shed_counts)
    out.counter("repro_shed_requests_total", sum(shed.values()),
                "Requests shed with 429 by admission control.")
    for label in sorted(shed):
        out.counter("repro_model_shed_requests_total", shed[label],
                    "Per-model requests shed with 429.", {"model": label})

    cache = dict(service.cache_stats)
    out.counter("repro_feature_cache_hits_total",
                cache.get("feature_hits", 0),
                "Session lookups served from the feature-matrix LRU.")
    out.counter("repro_feature_cache_misses_total",
                cache.get("feature_misses", 0),
                "Session lookups that built (or rebuilt) a session.")
    out.gauge("repro_sessions_loaded", len(service.loaded_digests()),
              "Distinct model digests with a live session.")

    # The versioned serving graph: current epoch per store, update counter
    # and the incremental-vs-full session rebuild split.
    graph_epochs = getattr(service, "graph_epochs", None)
    if graph_epochs is not None:
        for key, epoch in graph_epochs().items():
            out.gauge("repro_graph_epoch", epoch,
                      "Current epoch of each versioned serving graph.",
                      {"graph": key})
        graph_stats = dict(service.graph_stats)
        out.counter("repro_graph_updates_total",
                    graph_stats.get("updates", 0),
                    "Edge-delta batches applied to serving graphs.")
        for strategy in ("incremental", "full"):
            out.counter("repro_graph_session_rebuilds_total",
                        graph_stats.get(f"sessions_rebuilt_{strategy}", 0),
                        "Session rebuilds after an epoch advance, by "
                        "strategy.", {"strategy": strategy})
        out.counter("repro_graph_rows_recomputed_total",
                    graph_stats.get("rows_recomputed", 0),
                    "Feature rows re-propagated by incremental rebuilds.")
        out.counter("repro_graph_rows_reused_total",
                    graph_stats.get("rows_reused", 0),
                    "Feature rows reused bitwise by incremental rebuilds.")

    # The propagation cache behind session builds (transition matrices,
    # LU solvers, propagated features), per layer.
    propagation = getattr(service, "propagation", None)
    if propagation is not None:
        info = propagation.info()
        for counter, help_text in (
            ("hits", "Propagation-cache hits per layer."),
            ("misses", "Propagation-cache misses per layer."),
        ):
            for layer in sorted(info):
                out.counter(f"repro_propagation_cache_{counter}_total",
                            info[layer][counter], help_text, {"layer": layer})
        for layer in sorted(info):
            out.gauge("repro_propagation_cache_entries",
                      info[layer]["entries"],
                      "Propagation-cache entries currently held per layer.",
                      {"layer": layer})

    process = process_stats(service.started_at)
    out.gauge("repro_uptime_seconds", process["uptime_seconds"],
              "Seconds since the service started.")
    if process["rss_bytes"] is not None:
        out.gauge("repro_process_resident_memory_bytes", process["rss_bytes"],
                  "Peak resident set size (resource.getrusage).")

    if server is not None:
        out.gauge("repro_open_connections", len(server._connections),
                  "Currently open HTTP connections.")
        out.gauge("repro_parked_requests", len(server._parked),
                  "Connections parked on an in-flight ticket or update.")

    if tracer is not None:
        for stage, snapshot in tracer.stages.export().items():
            out.histogram("repro_stage_duration_seconds", snapshot,
                          "Span duration per trace stage name.",
                          {"stage": stage})
        for key, value in tracer.counters().items():
            if key == "traces_active":
                out.gauge("repro_traces_active", value,
                          "Traces whose root span has not ended.")
            else:
                out.counter(f"repro_{key}", value,
                            f"Tracer lifecycle counter: {key}.")

    return out.render()


# --------------------------------------------------------------------------- #
# parsing (the smoke-check half)
# --------------------------------------------------------------------------- #
def parse_prometheus_text(text: str) -> list[tuple[str, dict, float]]:
    """Parse an exposition page into ``(name, labels, value)`` samples.

    Strict: any line that is neither a comment, blank, nor a well-formed
    sample raises :class:`ValueError` — so "it parses" is a meaningful CI
    assertion, not a permissive shrug.
    """
    samples: list[tuple[str, dict, float]] = []
    # Lines end at "\n" only: str.splitlines would also split on the
    # unescaped \r, \x1e, \x85 or \u2028 a label value may carry.
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SAMPLE.match(stripped)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        name, labels_text, value_text = match.groups()
        labels = _parse_labels(labels_text or "", lineno)
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"malformed sample value on line {lineno}: {value_text!r}"
            ) from None
        samples.append((name, labels, value))
    return samples


def histogram_series(samples, metric: str) -> dict[tuple, dict]:
    """Regroup parsed samples into per-series histogram data.

    Returns ``{label_items: {"bounds": [...], "counts": [...], "sum": s,
    "count": n}}`` with *raw* (de-cumulated) counts including the overflow
    bucket, the same layout as ``Histogram.counts``.  ``label_items`` is the
    sorted tuple of non-``le`` label pairs.
    """
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    sums: dict[tuple, float] = {}
    counts: dict[tuple, float] = {}
    for name, labels, value in samples:
        if name == f"{metric}_bucket":
            le = labels.get("le")
            if le is None:
                raise ValueError(f"bucket sample without le label: {labels}")
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            edge = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault(key, []).append((edge, value))
        elif name == f"{metric}_sum":
            sums[tuple(sorted(labels.items()))] = value
        elif name == f"{metric}_count":
            counts[tuple(sorted(labels.items()))] = value
    series: dict[tuple, dict] = {}
    for key, entries in buckets.items():
        entries.sort(key=lambda pair: pair[0])
        if not entries or entries[-1][0] != float("inf"):
            raise ValueError(f"histogram series {key} lacks a +Inf bucket")
        cumulative = [count for _edge, count in entries]
        if any(b < a for a, b in zip(cumulative, cumulative[1:])):
            raise ValueError(f"non-monotone cumulative buckets in {key}")
        raw = [cumulative[0]] + [b - a for a, b in
                                 zip(cumulative, cumulative[1:])]
        series[key] = {
            "bounds": [edge for edge, _count in entries[:-1]],
            "counts": [int(count) for count in raw],
            "sum": sums.get(key, 0.0),
            "count": counts.get(key, cumulative[-1]),
        }
    return series
