"""Fleet-wide telemetry: scrape every replica, merge, summarise.

A fleet has no coordinator — replicas share only a lease directory — so the
fleet-wide view is assembled client-side: ``repro fleet status --metrics``
resolves the live replicas from their leases, scrapes each one's
``/metrics``, parses the exposition text back into raw bucket-count vectors
(:func:`~repro.obs.prometheus.histogram_series`) and folds them into one
:class:`~repro.serving.metrics.Histogram` per model with
:meth:`~repro.serving.metrics.Histogram.merge`.  That merge is exact, not an
approximation, because every replica histograms into the same fixed,
data-independent bucket bounds; the fleet p50/p95/p99 read off the merged
counts is the same estimate one replica would have produced had it seen all
the traffic.

The trace half: ``repro trace`` fetches ``/debug/traces`` listings and
per-id span sets from one or more replicas, merges the spans of a trace
that crossed a proxy hop, and renders the tree by ``parent_id`` links.
Timestamps from different replicas are not comparable (monotonic clocks),
so ordering leans on the links, and sibling order is per-replica only.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.obs.prometheus import histogram_series, parse_prometheus_text

DEFAULT_TIMEOUT = 5.0
LATENCY_METRIC = "repro_request_latency_seconds"

FLEET_QUANTILES = (0.5, 0.95, 0.99)


def _get(base_url: str, path: str, timeout: float) -> bytes:
    request = urllib.request.Request(base_url.rstrip("/") + path,
                                     headers={"Connection": "close"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def scrape_page(base_url: str, *,
                timeout: float = DEFAULT_TIMEOUT) -> str:
    """Fetch one replica's raw ``/metrics`` exposition text, ``# TYPE``
    comments included."""
    return _get(base_url, "/metrics", timeout).decode("utf-8")


def scrape_metrics(base_url: str, *,
                   timeout: float = DEFAULT_TIMEOUT) -> list:
    """Fetch and parse one replica's ``/metrics`` page into samples."""
    return parse_prometheus_text(scrape_page(base_url, timeout=timeout))


def merge_latency_histograms(sample_sets, *, metric: str = LATENCY_METRIC):
    """Fold per-replica latency bucket counts into one histogram per model.

    ``sample_sets`` is an iterable of parsed sample lists (one per replica).
    Returns ``{model_label: Histogram}`` — merged across replicas, plus a
    per-model replica count in ``{model_label: int}``.
    """
    from repro.serving.metrics import Histogram

    merged: dict[str, object] = {}
    replicas: dict[str, int] = {}
    for samples in sample_sets:
        for key, series in histogram_series(samples, metric).items():
            labels = dict(key)
            model = labels.get("model", "")
            histogram = merged.get(model)
            if histogram is None:
                histogram = merged[model] = Histogram(series["bounds"])
            elif list(histogram.bounds) != [float(b)
                                            for b in series["bounds"]]:
                raise ValueError(
                    f"replica bucket bounds disagree for model {model!r}; "
                    f"cannot merge histograms across mixed versions")
            histogram.merge(series["counts"], total=series["sum"])
            replicas[model] = replicas.get(model, 0) + 1
    return merged, replicas


def fleet_metrics_report(replicas, *,
                         timeout: float = DEFAULT_TIMEOUT) -> str:
    """Scrape ``[(replica_id, base_url), ...]`` and render the fleet-wide
    per-model latency summary; unreachable replicas are reported, not fatal
    (a fleet with a dead member still has aggregate telemetry)."""
    replicas = list(replicas)
    sample_sets = []
    scraped, unreachable = [], []
    for replica_id, base_url in replicas:
        try:
            sample_sets.append(scrape_metrics(base_url, timeout=timeout))
            scraped.append(replica_id)
        except (urllib.error.URLError, OSError, ValueError) as error:
            unreachable.append((replica_id, error))
    lines = [f"fleet metrics: scraped {len(scraped)}/{len(replicas)} "
             f"replica(s)"]
    for replica_id, error in unreachable:
        lines.append(f"  !! {replica_id}: unreachable ({error})")
    if not sample_sets:
        return "\n".join(lines)
    merged, per_model_replicas = merge_latency_histograms(sample_sets)
    if not merged:
        lines.append("  no request latency recorded yet")
        return "\n".join(lines)
    header = (f"  {'model':<40} {'replicas':>8} {'requests':>9} "
              f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}")
    lines.append(header)
    for model in sorted(merged):
        histogram = merged[model]
        quantiles = [histogram.quantile(q) * 1e3 for q in FLEET_QUANTILES]
        lines.append(f"  {model:<40} {per_model_replicas[model]:>8} "
                     f"{histogram.count:>9} "
                     + " ".join(f"{value:>9.3f}" for value in quantiles))
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# traces
# --------------------------------------------------------------------------- #
def fetch_recent_traces(base_urls, *, limit: int = 10,
                        timeout: float = DEFAULT_TIMEOUT) -> list[dict]:
    """``/debug/traces`` listings from every server, tagged with the URL."""
    rows: list[dict] = []
    for base_url in base_urls:
        try:
            payload = json.loads(_get(base_url, "/debug/traces", timeout))
        except (urllib.error.URLError, OSError, ValueError) as error:
            rows.append({"server": base_url, "error": str(error)})
            continue
        for summary in payload.get("traces", [])[:limit]:
            rows.append({"server": base_url, **summary})
    return rows


def fetch_trace_spans(base_urls, trace_id: str, *,
                      timeout: float = DEFAULT_TIMEOUT) -> list[dict]:
    """The union of one trace's spans across servers (a proxied predict
    stores half its spans on each replica); servers without the trace (or
    unreachable) contribute nothing."""
    spans: list[dict] = []
    seen: set[str] = set()
    for base_url in base_urls:
        try:
            payload = json.loads(
                _get(base_url, f"/debug/traces/{trace_id}", timeout))
        except (urllib.error.URLError, OSError, ValueError):
            continue
        for span in payload.get("spans", []):
            if span.get("span_id") in seen:
                continue
            seen.add(span.get("span_id"))
            spans.append(span)
    return spans


def render_trace_list(rows) -> str:
    if not rows:
        return "no traces recorded"
    lines = [f"{'trace_id':<34} {'root':<12} {'spans':>5} "
             f"{'ms':>10}  server"]
    for row in rows:
        if "error" in row:
            lines.append(f"!! {row['server']}: {row['error']}")
            continue
        lines.append(f"{row.get('trace_id', ''):<34} "
                     f"{row.get('root', ''):<12} "
                     f"{row.get('span_count', 0):>5} "
                     f"{row.get('duration_ms', 0.0):>10.3f}  "
                     f"{row['server']}")
    return "\n".join(lines)


def render_trace_tree(spans) -> str:
    """ASCII tree of one trace: nesting by ``parent_id``, siblings in
    start order (meaningful within a replica), orphans promoted to roots."""
    if not spans:
        return "trace has no spans"
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str | None, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span.get("start_ns", 0))
    roots.sort(key=lambda span: span.get("start_ns", 0))

    lines = [f"trace {spans[0]['trace_id']} "
             f"({len(spans)} span{'s' if len(spans) != 1 else ''})"]

    def _describe(span: dict) -> str:
        attrs = span.get("attrs") or {}
        noted = " ".join(f"{key}={attrs[key]}"
                         for key in sorted(attrs)
                         if isinstance(attrs[key], (str, int, float, bool)))
        status = span.get("status", "ok")
        flag = "" if status == "ok" else f" [{status}]"
        text = f"{span['name']} {span.get('duration_ms', 0.0):.3f}ms{flag}"
        return f"{text}  ({noted})" if noted else text

    def _walk(span: dict, prefix: str, is_last: bool) -> None:
        branch = "└─ " if is_last else "├─ "
        lines.append(prefix + branch + _describe(span))
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span["span_id"], [])
        for index, child in enumerate(kids):
            _walk(child, child_prefix, index == len(kids) - 1)

    for index, root in enumerate(roots):
        _walk(root, "", index == len(roots) - 1)
    return "\n".join(lines)
