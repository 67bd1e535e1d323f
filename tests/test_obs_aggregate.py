"""Tests for the client-side fleet view behind ``repro fleet status
--metrics`` and ``repro trace``: scraping, the per-model latency report and
the span fetchers, against stubbed replicas (no sockets), plus the span
tree's ordering rules."""

from __future__ import annotations

import json
import time
import urllib.error

import pytest

from repro.cli.main import main
from repro.obs import aggregate
from repro.obs.aggregate import (
    LATENCY_METRIC,
    fetch_recent_traces,
    fetch_trace_spans,
    fleet_metrics_report,
    merge_latency_histograms,
    render_trace_tree,
    scrape_metrics,
    scrape_page,
)
from repro.obs.prometheus import MetricsRenderer, parse_prometheus_text
from repro.serving import FleetMember
from repro.serving.metrics import LATENCY_BUCKETS, Histogram


def _latency_page(observations: dict) -> bytes:
    """One replica's ``/metrics`` page: a latency histogram per model plus
    a counter the merge must ignore."""
    out = MetricsRenderer()
    for model, values in observations.items():
        hist = Histogram(LATENCY_BUCKETS)
        for value in values:
            hist.observe(value)
        out.histogram(LATENCY_METRIC, hist.snapshot(), "Latency.",
                      {"model": model})
    out.counter("repro_requests_total", 1, "Requests.")
    return out.render().encode("utf-8")


@pytest.fixture()
def replicas(monkeypatch):
    """``{(base_url, path): bytes}``: what each stubbed replica answers; a
    path not in the map is a refused connection."""
    pages: dict[tuple[str, str], bytes] = {}

    def fake_get(base_url, path, timeout):
        try:
            return pages[(base_url, path)]
        except KeyError:
            raise urllib.error.URLError("connection refused") from None

    monkeypatch.setattr(aggregate, "_get", fake_get)
    return pages


def _span(span_id, *, parent=None, name="s", start=0, attrs=None):
    return {"trace_id": "t" * 32, "span_id": span_id, "parent_id": parent,
            "name": name, "start_ns": start, "duration_ms": 1.0,
            "status": "ok", "attrs": attrs or {}}


class TestScrape:
    def test_page_keeps_comments_and_metrics_parses_it(self, replicas):
        replicas[("http://r0", "/metrics")] = _latency_page({"a": [0.001]})
        page = scrape_page("http://r0")
        assert f"# TYPE {LATENCY_METRIC} histogram" in page
        assert scrape_metrics("http://r0") == parse_prometheus_text(page)

    def test_no_pages_merge_to_nothing(self):
        assert merge_latency_histograms([]) == ({}, {})
        counters_only = parse_prometheus_text("repro_requests_total 3\n")
        assert merge_latency_histograms([counters_only]) == ({}, {})


class TestFleetMetricsReport:
    def test_models_sorted_with_merged_counts(self, replicas):
        replicas[("http://r0", "/metrics")] = _latency_page(
            {"b": [0.001] * 3, "a": [0.002]})
        replicas[("http://r1", "/metrics")] = _latency_page({"a": [0.004] * 2})
        report = fleet_metrics_report([("r0", "http://r0"),
                                       ("r1", "http://r1")])
        lines = report.splitlines()
        assert lines[0] == "fleet metrics: scraped 2/2 replica(s)"
        assert lines[1].split() == ["model", "replicas", "requests",
                                    "p50", "ms", "p95", "ms", "p99", "ms"]
        rows = [line.split() for line in lines[2:]]
        # model, replicas that served it, merged request count.
        assert [row[:3] for row in rows] == [["a", "2", "3"], ["b", "1", "3"]]
        for row in rows:
            p50, p95, p99 = map(float, row[3:])
            assert 0.0 < p50 <= p95 <= p99

    def test_unreachable_and_malformed_replicas_are_reported(self, replicas):
        replicas[("http://r0", "/metrics")] = _latency_page({"a": [0.001]})
        replicas[("http://r2", "/metrics")] = b"this is not exposition text\n"
        report = fleet_metrics_report([("r0", "http://r0"),
                                       ("r1", "http://r1"),
                                       ("r2", "http://r2")])
        assert report.startswith("fleet metrics: scraped 1/3 replica(s)")
        assert "!! r1: unreachable (" in report
        assert "!! r2: unreachable (malformed exposition line" in report
        assert report.splitlines()[-1].split()[:3] == ["a", "1", "1"]

    def test_no_reachable_replica_leaves_only_the_census(self, replicas):
        report = fleet_metrics_report([("r0", "http://r0")])
        assert report.splitlines()[0] == "fleet metrics: scraped 0/1 replica(s)"
        assert "p50 ms" not in report
        assert fleet_metrics_report([]) == \
            "fleet metrics: scraped 0/0 replica(s)"

    def test_pages_without_latency_say_so(self, replicas):
        replicas[("http://r0", "/metrics")] = _latency_page({})
        assert fleet_metrics_report([("r0", "http://r0")]).splitlines() == [
            "fleet metrics: scraped 1/1 replica(s)",
            "  no request latency recorded yet"]


class TestTraceFetch:
    def test_recent_traces_are_tagged_and_limited(self, replicas):
        listing = {"enabled": True, "traces": [
            {"trace_id": f"t{i}", "root": "predict", "span_count": 1,
             "duration_ms": 1.0} for i in range(5)]}
        for url in ("http://a", "http://b"):
            replicas[(url, "/debug/traces")] = json.dumps(listing).encode()
        rows = fetch_recent_traces(["http://a", "http://b"], limit=2)
        assert [(row["server"], row["trace_id"]) for row in rows] == [
            ("http://a", "t0"), ("http://a", "t1"),
            ("http://b", "t0"), ("http://b", "t1")]

    def test_recent_traces_turn_failures_into_error_rows(self, replicas):
        replicas[("http://bad", "/debug/traces")] = b"{not json"
        rows = fetch_recent_traces(["http://down", "http://bad"])
        assert [row["server"] for row in rows] == ["http://down", "http://bad"]
        assert all(set(row) == {"server", "error"} for row in rows)
        assert "connection refused" in rows[0]["error"]

    def test_trace_spans_union_across_servers_once_each(self, replicas):
        trace_id = "t" * 32
        path = f"/debug/traces/{trace_id}"
        replicas[("http://relay", path)] = json.dumps(
            {"spans": [_span("root"), _span("proxy", parent="root")]}).encode()
        replicas[("http://owner", path)] = json.dumps(
            {"spans": [_span("proxy", parent="root"),
                       _span("owner", parent="proxy")]}).encode()
        spans = fetch_trace_spans(
            ["http://relay", "http://down", "http://owner"], trace_id)
        assert [span["span_id"] for span in spans] == ["root", "proxy",
                                                       "owner"]

    def test_trace_spans_of_an_unknown_trace_are_empty(self, replicas):
        replicas[("http://a", "/debug/traces/" + "t" * 32)] = b"{not json"
        assert fetch_trace_spans(["http://a", "http://b"], "t" * 32) == []


class TestTraceTree:
    def test_one_span_is_singular(self):
        assert render_trace_tree([_span("root", name="predict")]) \
            .splitlines()[0] == f"trace {'t' * 32} (1 span)"

    def test_siblings_render_in_start_order(self):
        spans = [_span("root", name="predict"),
                 _span("late", parent="root", name="render", start=9),
                 _span("early", parent="root", name="parse", start=1)]
        lines = render_trace_tree(spans).splitlines()
        assert [line.split()[1] for line in lines[1:]] == [
            "predict", "parse", "render"]
        assert lines[-1].lstrip().startswith("└─ render")

    def test_only_scalar_attrs_are_noted(self):
        tree = render_trace_tree([_span("root", name="predict", attrs={
            "model": "demo", "rows": 4, "nodes": [1, 2], "extra": {"k": 1}})])
        assert tree.splitlines()[1].endswith("(model=demo rows=4)")


class TestFleetStatusCommand:
    def test_empty_fleet_dir(self, tmp_path, capsys):
        assert main(["fleet", "status", "--fleet-dir",
                     str(tmp_path / "fleet")]) == 0
        assert "no replicas (no lease files)" in capsys.readouterr().out

    def test_metrics_scrapes_only_live_replicas(self, tmp_path, capsys,
                                                replicas):
        fleet_dir = tmp_path / "fleet"
        live = FleetMember(fleet_dir, "r-live", "127.0.0.1", 8101).join()
        FleetMember(fleet_dir, "r-gone", "127.0.0.1", 8102, ttl=1.0,
                    clock=lambda: time.time() - 60.0).join()
        replicas[(f"http://127.0.0.1:{live.port}", "/metrics")] = \
            _latency_page({"demo@0": [0.001, 0.002]})
        try:
            assert main(["fleet", "status", "--fleet-dir", str(fleet_dir),
                         "--metrics"]) == 0
        finally:
            live.leave()
        out = capsys.readouterr().out
        assert "2 replica(s), 1 live" in out
        assert "fleet metrics: scraped 1/1 replica(s)" in out
        assert out.splitlines()[-1].split()[:3] == ["demo@0", "1", "2"]
