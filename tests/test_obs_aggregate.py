"""Tests for the ``repro trace`` client: the trace fetchers against a
stubbed server (no sockets), plus the span tree's ordering rules."""

from __future__ import annotations

import json
import urllib.error

import pytest

from repro.obs import aggregate
from repro.obs.aggregate import (
    fetch_recent_traces,
    fetch_trace_spans,
    render_trace_tree,
)


@pytest.fixture()
def pages(monkeypatch):
    """``{(base_url, path): bytes}``: what the stubbed server answers; a
    path not in the map is a refused connection."""
    answers: dict[tuple[str, str], bytes] = {}

    def fake_get(base_url, path, timeout):
        try:
            return answers[(base_url, path)]
        except KeyError:
            raise urllib.error.URLError("connection refused") from None

    monkeypatch.setattr(aggregate, "_get", fake_get)
    return answers


def _span(span_id, *, parent=None, name="s", start=0, attrs=None):
    return {"trace_id": "t" * 32, "span_id": span_id, "parent_id": parent,
            "name": name, "start_ns": start, "duration_ms": 1.0,
            "status": "ok", "attrs": attrs or {}}


class TestTraceFetch:
    def test_recent_traces_are_limited(self, pages):
        listing = {"enabled": True, "traces": [
            {"trace_id": f"t{i}", "root": "predict", "span_count": 1,
             "duration_ms": 1.0} for i in range(5)]}
        pages[("http://a", "/debug/traces")] = json.dumps(listing).encode()
        rows = fetch_recent_traces("http://a", limit=2)
        assert [row["trace_id"] for row in rows] == ["t0", "t1"]

    def test_recent_traces_default_to_the_newest_ten(self, pages):
        listing = {"traces": [{"trace_id": f"t{i}"} for i in range(12)]}
        pages[("http://a", "/debug/traces")] = json.dumps(listing).encode()
        assert [row["trace_id"] for row in fetch_recent_traces("http://a")] \
            == [f"t{i}" for i in range(10)]

    def test_each_fetch_is_one_request_to_the_one_server(self, monkeypatch):
        asked = []

        def fake_get(base_url, path, timeout):
            asked.append((base_url, path, timeout))
            return json.dumps({"traces": [], "spans": []}).encode()

        monkeypatch.setattr(aggregate, "_get", fake_get)
        fetch_recent_traces("http://a", timeout=2.0)
        fetch_trace_spans("http://a", "t" * 32)
        assert asked == [
            ("http://a", "/debug/traces", 2.0),
            ("http://a", "/debug/traces/" + "t" * 32,
             aggregate.DEFAULT_TIMEOUT)]

    def test_recent_traces_turn_failures_into_error_rows(self, pages):
        pages[("http://bad", "/debug/traces")] = b"{not json"
        for url in ("http://down", "http://bad"):
            (row,) = fetch_recent_traces(url)
            assert set(row) == {"error"}
            assert row["error"].startswith(f"{url}: ")
        assert "connection refused" in \
            fetch_recent_traces("http://down")[0]["error"]

    def test_trace_spans_come_from_the_one_server(self, pages):
        trace_id = "t" * 32
        spans = [_span("root"), _span("compute", parent="root")]
        pages[("http://a", f"/debug/traces/{trace_id}")] = json.dumps(
            {"spans": spans}).encode()
        assert fetch_trace_spans("http://a", trace_id) == spans

    def test_trace_spans_of_an_unknown_trace_are_empty(self, pages):
        pages[("http://a", "/debug/traces/" + "t" * 32)] = b"{not json"
        assert fetch_trace_spans("http://a", "t" * 32) == []
        assert fetch_trace_spans("http://b", "t" * 32) == []


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
