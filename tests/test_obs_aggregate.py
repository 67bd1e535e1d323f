"""Tests for the ``repro trace`` client: the trace fetchers against a
stubbed server (no sockets), the command against a closed port, plus the
span tree's ordering rules."""

from __future__ import annotations

import json
import socket
import urllib.error

import pytest

from repro.cli.main import main
from repro.obs import aggregate
from repro.obs.aggregate import (
    fetch_recent_traces,
    fetch_trace_spans,
    render_trace_tree,
)


@pytest.fixture()
def pages(monkeypatch):
    """``{(base_url, path): bytes | int}``: what the stubbed server answers
    (an int is an HTTP error status); a path not in the map is a refused
    connection."""
    answers: dict[tuple[str, str], bytes | int] = {}

    def fake_get(base_url, path, timeout):
        try:
            answer = answers[(base_url, path)]
        except KeyError:
            raise urllib.error.URLError("connection refused") from None
        if isinstance(answer, int):
            raise urllib.error.HTTPError(base_url + path, answer, "error",
                                         None, None)
        return answer

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

    def test_recent_traces_raise_when_unreachable_or_unreadable(self, pages):
        pages[("http://bad", "/debug/traces")] = b"{not json"
        with pytest.raises(urllib.error.URLError, match="connection refused"):
            fetch_recent_traces("http://down")
        with pytest.raises(ValueError):
            fetch_recent_traces("http://bad")

    def test_trace_spans_come_from_the_one_server(self, pages):
        trace_id = "t" * 32
        spans = [_span("root"), _span("compute", parent="root")]
        pages[("http://a", f"/debug/traces/{trace_id}")] = json.dumps(
            {"spans": spans}).encode()
        assert fetch_trace_spans("http://a", trace_id) == spans

    def test_only_a_404_means_an_unknown_trace(self, pages):
        path = "/debug/traces/" + "t" * 32
        pages[("http://a", path)] = 404
        pages[("http://bad", path)] = b"{not json"
        pages[("http://broken", path)] = 500
        assert fetch_trace_spans("http://a", "t" * 32) == []
        with pytest.raises(urllib.error.URLError, match="connection refused"):
            fetch_trace_spans("http://down", "t" * 32)
        with pytest.raises(ValueError):
            fetch_trace_spans("http://bad", "t" * 32)
        with pytest.raises(urllib.error.HTTPError):
            fetch_trace_spans("http://broken", "t" * 32)


class TestTraceCommand:
    @pytest.fixture()
    def closed_url(self):
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            return f"http://127.0.0.1:{probe.getsockname()[1]}"

    @pytest.mark.parametrize("trace_id", [[], ["0" * 32]],
                             ids=["list", "one-trace"])
    def test_an_unreachable_server_is_not_a_missing_trace(
            self, closed_url, trace_id, capsys):
        assert main(["trace", *trace_id, "--url", closed_url]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot reach {closed_url}: ")
        assert "not found" not in captured.err

    @pytest.mark.parametrize("answer", [500, b"{not json"],
                             ids=["http-500", "not-json"])
    @pytest.mark.parametrize("trace_id", [[], ["0" * 32]],
                             ids=["list", "one-trace"])
    def test_an_unreadable_answer_is_not_a_missing_trace(
            self, pages, trace_id, answer, capsys):
        """A server that answers but not with a trace document exits 1
        with the failure, never a traceback or a "not found"."""
        pages[("http://a", "/debug/traces")] = answer
        pages[("http://a", "/debug/traces/" + "0" * 32)] = answer
        assert main(["trace", *trace_id, "--url", "http://a"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot reach http://a: ")
        assert "not found" not in captured.err

    def test_a_404_is_a_missing_trace(self, pages, capsys):
        pages[("http://a", "/debug/traces/" + "0" * 32)] = 404
        assert main(["trace", "0" * 32, "--url", "http://a"]) == 1
        assert capsys.readouterr().err.strip() \
            == f"trace {'0' * 32} not found on http://a"


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
