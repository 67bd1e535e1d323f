"""End-to-end observability over HTTP: /metrics exposition, request traces,
the /stats process section, the bitwise pin under tracing, and the
``repro trace`` CLI."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli.main import main
from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.graphs.datasets import load_dataset
from repro.obs.prometheus import histogram_series, parse_prometheus_text
from repro.obs.trace import TRACE_HEADER
from repro.serving import InferenceService, ModelRegistry, serve_http


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, model):
    root = tmp_path_factory.mktemp("obs-registry")
    registry = ModelRegistry(root / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml", "scale": 0.06,
                               "graph_seed": 0})
    return root / "reg"


class _Server:
    """One in-process server, traced unless ``trace=False``."""

    def __init__(self, registry_dir, graph, *, trace=True):
        self.service = InferenceService(ModelRegistry(registry_dir),
                                        graph=graph)
        self.service.prewarm("demo@latest")
        self.server = serve_http(self.service, port=0, trace=trace)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


def _predict(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/predict",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return (response.status, json.loads(response.read()),
                response.headers.get(TRACE_HEADER))


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10.0) as response:
        return (response.status, response.read(),
                response.headers.get("Content-Type"))


@pytest.fixture()
def server(registry_dir, graph):
    instance = _Server(registry_dir, graph)
    yield instance
    instance.close()


class TestSingleServer:
    def test_predict_creates_a_complete_trace(self, server):
        status, _body, header = _predict(server.port,
                                         {"model": "demo", "nodes": [0, 3]})
        assert status == 200
        assert header is not None
        trace_id = header.split("-")[0]
        status, raw, _ = _get(server.port, f"/debug/traces/{trace_id}")
        assert status == 200
        trace = json.loads(raw)
        assert trace["status"] == "ok"
        names = {span["name"] for span in trace["spans"]}
        assert {"predict", "parse", "admission", "queue", "batch",
                "compute", "render"} <= names
        root = trace["spans"][0]
        assert root["name"] == "predict"
        assert root["attrs"]["http_status"] == 200
        assert root["attrs"]["nodes"] == 2
        # Every stage nests directly under the request root.
        for span in trace["spans"][1:]:
            assert span["parent_id"] == root["span_id"]
            assert span["trace_id"] == trace_id

    def test_debug_traces_lists_recent(self, server):
        for _ in range(2):
            _predict(server.port, {"model": "demo", "nodes": [1]})
        _status, raw, _ = _get(server.port, "/debug/traces")
        listing = json.loads(raw)
        assert listing["enabled"] is True
        assert len(listing["traces"]) >= 2
        assert listing["traces"][0]["root"] == "predict"
        status, _raw, _ = _get(server.port, "/debug/traces")
        assert status == 200

    def test_unknown_trace_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.port, "/debug/traces/deadbeef")
        assert excinfo.value.code == 404

    def test_client_supplied_header_continues_the_trace(self, server):
        trace_id, parent_id = "ab" * 16, "cd" * 8
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/predict",
            data=json.dumps({"model": "demo", "nodes": [0]}).encode(),
            headers={"Content-Type": "application/json",
                     TRACE_HEADER: f"{trace_id}-{parent_id}"})
        with urllib.request.urlopen(request, timeout=30.0) as response:
            echoed = response.headers.get(TRACE_HEADER)
        assert echoed.startswith(f"{trace_id}-")
        _status, raw, _ = _get(server.port, f"/debug/traces/{trace_id}")
        root = json.loads(raw)["spans"][0]
        assert root["parent_id"] == parent_id

    def test_metrics_page_parses_and_counters_are_monotone(self, server):
        _predict(server.port, {"model": "demo", "nodes": [0, 1]})
        _status, raw, content_type = _get(server.port, "/metrics")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        first = {(name, tuple(sorted(labels.items()))): value
                 for name, labels, value
                 in parse_prometheus_text(raw.decode())}
        _predict(server.port, {"model": "demo", "nodes": [2]})
        # The response is written the instant the ticket resolves; the
        # observer callback lands just after, so poll the scrape briefly.
        deadline = time.monotonic() + 5.0
        while True:
            _status, raw, _ = _get(server.port, "/metrics")
            samples = parse_prometheus_text(raw.decode())
            series = histogram_series(samples,
                                      "repro_request_latency_seconds")
            if sum(data["count"] for data in series.values()) >= 2:
                break
            assert time.monotonic() < deadline, "latency count never reached 2"
            time.sleep(0.05)
        second = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        for key, value in first.items():
            name = key[0]
            if name.endswith("_total") or name.endswith("_bucket") \
                    or name.endswith("_count"):
                assert second.get(key, 0.0) >= value, key
        stages = histogram_series(samples, "repro_stage_duration_seconds")
        stage_names = {dict(key)["stage"] for key in stages}
        assert {"compute", "queue", "render"} <= stage_names

    def test_stats_exposes_the_process_section(self, server):
        _status, raw, _ = _get(server.port, "/stats")
        payload = json.loads(raw)
        process = payload["process"]
        assert process["uptime_seconds"] >= 0.0
        assert process["rss_bytes"] is None or process["rss_bytes"] > 0
        assert process["open_connections"] >= 1  # ours, at least
        assert process["parked_requests"] == 0

    def test_trace_cli_lists_and_renders(self, server, capsys):
        _status, _body, header = _predict(server.port,
                                          {"model": "demo", "nodes": [0]})
        trace_id = header.split("-")[0]
        assert main(["trace", "--url", server.url]) == 0
        listing = capsys.readouterr().out
        assert trace_id in listing
        assert main(["trace", trace_id, "--url", server.url]) == 0
        tree = capsys.readouterr().out
        assert f"trace {trace_id}" in tree
        assert "predict" in tree and "compute" in tree
        assert main(["trace", "0" * 32, "--url", server.url]) == 1
        assert f"not found on {server.url}" in capsys.readouterr().err


class TestUntraced:
    def test_no_trace_serves_identical_scores(self, registry_dir, graph,
                                              model):
        nodes = [0, 4, 2, 9]
        traced = _Server(registry_dir, graph, trace=True)
        untraced = _Server(registry_dir, graph, trace=False)
        try:
            _status, traced_body, traced_header = _predict(
                traced.port, {"model": "demo", "nodes": nodes})
            _status, untraced_body, untraced_header = _predict(
                untraced.port, {"model": "demo", "nodes": nodes})
            # The bitwise pin holds with tracing on AND off, and both equal
            # the offline reference — observation never touches the data.
            offline = model.decision_scores(graph, mode="private")[nodes]
            assert np.array_equal(np.asarray(traced_body["scores"]), offline)
            assert traced_body["scores"] == untraced_body["scores"]
            assert traced_header is not None
            assert untraced_header is None
            _status, raw, _ = _get(untraced.port, "/debug/traces")
            assert json.loads(raw) == {"enabled": False, "traces": []}
            # /metrics still works untraced — just without stage families.
            _status, raw, _ = _get(untraced.port, "/metrics")
            names = {name for name, _l, _v
                     in parse_prometheus_text(raw.decode())}
            assert "repro_requests_total" in names
            assert "repro_stage_duration_seconds_bucket" not in names
        finally:
            traced.close()
            untraced.close()
